// Measurement harness shared by the hcmbench workloads: wall clock,
// heap-traffic counters, percentiles, the in-memory span tracer and the
// metric report every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace hcmbench {

// --- clocks ---------------------------------------------------------------
inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- heap traffic ----------------------------------------------------------
// Every operator new in the process is counted (hcmbench replaces the
// global allocation functions). Counters live in per-thread slots so
// the sharded kernel's workers never contend on one cache line.
struct Heap {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
  Heap operator-(const Heap& o) const {
    return {allocs - o.allocs, bytes - o.bytes};
  }
  Heap operator+(const Heap& o) const {
    return {allocs + o.allocs, bytes + o.bytes};
  }
};
Heap heap_now();

// Peak resident set of the process (VmHWM), in MB.
double peak_rss_mb();

// --- percentiles -------------------------------------------------------------
// Nearest-rank quantile of an ascending-sorted sample: index
// floor(q * (n - 1)).
double quantile_sorted(const std::vector<double>& sorted, double q);
// The same of an unsorted sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

struct Tail {
  double q = 0;      // the quantile actually reported
  double value = 0;
  std::size_t beyond = 0;  // samples strictly above its rank
};
// The highest of {0.999, 0.99, 0.95, 0.9, 0.75, 0.5} not above `want`
// that still has at least ten samples beyond its rank; the median when
// even that fails. `sorted` must be ascending.
Tail tail_quantile(const std::vector<double>& sorted, double want);

// --- spans --------------------------------------------------------------------
// In-memory span recorder for the traced run. A span is one call the
// benchmark makes into a layer's public API: name, wall start/end,
// enclosing span and the id of the generated call it belongs to.
class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint64_t call = 0;
  };

  void enable(bool on) { on_ = on; }
  [[nodiscard]] bool enabled() const { return on_; }
  std::uint32_t intern(const std::string& name);
  [[nodiscard]] const std::string& name_of(std::uint32_t id) const {
    return names_[id];
  }

  std::int32_t open(std::uint32_t name, std::uint64_t call);
  void close(std::int32_t idx);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  // Duration minus the part covered by direct children, per span.
  [[nodiscard]] std::vector<std::int64_t> self_times() const;
  // Writes one JSON object per line, the first `per_name` spans of each
  // name (ids and parents index the full in-memory list); returns
  // false on I/O failure.
  bool write(const std::string& path, const std::string& header_json,
             std::size_t per_name) const;

 private:
  static constexpr std::size_t kMaxSpans = 4'000'000;
  bool on_ = false;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::size_t dropped_ = 0;
};

Tracer& tracer();

// RAII span; a no-op while the tracer is disabled.
class SpanScope {
 public:
  SpanScope(std::uint32_t name, std::uint64_t call)
      : idx_(tracer().enabled() ? tracer().open(name, call) : -1) {}
  ~SpanScope() {
    if (idx_ >= 0) tracer().close(idx_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::int32_t idx_;
};

// --- report -----------------------------------------------------------------
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // sample count, quantile used, "n/a here", ...
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> problems;  // every correctness failure, described
  std::string spans_path;

  void e2e(std::string name, double v, std::string unit,
           std::string note = "") {
    end_to_end.push_back(
        {std::move(name), v, std::move(unit), std::move(note)});
  }
  void layer(std::string name, double v, std::string unit,
             std::string note = "") {
    per_layer.push_back({std::move(name), v, std::move(unit), std::move(note)});
  }
  // Value of an end-to-end metric already reported, 0 when absent.
  [[nodiscard]] double e2e_value(const std::string& name) const {
    for (const Metric& m : end_to_end) {
      if (m.name == name) return m.value;
    }
    return 0;
  }
  void fail(std::string what) {
    correct = false;
    problems.push_back(std::move(what));
  }
};

// Moves the calling thread across every CPU it may run on, one CPU per
// slice in a scrambled order, for the lifetime of the object, and
// restores the original affinity on destruction. A single-threaded
// timed phase thereby samples every core of a shared host instead of
// whichever one the scheduler placed it on: on a 4-vCPU shared VM, five
// seeds' spread (IQR / median) of calls_per_s was 0.13 without it and
// 0.03 with it on rpc-soap, 0.15 and 0.07 on home. Threads created
// meanwhile inherit the pin, so no multi-shard kernel may be built or
// run inside one.
class CpuRotation {
 public:
  explicit CpuRotation(std::int64_t slice_ns);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void tick() {
    if (cpus_.size() > 1 && wall_ns() >= next_ns_) advance();
  }

 private:
  void advance();
  std::int64_t slice_ns_;
  std::int64_t next_ns_ = 0;
  std::vector<int> cpus_;
  std::uint64_t at_ = 0;  // slices so far
};

// Shards of the city workload: 4, capped at the hardware threads.
unsigned city_shards();

// Deterministic 64-bit FNV-1a mixing, for digests of virtual-time
// columns.
inline std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvSeed = 0xcbf29ce484222325ULL;

}  // namespace hcmbench
