#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>

#include <sched.h>

namespace hcmbench {

// --- heap traffic ------------------------------------------------------------
namespace {
// One padded slot per thread; a thread claims a slot on its first
// allocation and is the only writer of it, so the hot path is a plain
// load/store pair, never a contended read-modify-write.
struct alignas(64) HeapSlot {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> bytes{0};
};
constexpr int kSlots = 256;
HeapSlot g_slots[kSlots];
std::atomic<int> g_next_slot{0};
thread_local int t_slot = -1;

inline void count_alloc(std::size_t n) {
  if (t_slot < 0) {
    const int s = g_next_slot.fetch_add(1, std::memory_order_relaxed);
    // Past the slot table, threads share the last slot; its counters
    // then undercount slightly but never race destructively (relaxed
    // atomics), and hcmbench runs at most a handful of threads.
    t_slot = s < kSlots ? s : kSlots - 1;
  }
  HeapSlot& slot = g_slots[t_slot];
  if (t_slot == kSlots - 1) {
    slot.allocs.fetch_add(1, std::memory_order_relaxed);
    slot.bytes.fetch_add(n, std::memory_order_relaxed);
    return;
  }
  slot.allocs.store(slot.allocs.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
  slot.bytes.store(slot.bytes.load(std::memory_order_relaxed) + n,
                   std::memory_order_relaxed);
}

void* counted_alloc(std::size_t n) {
  count_alloc(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

Heap heap_now() {
  Heap h;
  for (const HeapSlot& s : g_slots) {
    h.allocs += s.allocs.load(std::memory_order_relaxed);
    h.bytes += s.bytes.load(std::memory_order_relaxed);
  }
  return h;
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

// --- percentiles -------------------------------------------------------------
double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, q);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

Tail tail_quantile(const std::vector<double>& sorted, double want) {
  static constexpr double kLadder[] = {0.999, 0.99, 0.95, 0.9, 0.75, 0.5};
  Tail t;
  if (sorted.empty()) return t;
  const std::size_t n = sorted.size();
  for (double q : kLadder) {
    if (q > want) continue;
    const auto idx = static_cast<std::size_t>(q * static_cast<double>(n - 1));
    t = Tail{q, sorted[idx], n - 1 - idx};
    if (t.beyond >= 10) return t;
  }
  return t;  // the median, even if fewer than ten samples lie beyond it
}

// --- spans --------------------------------------------------------------------
Tracer& tracer() {
  static Tracer t;
  return t;
}

std::uint32_t Tracer::intern(const std::string& name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t Tracer::open(std::uint32_t name, std::uint64_t call) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  Span s;
  s.name = name;
  s.call = call;
  s.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(s);
  const auto idx = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(idx);
  spans_.back().start_ns = wall_ns();
  return idx;
}

void Tracer::close(std::int32_t idx) {
  spans_[static_cast<std::size_t>(idx)].end_ns = wall_ns();
  if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
}

std::vector<std::int64_t> Tracer::self_times() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

bool Tracer::write(const std::string& path, const std::string& header_json,
                   std::size_t per_name) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header_json.c_str());
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  const auto self = self_times();
  std::vector<std::size_t> written(names_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (written[s.name]++ >= per_name) continue;
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"self_ns\": %lld, \"parent\": %d, "
                 "\"call\": %llu}\n",
                 i, names_[s.name].c_str(),
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0),
                 static_cast<long long>(self[i]), s.parent,
                 static_cast<unsigned long long>(s.call));
  }
  return std::fclose(f) == 0;
}

CpuRotation::CpuRotation(std::int64_t slice_ns) : slice_ns_(slice_ns) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
  next_ns_ = wall_ns();
  tick();
}

CpuRotation::~CpuRotation() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus_) CPU_SET(c, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::advance() {
  // A scrambled CPU order rather than round robin: a workload whose op
  // cycle is near a multiple of the slice would otherwise meet every
  // repetition of an op on the same core.
  std::uint64_t z = (++at_) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 31)) * 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 29;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[z % cpus_.size()], &set);
  (void)sched_setaffinity(0, sizeof set, &set);
  next_ns_ = wall_ns() + slice_ns_;
}

unsigned city_shards() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1u, std::min(4u, hw));
}

}  // namespace hcmbench

// Counting replacements for the global allocation functions (exactly
// once per binary). Aligned overloads keep their default behaviour.
void* operator new(std::size_t n) { return hcmbench::counted_alloc(n); }
void* operator new[](std::size_t n) { return hcmbench::counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
