// city: testbed::City, 1,000 islands x 100 devices on a ShardedKernel
// with 4 shards (capped at the host's hardware threads). Devices report
// on the city's fixed virtual schedule and gateways make ring SOAP
// calls (an open loop in virtual time); a probe caller on the backbone
// adds a report call, the ring calls' shape, to a seeded gateway every
// virtual millisecond and times each one.
//
// The city's speed is timed on its critical path, in thread CPU time:
// per window, the slowest worker's CPU time plus the coordinator's. On
// idle cores that is the window's wall time less the barrier wake-ups;
// unlike wall time it leaves out the spans in which the host takes a
// virtual CPU away, which stall all four shards at the next barrier.
#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>

#include "gen.hpp"
#include "replay.hpp"
#include "sim/trace.hpp"
#include "testbed/city.hpp"
#include "workloads.hpp"

namespace hcmbench {

using namespace hcm;

namespace {

constexpr std::size_t kIslands = 1000;
constexpr std::size_t kDevices = 100;
constexpr int kSetups = 5;
constexpr sim::Duration kDetSpan = sim::seconds(2);  // fixed pass
// The city's traffic repeats every lcm(device 500 ms, ring 750 ms); a
// period holds 1,500 probe calls, enough for a p99 with ten beyond it.
constexpr sim::Duration kUnit = sim::milliseconds(1500);
constexpr sim::Duration kSlice = sim::milliseconds(15);  // divides kUnit
constexpr sim::Duration kProbePeriod = sim::milliseconds(1);
constexpr std::size_t kTargets = 4096;  // cycled
// The city's wire constants (testbed/city.cpp).
constexpr std::uint16_t kGatewayPort = 8080;
constexpr const char* kPath = "/vsg";
constexpr const char* kNs = "urn:hcm:city";

struct Probe {
  std::uint32_t target = 0;
  sim::SimTime due = 0;
  sim::SimTime done = 0;
  std::int64_t done_wall = 0;
  std::int64_t done_cpu = 0;  // the replying thread's CPU ns
  bool ok = false;
};

std::int64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// The kernel's state after a window barrier, as the window hook saw it.
struct Barrier {
  sim::SimTime floor = 0;
  std::int64_t wall = 0;    // ns
  std::int64_t path = 0;    // critical-path CPU ns since clocks were armed
  std::int64_t shard0 = 0;  // shard 0's thread CPU ns
};

struct City {
  City(std::uint64_t seed, unsigned shards,
       const std::vector<std::uint32_t>& targets)
      : kernel(sim::ShardedKernelOptions{shards}), targets_(targets) {
    const std::int64_t t0 = wall_ns();
    testbed::CityOptions o;
    o.islands = kIslands;
    o.devices_per_island = kDevices;
    o.seed = seed;
    options = o;
    city = std::make_unique<testbed::City>(kernel, o);
    kernel.run_as(0, [&] {
      net::Segment* backbone = nullptr;
      for (const auto& seg : city->net.segments()) {
        if (seg->name() == "backbone") backbone = seg.get();
      }
      auto& node = city->net.add_node("probe");
      if (backbone != nullptr) city->net.attach(node, *backbone);
      probe_node = node.id();
      client = std::make_unique<soap::SoapClient>(city->net, probe_node);
      this->backbone = backbone;
    });
    setup_s = static_cast<double>(wall_ns() - t0) / 1e9;
    // Gateway node ids by island index, from the node names.
    gateways.assign(kIslands, 0);
    for (net::NodeId id = 1; net::Node* n = city->net.node(id); ++id) {
      const std::string& name = n->name();
      if (name.rfind("gw-", 0) == 0) {
        const std::size_t idx = std::stoul(name.substr(3));
        if (idx < kIslands) gateways[idx] = id;
      }
    }
    ok = backbone != nullptr &&
         std::find(gateways.begin(), gateways.end(), 0) == gateways.end();
    kernel.set_window_hook([this](sim::SimTime floor) { on_barrier(floor); });
  }

  ~City() { kernel.set_window_hook(nullptr); }

  void start() {
    city->start();
    kernel.run_as(0, [&] {
      city->net.scheduler().after(kProbePeriod, [this] { fire_probe(); });
    });
  }

  // Runs on shard 0 (the probe node's shard).
  void fire_probe() {
    const std::size_t i = probes.size();
    const std::uint32_t target = targets_[i % targets_.size()];
    probes.push_back(Probe{target, city->net.scheduler().now(), 0, 0, false});
    client->call({gateways[target], kGatewayPort}, kPath, kNs, "report",
                 {{"island", Value(static_cast<std::int64_t>(i))}},
                 [this, i](Result<Value> r) {
                   Probe& p = probes[i];
                   p.done = city->net.scheduler().now();
                   p.done_wall = wall_ns();
                   if (timing) p.done_cpu = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
                   p.ok = r.is_ok() && r.value().is_int() &&
                          r.value().as_int() ==
                              static_cast<std::int64_t>(p.target);
                   ++completed;
                 });
    city->net.scheduler().after(kProbePeriod, [this] { fire_probe(); });
  }

  // Learns every worker thread's CPU clock from an event on its shard,
  // runs one traffic period as warm-up, then times windows from there.
  // False when a clock cannot be had.
  bool arm_cpu_clocks() {
    const sim::ShardId n = kernel.shards();
    worker_clocks.assign(n, clockid_t{});
    std::vector<char> got(n, 0);
    for (sim::ShardId s = 0; s < n; ++s) {
      kernel.inject(s, 0, [this, &got, s] {
        got[s] = pthread_getcpuclockid(pthread_self(), &worker_clocks[s]) == 0;
      });
    }
    kernel.run_for(kUnit);
    if (std::find(got.begin(), got.end(), 0) != got.end()) return false;
    worker_cpu.clear();
    for (clockid_t id : worker_clocks) worker_cpu.push_back(cpu_ns(id));
    windows.back().path = 0;
    windows.back().shard0 = worker_cpu[0];
    timing = true;
    rebase();
    return true;
  }

  // Drops the coordinator's CPU time since the last barrier from the
  // next window (the benchmark's own work between timed phases).
  void rebase() { coord_cpu = cpu_ns(CLOCK_THREAD_CPUTIME_ID); }

  // Runs on the coordinator after every barrier, workers parked.
  void on_barrier(sim::SimTime floor) {
    Barrier b{floor, wall_ns(), 0, 0};
    if (timing) {
      const std::int64_t coord = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
      std::int64_t slowest = 0;
      if (kernel.shards() > 1) {
        for (std::size_t s = 0; s < worker_clocks.size(); ++s) {
          const std::int64_t c = cpu_ns(worker_clocks[s]);
          slowest = std::max(slowest, c - worker_cpu[s]);
          worker_cpu[s] = c;
        }
      } else {
        worker_cpu[0] = coord;  // one shard runs on the coordinator
      }
      b.path = windows.back().path + slowest + (coord - coord_cpu);
      b.shard0 = worker_cpu[0];
      coord_cpu = coord;
    }
    windows.push_back(b);
  }

  // The barrier that opened the window in which an event at t ran
  // (a window (floor, end] runs every event due in it).
  const Barrier& barrier_before(sim::SimTime t) const {
    auto it = std::lower_bound(
        windows.begin(), windows.end(), t,
        [](const Barrier& b, sim::SimTime v) { return b.floor < v; });
    return it == windows.begin() ? *it : *std::prev(it);
  }

  sim::ShardedKernel kernel;
  testbed::CityOptions options;
  std::unique_ptr<testbed::City> city;
  net::Segment* backbone = nullptr;
  net::NodeId probe_node = 0;
  std::unique_ptr<soap::SoapClient> client;
  std::vector<net::NodeId> gateways;
  std::vector<Probe> probes;
  std::uint64_t completed = 0;
  std::vector<Barrier> windows;  // coordinator-written
  // Thread CPU clocks, read by the coordinator between windows.
  std::vector<clockid_t> worker_clocks;
  std::vector<std::int64_t> worker_cpu;
  std::int64_t coord_cpu = 0;
  bool timing = false;  // set between windows, read by shard 0
  double setup_s = 0;
  bool ok = false;

 private:
  const std::vector<std::uint32_t>& targets_;
};

// Bounds on the sends of `per_period` timers of period `period` by
// time t: every timer's first firing lies in (0, period], so each has
// fired floor(t / period) or floor(t / period) + 1 times.
std::uint64_t sends_at_least(std::uint64_t per_period, sim::Duration period,
                             sim::SimTime t) {
  return t <= 0 ? 0 : per_period * static_cast<std::uint64_t>(t / period);
}
std::uint64_t sends_at_most(std::uint64_t per_period, sim::Duration period,
                            sim::SimTime t) {
  return per_period * (static_cast<std::uint64_t>(t / period) + 1);
}

// A timed phase in whole traffic periods. The traffic repeats every
// period, so each slice of a period (its virtual time cut into equal
// buckets) and each probe position (its due time into the period)
// repeats once per period; the fast figures keep every slice's and
// every probe position's fastest repetition.
struct Phase {
  std::vector<double> wall_us;  // every probe call
  double fast_unit_s = 0;       // one period, from its slices' fastest
  std::size_t units = 0;
  std::vector<double> fast_us;  // probe positions' fastest, ascending
  std::size_t min_reps = 0;     // fewest repetitions of a probe position
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
  std::uint64_t events = 0;
  double wall_s = 0;
};

// Smallest value seen per position, and how many were seen.
using Fastest = std::unordered_map<sim::SimTime, std::pair<double, std::size_t>>;
void keep_min(Fastest& m, sim::SimTime pos, double v) {
  auto [it, fresh] = m.emplace(pos, std::make_pair(v, std::size_t{1}));
  if (!fresh) {
    it->second.first = std::min(it->second.first, v);
    ++it->second.second;
  }
}

struct DetPass {
  std::vector<double> virt_ms;
  std::uint64_t digest = kFnvSeed;
  std::vector<std::uint64_t> shard_digests;
  std::uint64_t backbone_bytes = 0;
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
  Heap heap;
};

std::uint64_t ring_ok(City& c) { return c.city->ring_calls_ok(); }

DetPass det_pass(City& c) {
  DetPass d;
  std::vector<std::unique_ptr<sim::TraceRecorder>> rec;
  for (sim::ShardId s = 0; s < c.kernel.shards(); ++s) {
    rec.push_back(std::make_unique<sim::TraceRecorder>(c.kernel.shard(s)));
  }
  const Heap h0 = heap_now();
  c.start();
  c.kernel.run_until(kDetSpan);
  d.heap = heap_now() - h0;
  for (const auto& r : rec) {
    d.shard_digests.push_back(r->digest());
    d.digest = fnv_mix(d.digest, r->digest());
  }
  rec.clear();
  d.backbone_bytes = c.backbone->bytes_carried();
  for (const Probe& p : c.probes) {
    if (p.done == 0) continue;
    d.virt_ms.push_back(static_cast<double>(p.done - p.due) / 1e3);
    if (!p.ok) ++d.failed;
  }
  d.calls = c.completed + ring_ok(c);
  d.digest = fnv_mix(d.digest, d.backbone_bytes);
  return d;
}

ReplayMsg replay_msg(std::uint32_t target, std::size_t i) {
  return ReplayMsg{kPath, kNs, "report",
                   {{"island", Value(static_cast<std::int64_t>(i))}},
                   Value(static_cast<std::int64_t>(target))};
}

}  // namespace

Outcome run_city(const RunConfig& cfg) {
  Outcome out;
  const unsigned shards = city_shards();
  const std::vector<std::uint32_t> targets =
      make_city_targets(cfg.seed, kIslands, kTargets);

  std::vector<double> setup_s;
  std::unique_ptr<City> c;
  std::optional<DetPass> det_a;
  DetPass det;
  for (int k = 0; k < kSetups; ++k) {
    c.reset();
    c = std::make_unique<City>(cfg.seed, shards, targets);
    setup_s.push_back(c->setup_s);
    if (!c->ok) {
      out.fail("city topology incomplete");
      return out;
    }
    if (k >= kSetups - 2) {
      det = det_pass(*c);
      if (!det_a) det_a = det;
    }
  }
  out.attempted += det_a->virt_ms.size() + det.virt_ms.size();
  out.failed += det_a->failed + det.failed;
  if (det_a->digest != det.digest) {
    out.fail("deterministic columns (per-shard trace digests) differ "
             "between two same-seed passes");
  }
  std::printf("deterministic pass: %.0f virtual s, %zu probe calls, digest "
              "%016llx (repeat %s), shard digests",
              static_cast<double>(kDetSpan) / 1e6, det.virt_ms.size(),
              static_cast<unsigned long long>(det.digest),
              det_a->digest == det.digest ? "identical" : "DIFFERS");
  for (std::uint64_t s : det.shard_digests) {
    std::printf(" %016llx", static_cast<unsigned long long>(s));
  }
  const double det_calls = static_cast<double>(det.calls);
  std::printf(", allocs/call %.3f vs %.3f\n",
              static_cast<double>(det_a->heap.allocs) / det_calls,
              static_cast<double>(det.heap.allocs) / det_calls);

  // The program's peak, before the timed phase's own per-call sample
  // storage grows the process.
  const double rss_mb = peak_rss_mb();
  // Timed phase on the last build: whole traffic periods (kUnit of
  // virtual time, every device and ring timer firing the same number of
  // times in each) until the wall budget is spent.
  City& city = *c;
  if (!city.arm_cpu_clocks()) {
    out.fail("cannot read the kernel workers' CPU clocks");
    return out;
  }
  const auto run_phase = [&](double seconds) {
    static const std::uint32_t kUnitSpan = tracer().intern("sim.run_period");
    Phase r;
    const std::uint64_t ev0 = city.kernel.events_processed();
    const std::uint64_t calls0 = city.completed + ring_ok(city);
    const std::size_t probe0 = city.probes.size();
    const std::size_t window0 = city.windows.size();
    city.rebase();
    const std::int64_t t0 = wall_ns();
    const auto deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
    while (r.units == 0 || wall_ns() < deadline) {
      SpanScope s(kUnitSpan, static_cast<std::uint64_t>(city.kernel.now()));
      city.kernel.run_for(kUnit);
      ++r.units;
    }
    r.wall_s = static_cast<double>(wall_ns() - t0) / 1e9;
    r.events = city.kernel.events_processed() - ev0;
    r.calls = city.completed + ring_ok(city) - calls0;
    // A window's critical path runs from the previous barrier to its
    // own and covers the virtual time since the previous floor. Windows
    // do not line up with the period, so each slice takes the windows
    // that end in it and its time is their critical-path seconds per
    // virtual second.
    Fastest best;
    sim::SimTime slice = -1;
    double path_s = 0, virt_s = 0;
    const auto flush = [&] {
      if (virt_s > 0) keep_min(best, slice % (kUnit / kSlice), path_s / virt_s);
      path_s = virt_s = 0;
    };
    for (std::size_t j = window0; j < city.windows.size(); ++j) {
      const Barrier& b = city.windows[j];
      const Barrier& prev = city.windows[j - 1];
      if ((b.floor - 1) / kSlice != slice) {
        flush();
        slice = (b.floor - 1) / kSlice;
      }
      path_s += static_cast<double>(b.path - prev.path) / 1e9;
      virt_s += static_cast<double>(b.floor - prev.floor) / 1e6;
    }
    flush();
    for (const auto& [pos, b] : best) r.fast_unit_s += b.first;
    // Mean over the slices seen (every one, unless windows outgrow them).
    r.fast_unit_s *= static_cast<double>(kUnit) / 1e6 /
                     static_cast<double>(std::max<std::size_t>(1, best.size()));
    // Probe latency from the start of the window it was due in, in wall
    // time and on the critical path (up to the reply on shard 0).
    best.clear();
    for (std::size_t i = probe0; i < city.probes.size(); ++i) {
      const Probe& p = city.probes[i];
      if (p.done == 0) continue;  // still in flight at the phase end
      const Barrier& due = city.barrier_before(p.due);
      const Barrier& done = city.barrier_before(p.done);
      r.wall_us.push_back(static_cast<double>(p.done_wall - due.wall) / 1e3);
      if (!p.ok) ++r.failed;
      keep_min(best, p.due % kUnit,
               static_cast<double>(done.path + (p.done_cpu - done.shard0) -
                                   due.path) /
                   1e3);
    }
    r.min_reps = best.empty() ? 0 : SIZE_MAX;
    for (const auto& [pos, b] : best) {
      r.fast_us.push_back(b.first);
      r.min_reps = std::min(r.min_reps, b.second);
    }
    std::sort(r.fast_us.begin(), r.fast_us.end());
    return r;
  };

  const std::uint64_t frames0 = city.backbone->frames_carried();
  const std::uint64_t windows0 = city.kernel.windows_run();
  const std::uint64_t posts0 = city.kernel.cross_shard_posts();
  const std::vector<std::uint64_t> busy0 = city.kernel.busy_ns();
  const double untraced_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const Phase loop = run_phase(untraced_s);
  const std::vector<std::uint64_t> busy1 = city.kernel.busy_ns();
  const std::uint64_t windows1 = city.kernel.windows_run();
  const std::uint64_t posts1 = city.kernel.cross_shard_posts();
  const std::uint64_t frames1 = city.backbone->frames_carried();
  out.attempted += loop.wall_us.size();
  out.failed += loop.failed;

  // City-wide counts must match what the options imply: sends at least
  // `margin` old must have landed, and none can exceed the schedule.
  const sim::SimTime now = city.kernel.now();
  const std::uint64_t reports = city.city->reports_received();
  const std::uint64_t ring = ring_ok(city);
  const sim::Duration margin = sim::seconds(1);
  const testbed::CityOptions& o = city.options;
  const std::uint64_t devices = o.islands * o.devices_per_island;
  if (reports < sends_at_least(devices, o.device_period, now - margin) ||
      reports > sends_at_most(devices, o.device_period, now)) {
    out.fail("device reports " + std::to_string(reports) +
             " outside the schedule's bounds");
  }
  if (ring < sends_at_least(o.islands, o.ring_period, now - margin) ||
      ring > sends_at_most(o.islands, o.ring_period, now)) {
    out.fail("ring calls ok " + std::to_string(ring) +
             " outside the schedule's bounds");
  }

  // Figures on the critical path, from every position's fastest
  // repetition (best of n, as the call workloads take each generated
  // call's fastest time): a period's time is the sum of its slices'
  // fastest, call latencies are quantiles over the probe positions'
  // fastest. Calls are probe and ring SOAP calls.
  const double units = static_cast<double>(loop.units);
  const double fast_s = loop.fast_unit_s;
  const std::string basis =
      "fastest of " + std::to_string(loop.units) + " repetitions of each " +
      std::to_string(kSlice / 1000) + " virtual ms slice of the " +
      std::to_string(kUnit / 1000) +
      " virtual ms traffic period, critical-path CPU time";
  const std::string call_basis =
      std::to_string(loop.fast_us.size()) +
      " probe positions, each the fastest of >= " +
      std::to_string(loop.min_reps) + " repetitions, critical-path CPU time";
  const Tail tail = tail_quantile(loop.fast_us, 0.99);
  out.e2e("calls_per_s", static_cast<double>(loop.calls) / units / fast_s,
          "1/s", basis + ", probe + ring calls");
  out.e2e("call_us_p50", quantile_sorted(loop.fast_us, 0.5), "us",
          call_basis + ", from the start of the window each was due in");
  out.e2e("call_us_p99", tail.value, "us",
          call_basis + ", q=" + std::to_string(tail.q) +
              "; over the positions' fastest times, not a tail of every call");
  out.e2e("sim_speed", static_cast<double>(kUnit) / 1e6 / fast_s, "s/s",
          basis);
  out.e2e("events_per_s", static_cast<double>(loop.events) / units / fast_s,
          "1/s", basis);
  report_all_calls(out, loop.wall_us,
                   static_cast<double>(loop.calls) / loop.wall_s);
  report_virtual(out, det.virt_ms);
  out.e2e("allocs_per_call",
          static_cast<double>(det.heap.allocs) / det_calls, "count",
          "deterministic pass, all heap traffic per completed SOAP call");
  out.e2e("heap_bytes_per_call",
          static_cast<double>(det.heap.bytes) / det_calls, "B",
          "deterministic pass");
  out.e2e("backbone_bytes_per_call",
          static_cast<double>(det.backbone_bytes) / det_calls, "B",
          "deterministic pass");
  out.e2e("setup_s", median(setup_s), "s",
          "median of " + std::to_string(kSetups) + " builds");

  if (cfg.trace) {
    tracer().enable(true);
    const Phase traced = run_phase(cfg.seconds / 2);
    tracer().enable(false);
    out.attempted += traced.wall_us.size();
    out.failed += traced.failed;
    report_overhead(out, loop.wall_us, traced.wall_us);

    StageReplay replay;
    std::string err;
    for (int pass = 0; pass < 2; ++pass) {
      tracer().enable(pass == 1);
      for (std::size_t i = 0; i < 2000 && err.empty(); ++i) {
        if (!replay.replay(replay_msg(targets[i], i), 1'000'000 + i,
                           &err)) {
          out.fail(err);
        }
      }
    }
    tracer().enable(false);
    replay.report(out, out.e2e_value("call_us_p50"));

    const double calls = static_cast<double>(loop.calls);
    std::uint64_t sum_busy = 0, max_busy = 0;
    double max_wait = 0;
    for (std::size_t s = 0; s < busy1.size(); ++s) {
      const std::uint64_t b = busy1[s] - busy0[s];
      sum_busy += b;
      max_busy = std::max(max_busy, b);
      max_wait = std::max(max_wait,
                          1.0 - static_cast<double>(b) / (loop.wall_s * 1e9));
    }
    const std::uint64_t windows = windows1 - windows0;
    out.layer("sim.windows", static_cast<double>(windows), "count");
    out.layer("sim.events_per_window",
              windows == 0 ? 0
                           : static_cast<double>(loop.events) /
                                 static_cast<double>(windows),
              "count");
    out.layer("sim.cross_shard_posts", static_cast<double>(posts1 - posts0),
              "count");
    out.layer("sim.clamped_deliveries",
              static_cast<double>(city.kernel.clamped_deliveries()), "count",
              "must be 0");
    out.layer("sim.load_balance",
              max_busy == 0 ? 0
                            : static_cast<double>(sum_busy) /
                                  static_cast<double>(max_busy),
              "ratio", "sum(busy)/max(busy) over " +
                           std::to_string(busy1.size()) + " shards");
    out.layer("sim.barrier_wait_share", max_wait, "ratio",
              "max over shards of 1 - busy/wall");
    out.layer("sim.events_per_call", static_cast<double>(loop.events) / calls,
              "count");
    out.layer("sim.ns_per_event",
              loop.wall_s * 1e9 / static_cast<double>(loop.events), "ns",
              "wall ns per event across all shards");
    out.layer("net.backbone_frames_per_call",
              static_cast<double>(frames1 - frames0) / calls, "count");
    out.layer("testbed.reports", static_cast<double>(reports), "count",
              "checked against the device schedule");
    out.layer("testbed.ring_calls_ok", static_cast<double>(ring), "count",
              "checked against the ring schedule");
    write_spans(out, cfg, shards);
  }
  out.e2e("peak_rss_mb", rss_mb, "MB",
          "VmHWM after set-up and the deterministic passes");
  if (city.kernel.clamped_deliveries() != 0) {
    out.fail("sim.clamped_deliveries = " +
             std::to_string(city.kernel.clamped_deliveries()));
  }
  return out;
}

}  // namespace hcmbench
