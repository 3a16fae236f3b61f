// The four hcmbench workloads and the pieces they share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/vsg.hpp"
#include "harness.hpp"
#include "sim/sharded_kernel.hpp"

namespace hcmbench {

Outcome run_rpc(const RunConfig& cfg, hcm::core::VsgProtocol protocol);
Outcome run_home(const RunConfig& cfg);
Outcome run_city(const RunConfig& cfg);

// Benchmark self-tests (--selftest); returns the number of failures.
int run_selftest();

// Checks the bytes a live SOAP VSG call puts on the wire against the
// stage replay's bytes for the first call of each method in `in`;
// returns "" when all match, else the first difference. Defined with
// the rpc workload, which owns that topology.
struct RpcInputs;
std::string check_live_wire(const RpcInputs& in);

// Wall-clock figures. Interference from other work on a shared host
// only ever slows work down, and on a 4-vCPU shared VM it moved whole
// runs: over ten seeds, completed calls per wall second spread (IQR /
// median) 0.32 on home and the city's median call 0.27, past the 0.25
// bound. Every timed phase therefore repeats a fixed set of identical
// work units (each generated call many times over; the city's traffic
// slices, timed on the critical path, wl_city.cpp), and a unit's time
// is its fastest repetition, best of n as timeit reports it. The
// figures over every call are reported beside them (report_all_calls).
constexpr double kFastQuantile = 0.0;
// Single-threaded timed phases hop to another CPU every 50 ms
// (CpuRotation).
constexpr std::int64_t kRotateNs = 50'000'000;

// One closed-loop phase with one caller: call i replays generated op
// i % pool. `call(i)` issues it and runs the kernel until it completes,
// returning false for a failed or wrong reply.
struct LoopResult {
  std::vector<double> wall_us;    // per call
  std::vector<std::uint32_t> op;  // per call, index into the op pool
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
  double wall_s = 0;
  Heap heap;
  std::uint64_t events = 0;
  double virt_s = 0;
};

template <typename CallFn>
LoopResult closed_loop(hcm::sim::ShardedKernel& kernel, double seconds,
                       std::size_t first_call, std::size_t pool,
                       CallFn&& call) {
  LoopResult r;
  r.wall_us.reserve(1 << 16);
  r.op.reserve(1 << 16);
  const std::uint64_t ev0 = kernel.events_processed();
  const hcm::sim::SimTime v0 = kernel.shard(0).now();
  const Heap h0 = heap_now();
  const std::int64_t t0 = wall_ns();
  const auto deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  CpuRotation rotation(kRotateNs);
  std::int64_t t = t0;
  for (std::size_t i = first_call; t < deadline; ++i) {
    rotation.tick();
    const bool ok = call(i);
    const std::int64_t t1 = wall_ns();
    r.wall_us.push_back(static_cast<double>(t1 - t) / 1e3);
    r.op.push_back(static_cast<std::uint32_t>(i % pool));
    t = t1;
    ++r.calls;
    if (!ok) ++r.failed;
  }
  r.wall_s = static_cast<double>(t - t0) / 1e9;
  r.heap = heap_now() - h0;
  r.events = kernel.events_processed() - ev0;
  r.virt_s = static_cast<double>(kernel.shard(0).now() - v0) / 1e6;
  return r;
}

// End-to-end wall metrics of a closed-loop phase: calls_per_s,
// call_us_p50/p99, sim_speed and events_per_s, all from each op's
// fastest repetition. The same figures over every call of the phase go
// to the report and to the per-layer bench.all_calls_* metrics.
void report_loop(Outcome& out, const LoopResult& r);
// The figures over every call of a timed phase: printed, and the
// per-layer bench.all_calls_per_s / bench.all_call_us_p50 / _p99.
void report_all_calls(Outcome& out, std::vector<double> wall_us,
                      double calls_per_s);

// Virtual-latency percentiles of a deterministic pass: printed, and the
// per-layer virtual_ms_p50 / virtual_ms_p99.
void report_virtual(Outcome& out, std::vector<double> virt_ms);

// The per-layer tracing overhead: traced vs untraced call_us_p50.
void report_overhead(Outcome& out, const std::vector<double>& untraced_us,
                     const std::vector<double>& traced_us);

// Writes the spans of this run under cfg.out_dir; records the path.
void write_spans(Outcome& out, const RunConfig& cfg, unsigned shards);

// Run metadata as one JSON object (host, build, workload, seed).
std::string metadata_json(const RunConfig& cfg, unsigned shards);

}  // namespace hcmbench
