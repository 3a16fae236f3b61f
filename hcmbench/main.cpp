// hcmbench: the framework benchmark program.
//
//   hcmbench --workload <rpc-soap|rpc-binary|home|city> --seed <n>
//            --seconds <s> --trace <0|1> [--out-dir <dir>]
//   hcmbench --selftest
//
// Prints a human-readable report, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits
// non-zero when any reply was wrong or a correctness check failed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace hcmbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric set of BENCHMARK.json; run.py checks the final line
// against that file, so the two cannot drift apart silently.
constexpr MetricDef kEndToEnd[] = {
    {"calls_per_s", "1/s"},       {"call_us_p50", "us"},
    {"call_us_p99", "us"},        {"allocs_per_call", "count"},
    {"heap_bytes_per_call", "B"}, {"backbone_bytes_per_call", "B"},
    {"setup_s", "s"},             {"peak_rss_mb", "MB"},
    {"sim_speed", "s/s"},         {"events_per_s", "1/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"soap.encode_ns", "ns"},
    {"soap.decode_ns", "ns"},
    {"soap.encode_allocs", "count"},
    {"soap.decode_allocs", "count"},
    {"http.serialize_ns", "ns"},
    {"http.parse_ns", "ns"},
    {"http.parse_allocs", "count"},
    {"core.stage_sum_ratio", "ratio"},
    {"common.pool_hit_rate", "ratio"},
    {"common.pool_heap_fallbacks", "count"},
    {"common.value_encode_ns", "ns"},
    {"common.value_decode_ns", "ns"},
    {"net.send_ns", "ns"},
    {"net.backbone_frames_per_call", "count"},
    {"sim.events_per_call", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.windows", "count"},
    {"sim.events_per_window", "count"},
    {"sim.cross_shard_posts", "count"},
    {"sim.clamped_deliveries", "count"},
    {"sim.load_balance", "ratio"},
    {"sim.barrier_wait_share", "ratio"},
    {"core.vsg_leg_ns", "ns"},
    {"core.pcm_ns", "ns"},
    {"core.refresh_ns", "ns"},
    {"core.refresh_backbone_bytes", "B"},
    {"core.wsdl_generations", "count"},
    {"core.renew_fallbacks", "count"},
    {"core.events_delivered", "count"},
    {"core.events_dropped", "count"},
    {"core.event_delivery_ratio", "ratio"},
    {"core.event_retries", "count"},
    {"core.discovery_virtual_ms", "ms"},
    {"core.event_virtual_ms_p50", "ms"},
    {"jini.native_call_ns", "ns"},
    {"havi.native_call_ns", "ns"},
    {"x10.native_call_ns", "ns"},
    {"x10.serial_retries", "count"},
    {"x10.powerline_collisions", "count"},
    {"testbed.reports", "count"},
    {"testbed.ring_calls_ok", "count"},
    {"bench.trace_overhead", "ratio"},
    {"bench.all_calls_per_s", "1/s"},
    {"bench.all_call_us_p50", "us"},
    {"bench.all_call_us_p99", "us"},
    {"virtual_ms_p50", "ms"},
    {"virtual_ms_p99", "ms"},
};

struct WorkloadDef {
  const char* name;
  const char* why;
};

constexpr WorkloadDef kWorkloads[] = {
    {"rpc-soap",
     "VSG pair over SOAP: soap, xml, http, net and the block pool do the "
     "work; bulk payloads cross 16 KB block seams"},
    {"rpc-binary",
     "same calls over the binary protocol: bypasses soap/xml/http, shares "
     "core, net and sim"},
    {"home",
     "Fig. 3 home: pcm, proxies, adapters, event router and VSR delta sync "
     "under cross-island calls and churn"},
    {"city",
     "1,000 islands x 100 devices on the sharded kernel: windows, barriers, "
     "cross-shard channels and datagrams"},
};

const Metric* find(const std::vector<Metric>& v, const std::string& name) {
  for (const Metric& m : v) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void print_metric(const Metric& m) {
  std::printf("  %-30s %16.6g %-6s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.note.c_str());
}

// Shortest round-trip representation, so no digits are lost.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Six significant digits, for the human-readable notes.
std::string short_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: hcmbench --workload <rpc-soap|rpc-binary|home|city> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n"
               "       hcmbench --selftest\n");
  return 2;
}

}  // namespace

// --- reporting helpers shared by the workloads ---------------------------------
void report_loop(Outcome& out, const LoopResult& r) {
  std::vector<std::vector<double>> per_op;
  for (std::size_t i = 0; i < r.wall_us.size(); ++i) {
    if (r.op[i] >= per_op.size()) per_op.resize(r.op[i] + 1);
    per_op[r.op[i]].push_back(r.wall_us[i]);
  }
  std::vector<double> fast;
  std::size_t min_reps = SIZE_MAX;
  for (const auto& reps : per_op) {
    if (reps.empty()) continue;
    fast.push_back(quantile(reps, kFastQuantile));
    min_reps = std::min(min_reps, reps.size());
  }
  double sum = 0;
  for (double f : fast) sum += f;
  const double mean_us = fast.empty() ? 0 : sum / static_cast<double>(fast.size());
  std::sort(fast.begin(), fast.end());
  const Tail tail = tail_quantile(fast, 0.99);
  const std::string basis =
      std::to_string(fast.size()) + " generated calls, each the fastest "
      "of >= " + std::to_string(min_reps) + " repetitions";
  const double calls = static_cast<double>(std::max<std::uint64_t>(1, r.calls));
  const double per_s = mean_us > 0 ? 1e6 / mean_us : 0;
  out.e2e("calls_per_s", per_s, "1/s", "1 / mean over " + basis);
  out.e2e("call_us_p50", quantile_sorted(fast, 0.5), "us", basis);
  out.e2e("call_us_p99", tail.value, "us",
          basis + ", q=" + short_number(tail.q) +
              "; over the calls' fastest times, not a tail of every call");
  out.e2e("sim_speed", r.virt_s / calls * per_s, "s/s",
          "virtual s per wall s at that speed");
  out.e2e("events_per_s", static_cast<double>(r.events) / calls * per_s,
          "1/s", "kernel events per wall s at that speed");
  report_all_calls(out, r.wall_us, static_cast<double>(r.calls) / r.wall_s);
}

void report_all_calls(Outcome& out, std::vector<double> wall_us,
                      double calls_per_s) {
  std::sort(wall_us.begin(), wall_us.end());
  const Tail tail = tail_quantile(wall_us, 0.99);
  const std::string n = "every call, n=" + std::to_string(wall_us.size());
  std::printf("every call of the timed phase: %.6g calls/s, p50 %.6g us, "
              "p%g %.6g us (n=%zu)\n",
              calls_per_s, quantile_sorted(wall_us, 0.5), tail.q * 100,
              tail.value, wall_us.size());
  out.layer("bench.all_calls_per_s", calls_per_s, "1/s",
            "completed calls per wall s of the untraced phase");
  out.layer("bench.all_call_us_p50", quantile_sorted(wall_us, 0.5), "us", n);
  out.layer("bench.all_call_us_p99", tail.value, "us",
            n + ", q=" + short_number(tail.q));
}

void report_virtual(Outcome& out, std::vector<double> virt_ms) {
  std::sort(virt_ms.begin(), virt_ms.end());
  const Tail tail = tail_quantile(virt_ms, 0.99);
  const double p50 = quantile_sorted(virt_ms, 0.5);
  const std::string n =
      "n=" + std::to_string(virt_ms.size()) + ", deterministic pass";
  std::printf("virtual latency (%s): p50 %.6g ms, p%g %.6g ms\n", n.c_str(),
              p50, tail.q * 100, tail.value);
  out.layer("virtual_ms_p50", p50, "ms", n);
  out.layer("virtual_ms_p99", tail.value, "ms",
            n + ", q=" + short_number(tail.q));
}

void report_overhead(Outcome& out, const std::vector<double>& untraced_us,
                     const std::vector<double>& traced_us) {
  const double a = median(untraced_us);
  const double b = median(traced_us);
  out.layer("bench.trace_overhead", a > 0 ? b / a - 1 : 0, "ratio",
            "traced/untraced call_us_p50 - 1 (" + short_number(b) + " vs " +
                short_number(a) + " us)");
}

std::string metadata_json(const RunConfig& cfg, unsigned shards) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %u, \"shards\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\"}",
      cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
      cfg.seconds, cfg.trace ? 1 : 0, std::thread::hardware_concurrency(),
      shards, HCMBENCH_COMPILER, HCMBENCH_BUILD_TYPE);
  return buf;
}

void write_spans(Outcome& out, const RunConfig& cfg, unsigned shards) {
  // One file per workload, overwritten by its next traced run; capped
  // per span name so a fast workload's millions of call spans stay a
  // sample of a few MB.
  constexpr std::size_t kWrittenPerName = 20'000;
  if (cfg.out_dir.empty()) return;
  const std::string path = cfg.out_dir + "/spans-" + cfg.workload + ".jsonl";
  if (tracer().write(path, metadata_json(cfg, shards), kWrittenPerName)) {
    out.spans_path = path;
  }
}

int main_impl(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return run_selftest() == 0 ? 0 : 1;
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      cfg.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      cfg.trace = v == "1";
    } else if (a == "--out-dir") {
      cfg.out_dir = v;
    } else {
      return usage();
    }
  }
  const WorkloadDef* wl = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (cfg.workload == w.name) wl = &w;
  }
  if (!have_workload || wl == nullptr || cfg.seconds <= 0) return usage();

  const unsigned shards = cfg.workload == "city" ? city_shards() : 1;
  std::printf("hcmbench %s\n", metadata_json(cfg, shards).c_str());
  std::printf("why: %s\n", wl->why);
  std::fflush(stdout);

  Outcome out;
  if (cfg.workload == "rpc-soap") {
    out = run_rpc(cfg, hcm::core::VsgProtocol::kSoap);
  } else if (cfg.workload == "rpc-binary") {
    out = run_rpc(cfg, hcm::core::VsgProtocol::kBinary);
  } else if (cfg.workload == "home") {
    out = run_home(cfg);
  } else {
    out = run_city(cfg);
  }

  // Every metric of the fixed sets is reported; a per-layer metric of a
  // layer this workload does not reach reads 0.
  for (const MetricDef& d : kEndToEnd) {
    if (find(out.end_to_end, d.name) == nullptr) {
      out.fail(std::string("end-to-end metric missing: ") + d.name);
    }
  }
  std::vector<Metric> layer;
  if (cfg.trace) {
    for (const MetricDef& d : kPerLayer) {
      const Metric* m = find(out.per_layer, d.name);
      layer.push_back(m != nullptr ? *m
                                   : Metric{d.name, 0, d.unit,
                                            "layer not on this workload's path"});
    }
  }

  const double failed_frac =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
  if (out.attempted == 0) out.fail("no calls attempted");
  if (out.failed > 0) {
    out.fail(std::to_string(out.failed) + " failed or wrong replies");
  }

  std::printf("\nend-to-end (%s run):\n", cfg.trace ? "untraced half of the"
                                                     : "untraced");
  for (const Metric& m : out.end_to_end) print_metric(m);
  print_metric({"failed_frac", failed_frac, "ratio",
                std::to_string(out.failed) + " of " +
                    std::to_string(out.attempted) + " attempted"});
  if (cfg.trace) {
    std::printf("\nper-layer (traced run):\n");
    for (const Metric& m : layer) print_metric(m);
    if (!out.spans_path.empty()) {
      std::printf("  spans: %s (%zu recorded, %zu dropped, at most 20000 "
                  "per name written)\n",
                  out.spans_path.c_str(), tracer().spans().size(),
                  tracer().dropped());
    }
  }
  for (const std::string& p : out.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }

  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  const std::vector<Metric>& emit = cfg.trace ? layer : out.end_to_end;
  bool first = true;
  for (const Metric& m : emit) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return out.correct ? 0 : 1;
}

}  // namespace hcmbench

int main(int argc, char** argv) { return hcmbench::main_impl(argc, argv); }
