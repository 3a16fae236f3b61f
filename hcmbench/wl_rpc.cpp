// rpc-soap / rpc-binary: one caller VSG and one callee VSG on a 200 us
// 100 Mbit/s Ethernet backbone, a closed loop with one caller over the
// seeded control / status-map / bulk mix.
#include <algorithm>
#include <memory>
#include <optional>

#include "common/block_pool.hpp"
#include "core/naming.hpp"
#include "gen.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace hcmbench {

using namespace hcm;

namespace {

constexpr std::size_t kDecks = 40;        // 4,000 generated calls
constexpr int kSetups = 31;               // topology builds per run
constexpr std::size_t kProbeCalls = 2000; // no-op VSG legs (traced run)
constexpr std::uint16_t kPort = 8080;

InterfaceDesc noop_interface() {
  return InterfaceDesc{"Probe",
                       {MethodDesc{"ping", {}, ValueType::kBool, false}}};
}

struct Topology {
  Topology(core::VsgProtocol protocol, const RpcInputs& in,
           std::uint64_t seed, bool with_tap = false)
      : kernel(sim::ShardedKernelOptions{1}),
        net(kernel.shard(0)),
        services(in.services),
        model(in.lamps_on) {
    net.set_kernel(&kernel);
    kernel.seed(seed);
    backbone =
        &net.add_ethernet("backbone", sim::microseconds(200), 100'000'000);
    auto& a = net.add_node("callee-gw");
    auto& b = net.add_node("caller-gw");
    net.attach(a, *backbone);
    net.attach(b, *backbone);
    callee = std::make_unique<core::VirtualServiceGateway>(
        net, a.id(), "callee", kPort, protocol);
    caller = std::make_unique<core::VirtualServiceGateway>(
        net, b.id(), "caller", kPort, protocol);
    ok = callee->start().is_ok() && caller->start().is_ok();
    for (std::size_t s = 0; s < services.size(); ++s) {
      auto uri = callee->expose(
          services[s].name, services[s].iface,
          [this, s](const std::string& method, const ValueList& args,
                    InvokeResultFn done) {
            done(model.reply(static_cast<int>(s), method, args));
          });
      ok = ok && uri.is_ok();
      uris.push_back(uri.is_ok() ? uri.value() : Uri{});
    }
    auto noop = callee->expose(
        "noop-1", noop_interface(),
        [](const std::string&, const ValueList&, InvokeResultFn done) {
          done(Value(true));
        });
    ok = ok && noop.is_ok();
    if (noop.is_ok()) noop_uri = noop.value();
    if (with_tap) {
      auto& t = net.add_node("tap");
      net.attach(t, *backbone);
      tap = std::make_unique<WireTap>(net, t.id(), kPort,
                                      net::Endpoint{a.id(), kPort});
      tap_endpoint = {t.id(), kPort};
    }
  }

  // Issues one call and runs the kernel until its reply; virtual
  // latency in `virt_us`.
  bool call(const RpcOp& op, std::int64_t* virt_us = nullptr,
            const Uri* via = nullptr) {
    std::optional<bool> good;
    const sim::SimTime t0 = kernel.shard(0).now();
    const auto s = static_cast<std::size_t>(op.service);
    caller->call_remote(via != nullptr ? *via : uris[s], services[s].name,
                        services[s].iface, op.method, op.args,
                        [&](Result<Value> r) {
                          good = r.is_ok() && r.value() == op.expect;
                        });
    kernel.run_until_done([&] { return good.has_value(); });
    if (virt_us != nullptr) *virt_us = kernel.shard(0).now() - t0;
    return good.value_or(false);
  }

  bool noop_call() {
    std::optional<bool> good;
    caller->call_remote(noop_uri, "noop-1", noop_iface, "ping", {},
                        [&](Result<Value> r) { good = r.is_ok(); });
    kernel.run_until_done([&] { return good.has_value(); });
    return good.value_or(false);
  }

  sim::ShardedKernel kernel;
  net::Network net;
  net::EthernetSegment* backbone = nullptr;
  std::unique_ptr<core::VirtualServiceGateway> callee, caller;
  std::vector<RpcService> services;
  RpcCallee model;  // the callee's state, shared by its exposures
  std::vector<Uri> uris;
  InterfaceDesc noop_iface = noop_interface();
  Uri noop_uri;
  std::unique_ptr<WireTap> tap;
  net::Endpoint tap_endpoint{};
  bool ok = false;
};

ReplayMsg replay_msg(const RpcInputs& in, const RpcOp& op) {
  ReplayMsg m;
  const RpcService& svc = in.services[static_cast<std::size_t>(op.service)];
  m.path = "/vsg/" + svc.name;
  m.ns = "urn:hcm:" + svc.iface.name;
  m.method = op.method;
  const MethodDesc* desc = svc.iface.find_method(op.method);
  for (std::size_t i = 0; i < op.args.size(); ++i) {
    m.params.emplace_back(desc->params[i].name, op.args[i]);
  }
  m.result = op.expect;
  return m;
}

// Deterministic pass: every generated call once, in order, on a fresh
// topology. Its virtual latencies, backbone traffic and heap traffic
// repeat exactly for one seed.
struct DetPass {
  std::vector<double> virt_ms;
  std::uint64_t digest = kFnvSeed;
  std::uint64_t backbone_bytes = 0;
  std::uint64_t backbone_frames = 0;
  Heap heap;
  std::uint64_t failed = 0;
};

DetPass det_pass(Topology& t, const std::vector<RpcOp>& ops) {
  DetPass d;
  const std::uint64_t b0 = t.backbone->bytes_carried();
  const std::uint64_t f0 = t.backbone->frames_carried();
  const Heap h0 = heap_now();
  for (const RpcOp& op : ops) {
    std::int64_t virt = 0;
    if (!t.call(op, &virt)) ++d.failed;
    d.virt_ms.push_back(static_cast<double>(virt) / 1e3);
    d.digest = fnv_mix(d.digest, static_cast<std::uint64_t>(virt));
  }
  d.heap = heap_now() - h0;
  d.backbone_bytes = t.backbone->bytes_carried() - b0;
  d.backbone_frames = t.backbone->frames_carried() - f0;
  d.digest = fnv_mix(d.digest, d.backbone_bytes);
  d.digest = fnv_mix(d.digest, d.backbone_frames);
  return d;
}

bool changes_state(const RpcOp& op) {
  return op.method == "turnOn" || op.method == "turnOff";
}

void warm(Topology& t, const std::vector<RpcOp>& ops) {
  // One call per service opens the keep-alive connections; only calls
  // that leave the lamps as they are, so the op list's expectations
  // still hold.
  for (std::size_t s = 0; s < t.services.size(); ++s) {
    for (const RpcOp& op : ops) {
      if (static_cast<std::size_t>(op.service) == s && !changes_state(op)) {
        (void)t.call(op);
        break;
      }
    }
  }
  (void)t.noop_call();
}

}  // namespace

std::string check_live_wire(const RpcInputs& in) {
  Topology t(core::VsgProtocol::kSoap, in, 1, /*with_tap=*/true);
  if (!t.ok) return "live wire: topology failed to start";
  // Every op in order through the tap (the lamps' state carries from
  // call to call); the first call of each method is compared.
  std::vector<std::string> seen;
  for (const RpcOp& op : in.ops) {
    Uri via = t.uris[static_cast<std::size_t>(op.service)];
    via.host = "tap";
    (void)t.tap->take_request();
    (void)t.tap->take_response();
    if (!t.call(op, nullptr, &via)) return "live wire: call via tap failed";
    if (std::find(seen.begin(), seen.end(), op.method) != seen.end()) continue;
    seen.push_back(op.method);
    const ReplayMsg m = replay_msg(in, op);
    if (t.tap->take_request() != request_wire(m, t.tap_endpoint)) {
      return "live wire: " + op.method + " request bytes differ from replay";
    }
    if (t.tap->take_response() != response_wire(m)) {
      return "live wire: " + op.method + " response bytes differ from replay";
    }
  }
  return "";
}

Outcome run_rpc(const RunConfig& cfg, core::VsgProtocol protocol) {
  Outcome out;
  const RpcInputs in = make_rpc_inputs(cfg.seed, kDecks);
  const std::vector<RpcOp>& ops = in.ops;

  // Setup: kSetups builds; the last two run the deterministic pass and
  // must agree, the last one carries the timed phase.
  std::vector<double> setup_s;
  std::unique_ptr<Topology> topo;
  std::optional<DetPass> det_a;
  DetPass det;
  for (int k = 0; k < kSetups; ++k) {
    topo.reset();
    const std::int64_t t0 = wall_ns();
    topo = std::make_unique<Topology>(protocol, in, cfg.seed);
    setup_s.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
    if (!topo->ok) {
      out.fail("topology failed to start");
      return out;
    }
    if (k >= kSetups - 2) {
      warm(*topo, ops);
      det = det_pass(*topo, ops);
      if (!det_a) det_a = det;
    }
  }
  out.attempted += 2 * ops.size();
  out.failed += det_a->failed + det.failed;
  if (det_a->digest != det.digest) {
    out.fail("deterministic columns differ between two same-seed passes");
  }
  const double n = static_cast<double>(ops.size());
  std::printf("deterministic pass: %zu calls, digest %016llx (repeat %s), "
              "allocs/call %.3f vs %.3f (drift %+.3f)\n",
              ops.size(), static_cast<unsigned long long>(det.digest),
              det_a->digest == det.digest ? "identical" : "DIFFERS",
              static_cast<double>(det_a->heap.allocs) / n,
              static_cast<double>(det.heap.allocs) / n,
              static_cast<double>(det.heap.allocs) / n -
                  static_cast<double>(det_a->heap.allocs) / n);
  if (protocol == core::VsgProtocol::kSoap) {
    const std::string wire = check_live_wire(in);
    std::printf("live wire vs stage replay: %s\n",
                wire.empty() ? "byte-identical" : wire.c_str());
    if (!wire.empty()) out.fail(wire);
  }

  // The program's peak, before the timed phase's own per-call sample
  // storage grows the process.
  const double rss_mb = peak_rss_mb();
  Topology& t = *topo;
  const auto pool_stats = [&] {
    BlockPool::Stats s;
    t.kernel.run_as(0, [&] { s = wire_pool().stats(); });
    return s;
  };
  const BlockPool::Stats pool0 = pool_stats();
  const std::uint64_t frames0 = t.backbone->frames_carried();
  const double untraced_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const LoopResult loop = closed_loop(
      t.kernel, untraced_s, 0, ops.size(),
      [&](std::size_t i) { return t.call(ops[i % ops.size()]); });
  const BlockPool::Stats pool1 = pool_stats();
  const std::uint64_t frames1 = t.backbone->frames_carried();
  out.attempted += loop.calls;
  out.failed += loop.failed;

  report_loop(out, loop);
  report_virtual(out, det.virt_ms);
  out.e2e("allocs_per_call", static_cast<double>(det.heap.allocs) / n, "count",
          "deterministic pass; timed phase " +
              std::to_string(static_cast<double>(loop.heap.allocs) /
                             static_cast<double>(loop.calls)));
  out.e2e("heap_bytes_per_call", static_cast<double>(det.heap.bytes) / n, "B",
          "deterministic pass");
  out.e2e("backbone_bytes_per_call",
          static_cast<double>(det.backbone_bytes) / n, "B",
          "deterministic pass");
  out.e2e("setup_s", median(setup_s), "s",
          "median of " + std::to_string(kSetups) + " builds");

  if (cfg.trace) {
    // Traced half: spans around each call and its kernel run.
    const std::uint32_t kCall = tracer().intern("live.call");
    const std::uint32_t kIssue = tracer().intern("live.issue");
    const std::uint32_t kRun = tracer().intern("live.run");
    tracer().enable(true);
    const LoopResult traced = closed_loop(
        t.kernel, cfg.seconds / 2, loop.calls, ops.size(), [&](std::size_t i) {
          const RpcOp& op = ops[i % ops.size()];
          SpanScope call(kCall, i);
          std::optional<bool> good;
          {
            SpanScope issue(kIssue, i);
            const auto s = static_cast<std::size_t>(op.service);
            t.caller->call_remote(t.uris[s], t.services[s].name,
                                  t.services[s].iface, op.method, op.args,
                                  [&](Result<Value> r) {
                                    good = r.is_ok() && r.value() == op.expect;
                                  });
          }
          SpanScope run(kRun, i);
          t.kernel.run_until_done([&] { return good.has_value(); });
          return good.value_or(false);
        });
    out.attempted += traced.calls;
    out.failed += traced.failed;
    report_overhead(out, loop.wall_us, traced.wall_us);

    // Stage replay over the generated messages: one untraced warm-up
    // pass, then the traced pass.
    StageReplay replay;
    std::string err;
    for (int pass = 0; pass < 2; ++pass) {
      tracer().enable(pass == 1);
      for (std::size_t i = 0; i < ops.size() && err.empty(); ++i) {
        if (!replay.replay(replay_msg(in, ops[i]), 1'000'000 + i, &err)) {
          out.fail(err);
        }
      }
    }
    tracer().enable(true);
    std::vector<double> leg;
    const std::uint32_t kLeg = tracer().intern("core.vsg_leg");
    for (std::size_t i = 0; i < kProbeCalls; ++i) {
      const std::int64_t a = wall_ns();
      bool ok = false;
      {
        SpanScope s(kLeg, 2'000'000 + i);
        ok = t.noop_call();
      }
      leg.push_back(static_cast<double>(wall_ns() - a));
      if (!ok) out.fail("no-op VSG leg failed");
    }
    tracer().enable(false);
    replay.report(out, out.e2e_value("call_us_p50"));
    out.layer("core.vsg_leg_ns", median(leg), "ns",
              "no-op exposure, n=" + std::to_string(kProbeCalls));

    const double calls = static_cast<double>(loop.calls);
    const std::uint64_t acquires =
        (pool1.pool_hits - pool0.pool_hits) +
        (pool1.fresh_blocks - pool0.fresh_blocks) +
        (pool1.heap_fallbacks - pool0.heap_fallbacks);
    out.layer("common.pool_hit_rate",
              acquires == 0 ? 0
                            : static_cast<double>(pool1.pool_hits -
                                                  pool0.pool_hits) /
                                  static_cast<double>(acquires),
              "ratio", std::to_string(acquires) + " block acquires");
    out.layer("common.pool_heap_fallbacks",
              static_cast<double>(pool1.heap_fallbacks - pool0.heap_fallbacks),
              "count");
    out.layer("net.backbone_frames_per_call",
              static_cast<double>(frames1 - frames0) / calls, "count");
    out.layer("sim.events_per_call", static_cast<double>(loop.events) / calls,
              "count");
    out.layer("sim.ns_per_event",
              loop.wall_s * 1e9 / static_cast<double>(loop.events), "ns");
    write_spans(out, cfg, 1);
  }
  out.e2e("peak_rss_mb", rss_mb, "MB",
          "VmHWM after set-up and the deterministic passes");
  return out;
}

}  // namespace hcmbench
