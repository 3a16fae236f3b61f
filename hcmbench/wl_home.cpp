// home: the Fig. 3 SmartHome over SOAP on a 1-shard kernel. Native
// clients on each island call services on the others through the PCM
// proxies while a laserdisc statusChanged subscription stays live and
// Jini services arrive and depart, each followed by refresh_all.
#include <memory>
#include <optional>

#include "gen.hpp"
#include "jini/exporter.hpp"
#include "jini/registrar.hpp"
#include "replay.hpp"
#include "testbed/home.hpp"
#include "workloads.hpp"

namespace hcmbench {

using namespace hcm;

namespace {

constexpr std::size_t kDecks = 20;  // 1,000 ops: the fixed pass, then cycled
constexpr int kSetups = 21;
constexpr std::size_t kProbeCalls = 1000;
constexpr sim::Duration kWaitLimit = sim::seconds(30);
constexpr std::uint16_t kChurnPort = 4171;
// The mail island's mailbox poll, pushed past any run's virtual span:
// MailAdapter::unexport_service destroys the departing proxy's
// MailClient while a poll's connect may still be in flight, and the
// connect callback then writes into the freed client (README.md,
// "Known limits").
// The mail island still imports and retires every churned service.
constexpr sim::Duration kMailPoll = sim::seconds(10'000'000);
// Islands that must import a churned Jini service. The X10 island must
// not: its adapter binds only services with a zero-argument method to
// map to ON, and ping(seq) has none. (Churned services are kept
// unbindable on purpose: X10Adapter never recycles unit codes, so
// bindable churn exhausts house P after a dozen arrivals; see
// README.md, "Known limits".)
const char* const kImporters[] = {"havi-island", "mail-island"};

InterfaceDesc ping_interface() {
  return InterfaceDesc{"Pinger",
                       {MethodDesc{"ping",
                                   {{"seq", ValueType::kInt}},
                                   ValueType::kInt,
                                   false}}};
}

struct Home {
  explicit Home(std::uint64_t seed)
      : kernel(sim::ShardedKernelOptions{1}) {
    kernel.seed(seed);
    const std::int64_t t0 = wall_ns();
    testbed::SmartHomeOptions options;
    options.mail_poll = kMailPoll;
    home = std::make_unique<testbed::SmartHome>(kernel, options);
    ok = home->refresh().is_ok();
    setup_s = static_cast<double>(wall_ns() - t0) / 1e9;
  }

  // Benchmark-side fixtures, outside the timed set-up: the churn host
  // on the Jini LAN and the X10 island's laserdisc subscription.
  bool prepare() {
    kernel.run_as(0, [&] {
      auto& node = home->net.add_node("churn-host");
      home->net.attach(node, *home->jini_lan);
      churn_node = node.id();
      exporter = std::make_unique<jini::Exporter>(home->net, churn_node,
                                                  kChurnPort);
      (void)exporter->start();
    });
    std::optional<Result<std::string>> lease;
    kernel.run_as(0, [&] {
      home->meta->island("x10-island")
          ->events->subscribe(
              "laserdisc-1", "statusChanged",
              [this](const std::string&, const std::string&,
                     const Value& payload) {
                ++events_seen;
                last_event_at = kernel.shard(0).now();
                event_ok = payload.is_map() &&
                           payload.as_map().count("powered") != 0 &&
                           payload.at("powered").is_bool() &&
                           payload.at("powered").as_bool() ==
                               home->laserdisc->powered();
              },
              [&](Result<std::string> r) { lease = std::move(r); });
    });
    if (!wait([&] { return lease.has_value(); }) || !lease->is_ok()) {
      return false;
    }
    auto unit = home->x10_adapter->unit_for("laserdisc-1");
    if (!unit.is_ok()) return false;
    ld_unit = unit.value();
    return true;
  }

  sim::SimTime now() { return kernel.shard(0).now(); }

  // Runs the kernel until pred holds or kWaitLimit of virtual time
  // passes; returns pred().
  template <typename Pred>
  bool wait(Pred&& pred) {
    const sim::SimTime end = now() + kWaitLimit;
    kernel.run_until_done([&] { return pred() || now() > end; });
    return pred();
  }

  bool invoke(core::MiddlewareAdapter& client, const std::string& service,
              const std::string& method, const ValueList& args = {},
              Value* reply = nullptr) {
    std::optional<Result<Value>> r;
    kernel.run_as(0, [&] {
      client.invoke(service, method, args,
                    [&](Result<Value> v) { r = std::move(v); });
    });
    if (!wait([&] { return r.has_value(); }) || !r->is_ok()) return false;
    if (reply != nullptr) *reply = r->value();
    return true;
  }

  bool refresh_all() {
    std::optional<Status> s;
    kernel.run_as(0, [&] {
      home->meta->refresh_all([&](const Status& st) { s = st; });
    });
    return wait([&] { return s.has_value(); }) && s->is_ok();
  }

  // After an arrival: imported on every island able to represent the
  // service, refused by X10. After a departure: imported nowhere.
  bool imported_everywhere(const std::string& name, bool want) {
    for (const char* island : kImporters) {
      if (home->meta->island(island)->pcm->has_imported(name) != want) {
        return false;
      }
    }
    return !home->meta->island("x10-island")->pcm->has_imported(name);
  }

  // One generated op; virtual latency in *virt_us. Records event and
  // discovery latencies on the side.
  bool op(const HomeOp& op, std::int64_t* virt_us) {
    const sim::SimTime t0 = now();
    bool good = false;
    switch (op.kind) {
      case HomeKind::kJiniToLamp:
        good = invoke(*home->jini_adapter, "desk-lamp",
                      op.on ? "turnOn" : "turnOff") &&
               (home->lamp->level() > 0) == op.on;
        break;
      case HomeKind::kRemoteToLaserdisc: {
        const std::uint64_t before = home->laserdisc->commands();
        const std::uint64_t events_before = events_seen;
        kernel.run_as(0, [&] {
          home->remote->press(ld_unit, op.on ? x10::FunctionCode::kOn
                                             : x10::FunctionCode::kOff);
        });
        good = wait([&] { return home->laserdisc->commands() > before; }) &&
               home->laserdisc->powered() == op.on;
        *virt_us = now() - t0;
        const sim::SimTime changed = now();
        // Every command fires statusChanged; it must reach the X10
        // island's subscriber with the new state.
        good = wait([&] { return events_seen > events_before; }) &&
               event_ok && events_seen == events_before + 1 && good;
        if (good) event_ms.push_back(static_cast<double>(last_event_at -
                                                         changed) / 1e3);
        ++presses;
        if (!good) ++failures[static_cast<int>(op.kind)];
        return good;
      }
      case HomeKind::kHaviToJini: {
        Value reply;
        good = invoke(*home->havi_adapter, "laserdisc-1", "getStatus", {},
                      &reply) &&
               reply.is_map() && reply.as_map().count("powered") != 0 &&
               reply.at("powered") == Value(home->laserdisc->powered()) &&
               reply.at("playing") == Value(home->laserdisc->playing());
        break;
      }
      case HomeKind::kJiniToCamera: {
        Value reply;
        good = invoke(*home->jini_adapter, "camera-1", "getStatus", {},
                      &reply) &&
               reply.is_map() && reply.as_map().count("capturing") != 0 &&
               reply.at("capturing") == Value(home->camera->capturing());
        break;
      }
      case HomeKind::kSelectInput:
        good = invoke(*home->jini_adapter, "display-1", "selectInput",
                      {Value(op.text)});
        if (good) display_input = op.text;
        break;
      case HomeKind::kDisplayStatus: {
        Value reply;
        good = invoke(*home->jini_adapter, "display-1", "getStatus", {},
                      &reply) &&
               reply.is_map() && reply.as_map().count("input") != 0 &&
               reply.at("input") == Value(display_input) &&
               reply.at("powered") == Value(home->display->powered());
        break;
      }
      case HomeKind::kChurn:
        good = churn();
        break;
    }
    *virt_us = now() - t0;
    if (!good) ++failures[static_cast<int>(op.kind)];
    return good;
  }

  // A Jini service arrives (join at the lookup service) or the one
  // churned service departs (lease cancelled), alternately, then
  // refresh_all; its proxy must then exist on, or be gone from, the
  // importing islands. Strict alternation keeps every seed's churn
  // cost the same; the seed places the rounds in the schedule.
  bool churn() {
    const bool arrive = live == nullptr;
    const std::uint64_t bytes0 = home->backbone->bytes_carried();
    if (arrive) {
      const std::string name = "churn-" + std::to_string(next_churn++);
      std::optional<Status> joined;
      kernel.run_as(0, [&] {
        exporter->export_object(
            name, [](const std::string&, const ValueList& args,
                     InvokeResultFn done) { done(args.at(0)); });
        jini::ServiceItem item;
        item.service_id = name;
        item.name = name;
        item.interface = ping_interface();
        item.endpoint = exporter->endpoint();
        live_name = name;
        live = std::make_unique<jini::Registrar>(
            home->net, churn_node, home->lookup->endpoint(), std::move(item));
        live->join([&](const Status& s) { joined = s; });
      });
      if (!wait([&] { return joined.has_value(); }) || !joined->is_ok()) {
        return false;
      }
      const sim::SimTime arrived = now();
      if (!timed_refresh(bytes0) || !imported_everywhere(name, true)) {
        return false;
      }
      discovery_ms.push_back(static_cast<double>(now() - arrived) / 1e3);
      return true;
    }
    const std::string name = std::move(live_name);
    std::unique_ptr<jini::Registrar> registrar = std::move(live);
    std::optional<Status> cancelled;
    kernel.run_as(0, [&] {
      registrar->cancel([&](const Status& s) { cancelled = s; });
    });
    if (!wait([&] { return cancelled.has_value(); }) || !cancelled->is_ok()) {
      return false;
    }
    kernel.run_as(0, [&] {
      exporter->unexport_object(name);
      registrar.reset();
    });
    return timed_refresh(bytes0) && imported_everywhere(name, false);
  }

  bool timed_refresh(std::uint64_t bytes0) {
    static const std::uint32_t kRefresh = tracer().intern("core.refresh");
    const std::int64_t a = wall_ns();
    bool ok_refresh = false;
    {
      SpanScope s(kRefresh, 0);
      ok_refresh = refresh_all();
    }
    refresh_ns.push_back(static_cast<double>(wall_ns() - a));
    refresh_bytes.push_back(
        static_cast<double>(home->backbone->bytes_carried() - bytes0));
    return ok_refresh;
  }

  sim::ShardedKernel kernel;
  std::unique_ptr<testbed::SmartHome> home;
  bool ok = false;
  double setup_s = 0;

  net::NodeId churn_node = 0;
  std::unique_ptr<jini::Exporter> exporter;
  std::string live_name;  // the churned service present, if any
  std::unique_ptr<jini::Registrar> live;
  int next_churn = 0;
  int ld_unit = 0;

  std::string display_input = "1394";  // DisplayFcm's initial input
  std::uint64_t failures[kHomeKinds] = {};
  std::uint64_t events_seen = 0;
  std::uint64_t presses = 0;
  sim::SimTime last_event_at = 0;
  bool event_ok = false;
  std::vector<double> event_ms, discovery_ms, refresh_ns, refresh_bytes;
};

struct DetPass {
  std::vector<double> virt_ms;
  std::uint64_t digest = kFnvSeed;
  std::uint64_t backbone_bytes = 0;
  Heap heap;
  std::uint64_t failed = 0;
  std::vector<double> event_ms, discovery_ms;
};

DetPass det_pass(Home& h, const std::vector<HomeOp>& ops) {
  DetPass d;
  const std::uint64_t b0 = h.home->backbone->bytes_carried();
  const Heap h0 = heap_now();
  h.event_ms.clear();
  h.discovery_ms.clear();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    std::int64_t virt = 0;
    if (!h.op(ops[i], &virt)) ++d.failed;
    d.virt_ms.push_back(static_cast<double>(virt) / 1e3);
    d.digest = fnv_mix(d.digest, static_cast<std::uint64_t>(virt));
  }
  d.heap = heap_now() - h0;
  d.backbone_bytes = h.home->backbone->bytes_carried() - b0;
  d.digest = fnv_mix(d.digest, d.backbone_bytes);
  d.event_ms = h.event_ms;
  d.discovery_ms = h.discovery_ms;
  for (double v : d.event_ms) {
    d.digest = fnv_mix(d.digest, static_cast<std::uint64_t>(v * 1e3));
  }
  return d;
}

// The SOAP leg each op puts on the backbone (the PCM proxies call the
// origin island's VSG exposure of the service).
ReplayMsg replay_msg(const HomeOp& op, Home& h) {
  const Value on(true);
  switch (op.kind) {
    case HomeKind::kJiniToLamp:
      return {"/vsg/desk-lamp", "urn:hcm:X10Switchable",
              op.on ? "turnOn" : "turnOff", {}, on};
    case HomeKind::kRemoteToLaserdisc:
      return {"/vsg/laserdisc-1", "urn:hcm:MediaPlayer",
              op.on ? "turnOn" : "turnOff", {}, on};
    case HomeKind::kHaviToJini:
      return {"/vsg/laserdisc-1", "urn:hcm:MediaPlayer", "getStatus", {},
              Value(ValueMap{{"powered", Value(h.home->laserdisc->powered())},
                             {"playing", Value(h.home->laserdisc->playing())}})};
    case HomeKind::kJiniToCamera:
      return {"/vsg/camera-1", "urn:hcm:CameraControl", "getStatus", {},
              Value(ValueMap{{"capturing", Value(false)},
                             {"zoom", Value(std::int64_t{1})},
                             {"framesSent", Value(std::int64_t{0})}})};
    case HomeKind::kSelectInput:
      return {"/vsg/display-1", "urn:hcm:DisplayControl", "selectInput",
              {{"input", Value(op.text)}}, on};
    case HomeKind::kDisplayStatus:
    case HomeKind::kChurn:  // not replayed: churn makes no RPC call
      break;
  }
  return {"/vsg/display-1", "urn:hcm:DisplayControl", "getStatus", {},
          Value(ValueMap{{"powered", Value(false)},
                         {"input", Value(h.display_input)},
                         {"framesShown", Value(std::int64_t{0})}})};
}

// Median wall ns of `n` repetitions of fn, each inside a span.
template <typename Fn>
double probe(const char* span, std::size_t n, Outcome& out, Fn&& fn) {
  const std::uint32_t id = tracer().intern(span);
  std::vector<double> ns;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t a = wall_ns();
    bool ok = false;
    {
      SpanScope s(id, i);
      ok = fn();
    }
    ns.push_back(static_cast<double>(wall_ns() - a));
    if (!ok) {
      out.fail(std::string("probe failed: ") + span);
      break;
    }
  }
  return median(std::move(ns));
}

struct Counters {
  std::uint64_t wsdl = 0, renew_fallbacks = 0, delivered = 0, dropped = 0,
                retries = 0, serial_retries = 0, collisions = 0;
};

Counters counters(Home& h) {
  Counters c;
  for (const char* island :
       {"jini-island", "havi-island", "x10-island", "mail-island"}) {
    auto* isl = h.home->meta->island(island);
    c.wsdl += isl->pcm->wsdl_generations();
    c.renew_fallbacks += isl->pcm->renew_fallbacks();
    c.delivered += isl->events->events_delivered();
    c.dropped += isl->events->events_dropped();
    c.retries += isl->events->delivery_retries();
  }
  c.serial_retries = h.home->cm11a->serial_retries();
  c.collisions = h.home->powerline->collisions();
  return c;
}

}  // namespace

Outcome run_home(const RunConfig& cfg) {
  Outcome out;
  const std::vector<HomeOp> ops = make_home_ops(cfg.seed, kDecks);
  // Printed in every run, so no result hides what this home leaves out.
  std::printf("known defects steered around (hcmbench/README.md, Known "
              "limits): the mail island never polls (MailAdapter/MailClient "
              "use-after-free on departure); churned services are not "
              "X10-bindable (X10Adapter never recycles unit codes)\n");

  std::vector<double> setup_s;
  std::unique_ptr<Home> h;
  std::optional<DetPass> det_a;
  DetPass det;
  for (int k = 0; k < kSetups; ++k) {
    h.reset();
    h = std::make_unique<Home>(cfg.seed);
    setup_s.push_back(h->setup_s);
    if (!h->ok || !h->prepare()) {
      out.fail("smart home failed to start");
      return out;
    }
    if (k >= kSetups - 2) {
      det = det_pass(*h, ops);
      if (!det_a) det_a = det;
    }
  }
  const std::size_t det_n = ops.size();
  out.attempted += 2 * det_n;
  out.failed += det_a->failed + det.failed;
  if (det_a->digest != det.digest) {
    out.fail("deterministic columns differ between two same-seed passes");
  }
  const double n = static_cast<double>(det_n);
  std::printf("deterministic pass: %zu ops, digest %016llx (repeat %s), "
              "allocs/call %.3f vs %.3f (drift %+.3f)\n",
              det_n, static_cast<unsigned long long>(det.digest),
              det_a->digest == det.digest ? "identical" : "DIFFERS",
              static_cast<double>(det_a->heap.allocs) / n,
              static_cast<double>(det.heap.allocs) / n,
              static_cast<double>(det.heap.allocs) / n -
                  static_cast<double>(det_a->heap.allocs) / n);

  // The program's peak, before the timed phase's own per-call sample
  // storage grows the process.
  const double rss_mb = peak_rss_mb();
  Home& home = *h;
  const Counters c0 = counters(home);
  const std::uint64_t frames0 = home.home->backbone->frames_carried();
  const std::uint64_t presses0 = home.presses;
  const std::uint64_t events0 = home.events_seen;
  home.refresh_ns.clear();
  home.refresh_bytes.clear();
  const double untraced_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const auto run_op = [&](std::size_t i) {
    std::int64_t virt = 0;
    return home.op(ops[i % ops.size()], &virt);
  };
  const LoopResult loop =
      closed_loop(home.kernel, untraced_s, 0, ops.size(), run_op);
  out.attempted += loop.calls;
  out.failed += loop.failed;
  for (int k = 0; k < kHomeKinds; ++k) {
    if (home.failures[k] != 0) {
      std::printf("failed %s: %llu\n", to_string(static_cast<HomeKind>(k)),
                  static_cast<unsigned long long>(home.failures[k]));
    }
  }

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
          "deterministic pass, includes lease renewals; no mail poll");
  out.e2e("setup_s", median(setup_s), "s",
          "median of " + std::to_string(kSetups) +
              " builds, each with the first refresh_all");
  std::printf("discovery_virtual_ms %.3f ms (n=%zu), event_virtual_ms_p50 "
              "%.3f ms (n=%zu)\n",
              median(det.discovery_ms), det.discovery_ms.size(),
              median(det.event_ms), det.event_ms.size());

  if (cfg.trace) {
    const std::uint32_t kCall = tracer().intern("live.call");
    tracer().enable(true);
    const LoopResult traced = closed_loop(
        home.kernel, cfg.seconds / 2, loop.calls, ops.size(),
        [&](std::size_t i) {
          SpanScope s(kCall, i);
          return run_op(i);
        });
    out.attempted += traced.calls;
    out.failed += traced.failed;
    report_overhead(out, loop.wall_us, traced.wall_us);
    const Counters c1 = counters(home);

    StageReplay replay;
    std::string err;
    for (int pass = 0; pass < 2; ++pass) {
      tracer().enable(pass == 1);
      for (std::size_t i = 0; i < det_n && err.empty(); ++i) {
        if (ops[i].kind == HomeKind::kChurn) continue;
        if (!replay.replay(replay_msg(ops[i], home), 1'000'000 + i, &err)) {
          out.fail(err);
        }
      }
    }
    tracer().enable(true);
    auto* x10_vsg = home.home->meta->island("x10-island")->vsg.get();
    auto* jini_vsg = home.home->meta->island("jini-island")->vsg.get();
    const InterfaceDesc noop{"Probe",
                             {MethodDesc{"ping", {}, ValueType::kBool, false}}};
    bool exposed = false;
    home.kernel.run_as(0, [&] {
      exposed = x10_vsg
                    ->expose("bench-noop", noop,
                             [](const std::string&, const ValueList&,
                                InvokeResultFn done) { done(Value(true)); })
                    .is_ok();
    });
    if (!exposed) out.fail("no-op exposure failed");
    const Uri noop_uri = x10_vsg->exposure_uri("bench-noop");
    const double leg = probe("core.vsg_leg", kProbeCalls, out, [&] {
      std::optional<bool> good;
      home.kernel.run_as(0, [&] {
        jini_vsg->call_remote(noop_uri, "bench-noop", noop, "ping", {},
                              [&](Result<Value> r) { good = r.is_ok(); });
      });
      return home.wait([&] { return good.has_value(); }) && *good;
    });
    const double full = probe("core.full_invoke", kProbeCalls, out, [&] {
      return home.invoke(*home.home->jini_adapter, "camera-1", "getStatus");
    });
    const double havi = probe("havi.native", kProbeCalls, out, [&] {
      return home.invoke(*home.home->havi_adapter, "camera-1", "getStatus");
    });
    const double jini = probe("jini.native", kProbeCalls, out, [&] {
      return home.invoke(*home.home->jini_adapter, "laserdisc-1", "getStatus");
    });
    const double x10 = probe("x10.native", kProbeCalls, out, [&] {
      return home.invoke(*home.home->x10_adapter, "desk-lamp", "getAddress");
    });
    tracer().enable(false);

    replay.report(out, out.e2e_value("call_us_p50"));
    out.layer("core.vsg_leg_ns", leg, "ns", "jini-island -> x10-island no-op");
    out.layer("core.pcm_ns", full - leg - havi, "ns",
              "jini->havi getStatus minus VSG leg minus HAVi native call");
    out.layer("jini.native_call_ns", jini, "ns", "laserdisc getStatus");
    out.layer("havi.native_call_ns", havi, "ns", "camera getStatus");
    out.layer("x10.native_call_ns", x10, "ns", "desk-lamp getAddress");
    out.layer("core.refresh_ns", median(home.refresh_ns), "ns",
              "per churn round, n=" + std::to_string(home.refresh_ns.size()));
    out.layer("core.refresh_backbone_bytes", median(home.refresh_bytes), "B",
              "per churn round");
    out.layer("core.wsdl_generations", static_cast<double>(c1.wsdl - c0.wsdl),
              "count", "timed phases");
    out.layer("core.renew_fallbacks",
              static_cast<double>(c1.renew_fallbacks - c0.renew_fallbacks),
              "count");
    out.layer("core.events_delivered",
              static_cast<double>(c1.delivered - c0.delivered), "count");
    out.layer("core.events_dropped",
              static_cast<double>(c1.dropped - c0.dropped), "count");
    const std::uint64_t presses = home.presses - presses0;
    out.layer("core.event_delivery_ratio",
              presses == 0 ? 0
                           : static_cast<double>(home.events_seen - events0) /
                                 static_cast<double>(presses),
              "ratio", "events at the subscriber / laserdisc state changes");
    out.layer("core.event_retries",
              static_cast<double>(c1.retries - c0.retries), "count");
    out.layer("core.discovery_virtual_ms", median(det.discovery_ms), "ms",
              "arrival at the lookup -> proxy on every other island");
    out.layer("core.event_virtual_ms_p50", median(det.event_ms), "ms",
              "state change -> native re-emission at the subscriber");
    out.layer("x10.serial_retries",
              static_cast<double>(c1.serial_retries - c0.serial_retries),
              "count");
    out.layer("x10.powerline_collisions",
              static_cast<double>(c1.collisions - c0.collisions), "count");
    const double calls = static_cast<double>(loop.calls);
    out.layer("net.backbone_frames_per_call",
              static_cast<double>(home.home->backbone->frames_carried() -
                                  frames0) /
                  static_cast<double>(loop.calls + traced.calls),
              "count");
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
