#include "replay.hpp"

#include <algorithm>
#include <map>

#include "common/value_codec.hpp"
#include "net/node.hpp"

namespace hcmbench {

using namespace hcm;

namespace {

http::Request make_request(const ReplayMsg& m, net::Endpoint dest) {
  http::Request req;
  req.method = "POST";
  req.target = m.path;
  req.version = "HTTP/1.1";
  req.body = soap::build_call(m.ns, m.method, m.params);
  std::string host;
  dest.append_to(host);
  req.headers = {{"Content-Type", "text/xml; charset=utf-8"},
                 {"SOAPAction", "\"" + m.ns + "#" + m.method + "\""},
                 {"Host", std::move(host)}};
  return req;
}

http::Response make_response(std::string body) {
  http::Response resp;
  resp.status = 200;
  resp.reason = "OK";
  resp.headers = {{"Content-Type", "text/xml; charset=utf-8"},
                  {"Server", "hcm-httpd/1.0"}};
  resp.body = std::move(body);
  return resp;
}

// The twelve stages, in call order (each name appears once per
// direction).
constexpr const char* kStages[] = {"soap.encode", "http.serialize",
                                   "net.send",    "sim.deliver",
                                   "http.parse",  "soap.decode"};

// Replay endpoint: the far side of the replay stream pair, addressed
// as a VSG listener would be.
constexpr std::uint16_t kReplayPort = 8080;

}  // namespace

std::string request_wire(const ReplayMsg& m, net::Endpoint dest) {
  BlockStream out;
  make_request(m, dest).serialize_to(out);
  return out.to_string();
}

std::string response_wire(const ReplayMsg& m) {
  BlockStream out;
  make_response(soap::build_response(m.ns, m.method, m.result))
      .serialize_to(out);
  return out.to_string();
}

StageReplay::StageReplay() : net_(std::make_unique<net::Network>(sched_)) {
  auto& na = net_->add_node("replay-a");
  auto& nb = net_->add_node("replay-b");
  auto& eth =
      net_->add_ethernet("replay-lan", sim::microseconds(200), 100'000'000);
  net_->attach(na, eth);
  net_->attach(nb, eth);
  (void)nb.listen(kReplayPort, [this](net::StreamPtr s) { b_ = std::move(s); });
  net_->connect(na.id(), {nb.id(), kReplayPort},
                [this](Result<net::StreamPtr> r) {
                  if (r.is_ok()) a_ = std::move(r).take();
                });
  sched_.run();
  const auto sink = [this](BlockStream&& data) {
    inbox_.splice(std::move(data));
    delivered_ = true;
  };
  if (a_ && b_) {
    a_->set_on_data(sink);
    b_->set_on_data(sink);
  }
}

StageReplay::~StageReplay() {
  // Streams hold handlers that point back here; drop them first.
  if (a_) a_->set_on_data(nullptr);
  if (b_) b_->set_on_data(nullptr);
  a_.reset();
  b_.reset();
}

bool StageReplay::one_way(bool request, const ReplayMsg& m,
                          std::uint64_t call, std::string* err) {
  static const std::uint32_t kNames[] = {
      tracer().intern(kStages[0]), tracer().intern(kStages[1]),
      tracer().intern(kStages[2]), tracer().intern(kStages[3]),
      tracer().intern(kStages[4]), tracer().intern(kStages[5])};
  // 1. soap encode
  std::string body;
  Heap h0 = heap_now();
  {
    SpanScope s(kNames[0], call);
    body = request ? soap::build_call(m.ns, m.method, m.params)
                   : soap::build_response(m.ns, m.method, m.result);
  }
  encode_heap_ = encode_heap_ + (heap_now() - h0);
  // 2. http serialize
  BlockStream wire;
  http::Request req;
  http::Response resp;
  if (request) {
    req = make_request(m, b_->local());
    req.body = std::move(body);
    SpanScope s(kNames[1], call);
    req.serialize_to(wire);
  } else {
    resp = make_response(std::move(body));
    SpanScope s(kNames[1], call);
    resp.serialize_to(wire);
  }
  // 3. net send and 4. delivery through the scheduler
  delivered_ = false;
  {
    SpanScope s(kNames[2], call);
    (request ? a_ : b_)->send(std::move(wire));
  }
  {
    SpanScope s(kNames[3], call);
    sched_.run();
  }
  if (!delivered_) {
    *err = "replay: message not delivered";
    return false;
  }
  // 5. http parse
  http::MessageParser parser(request ? http::MessageParser::Mode::kRequest
                                     : http::MessageParser::Mode::kResponse);
  bool parsed = false;
  h0 = heap_now();
  {
    SpanScope s(kNames[4], call);
    parsed = parser.feed(std::move(inbox_)).is_ok() &&
             (request ? parser.pop_request(req) : parser.pop_response(resp));
  }
  parse_heap_ = parse_heap_ + (heap_now() - h0);
  inbox_.clear();
  if (!parsed) {
    *err = "replay: http parse failed for " + m.method;
    return false;
  }
  // 6. soap decode
  Result<soap::Envelope> env(soap::Envelope{});
  h0 = heap_now();
  {
    SpanScope s(kNames[5], call);
    env = soap::parse_envelope(request ? req.body : resp.body);
  }
  decode_heap_ = decode_heap_ + (heap_now() - h0);
  if (!env.is_ok()) {
    *err = "replay: soap decode failed: " + env.status().to_string();
    return false;
  }
  const soap::Envelope& e = env.value();
  const bool same =
      request ? e.method == m.method && e.params == m.params
              : !e.params.empty() && e.params.front().second == m.result;
  if (!same) *err = "replay: decoded " + m.method + " differs from encoded";
  return same;
}

bool StageReplay::replay(const ReplayMsg& m, std::uint64_t call,
                         std::string* err) {
  static const std::uint32_t kCall = tracer().intern("replay.call");
  static const std::uint32_t kEnc = tracer().intern("value.encode");
  static const std::uint32_t kDec = tracer().intern("value.decode");
  if (!a_ || !b_) {
    *err = "replay: stream pair did not connect";
    return false;
  }
  SpanScope whole(kCall, call);
  ++calls_;
  if (!one_way(true, m, call, err)) return false;
  if (!one_way(false, m, call, err)) return false;
  // The binary protocol's codec on the same arguments.
  ValueList args;
  for (const auto& [k, v] : m.params) args.push_back(v);
  const Value list(std::move(args));
  Bytes enc;
  {
    SpanScope s(kEnc, call);
    enc = encode_value(list);
  }
  Result<Value> dec(Value{});
  {
    SpanScope s(kDec, call);
    dec = decode_value(enc);
  }
  if (!dec.is_ok() || !(dec.value() == list)) {
    *err = "replay: value codec round trip differs for " + m.method;
    return false;
  }
  return true;
}

void StageReplay::report(Outcome& out, double call_us_p50) const {
  // Per call: sum each stage's self time over both directions, then
  // take the median over calls.
  const Tracer& tr = tracer();
  const auto self = tr.self_times();
  std::map<std::string, std::map<std::uint64_t, double>> per_call;
  for (std::size_t i = 0; i < tr.spans().size(); ++i) {
    const auto& s = tr.spans()[i];
    per_call[tr.name_of(s.name)][s.call] += static_cast<double>(self[i]);
  }
  const auto med = [&](const char* name) {
    std::vector<double> v;
    for (const auto& [call, ns] : per_call[name]) v.push_back(ns);
    return median(std::move(v));
  };
  const double calls = std::max<double>(1, static_cast<double>(calls_));
  const std::string n = "n=" + std::to_string(calls_) + " replayed calls";
  out.layer("soap.encode_ns", med("soap.encode"), "ns", n);
  out.layer("soap.decode_ns", med("soap.decode"), "ns", n);
  out.layer("soap.encode_allocs", static_cast<double>(encode_heap_.allocs) / calls,
            "count", "per call, request + response");
  out.layer("soap.decode_allocs", static_cast<double>(decode_heap_.allocs) / calls,
            "count", "per call, request + response");
  out.layer("http.serialize_ns", med("http.serialize"), "ns", n);
  out.layer("http.parse_ns", med("http.parse"), "ns", n);
  out.layer("http.parse_allocs", static_cast<double>(parse_heap_.allocs) / calls,
            "count", "per call, request + response");
  out.layer("net.send_ns", med("net.send") + med("sim.deliver"), "ns",
            "Stream::send plus delivery, " + n);
  out.layer("common.value_encode_ns", med("value.encode"), "ns", n);
  out.layer("common.value_decode_ns", med("value.decode"), "ns", n);
  double stage_sum = 0;
  for (const char* st : kStages) stage_sum += med(st);
  out.layer("core.stage_sum_ratio",
            call_us_p50 > 0 ? stage_sum / (call_us_p50 * 1e3) : 0, "ratio",
            "12 replayed stages / end-to-end call_us_p50");
}

// --- wire tap -----------------------------------------------------------------
WireTap::WireTap(net::Network& net, net::NodeId tap_node, std::uint16_t port,
                 net::Endpoint upstream)
    : net_(net), node_(tap_node), upstream_(upstream) {
  (void)net_.node(node_)->listen(port, [this](net::StreamPtr in) {
    auto link = std::make_shared<Link>();
    link->in = std::move(in);
    links_.push_back(link);
    std::weak_ptr<Link> weak = link;
    link->in->set_on_data([this, weak](BlockStream&& data) {
      auto l = weak.lock();
      if (!l) return;
      data.append_to(req_);
      if (l->out) {
        l->out->send(std::move(data));
      } else {
        l->pending.push_back(std::move(data));
      }
    });
    net_.connect(node_, upstream_,
                 [this, weak](Result<net::StreamPtr> r) {
                   auto l = weak.lock();
                   if (!l || !r.is_ok()) return;
                   l->out = std::move(r).take();
                   l->out->set_on_data([this, weak](BlockStream&& data) {
                     auto l2 = weak.lock();
                     if (!l2) return;
                     data.append_to(resp_);
                     l2->in->send(std::move(data));
                   });
                   for (auto& p : l->pending) l->out->send(std::move(p));
                   l->pending.clear();
                 });
  });
}

}  // namespace hcmbench
