#include "core/binary_channel.hpp"

#include <algorithm>

#include "common/bytes.hpp"
#include "obs/slab.hpp"
#include "obs/trace.hpp"

namespace hcm::core {

namespace binary_wire {

void write_request(BlockStream& out, const Request& req,
                   const ValueList& args) {
  const bool traced = req.trace.valid();
  std::size_t body =
      kEncodedHeaderSize + encoded_entry_size("args", encoded_size(args)) +
      encoded_entry_size("id", kEncodedIntSize) +
      encoded_entry_size("method", encoded_string_size(req.method)) +
      encoded_entry_size("svc", encoded_string_size(req.service));
  if (traced) {
    body += encoded_entry_size("tr",
                               kEncodedHeaderSize + 2 * kEncodedIntSize);
  }
  WireWriter w(out);
  put_frame_header(w, body);
  w.map_header(traced ? 5 : 4);
  w.put_string("args");
  encode_list(args, w);
  w.put_string("id");
  w.int_value(static_cast<std::int64_t>(req.id));
  w.put_string("method");
  w.string_value(req.method);
  w.put_string("svc");
  w.string_value(req.service);
  if (traced) {
    w.put_string("tr");
    w.list_header(2);
    w.int_value(static_cast<std::int64_t>(req.trace.trace_id));
    w.int_value(static_cast<std::int64_t>(req.trace.span_id));
  }
}

Status decode_request(std::string_view frame, Request& req,
                      ValueList& args) {
  req = Request{};
  args.clear();
  WireReader r(frame);
  std::uint32_t n = 0;
  if (auto s = read_map_header(r, n); !s.is_ok()) return s;
  // The common shapes (an args list, string names) decode in place;
  // anything else decodes into `field` and is read leniently. A
  // repeated key keeps its first occurrence, as a decoded ValueMap
  // would.
  bool seen_args = false, seen_id = false, seen_svc = false,
       seen_method = false, seen_tr = false;
  Value field;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string_view key;
    std::uint8_t tag = 0;
    if (!r.string(key) || !r.peek(tag)) {
      return protocol_error("truncated envelope");
    }
    const auto type = static_cast<ValueType>(tag);
    if (key == "args" && !seen_args && type == ValueType::kList) {
      seen_args = true;
      if (auto s = decode_list(r, args, 1); !s.is_ok()) return s;
      continue;
    }
    const bool svc = key == "svc" && !seen_svc;
    const bool method = key == "method" && !seen_method;
    if ((svc || method) && type == ValueType::kString) {
      std::string_view name;
      if (!r.u8(tag) || !r.string(name)) return protocol_error("truncated name");
      (svc ? req.service : req.method) = name;
      (svc ? seen_svc : seen_method) = true;
      continue;
    }
    if (auto s = decode_value(r, field, 1); !s.is_ok()) return s;
    if (key == "args") {
      seen_args = true;
    } else if (svc) {
      seen_svc = true;
    } else if (method) {
      seen_method = true;
    } else if (key == "id" && !seen_id) {
      seen_id = true;
      req.id = static_cast<std::uint64_t>(field.to_int().value_or(0));
    } else if (key == "tr" && !seen_tr) {
      seen_tr = true;
      if (field.is_list() && field.as_list().size() == 2) {
        const auto& tr = field.as_list();
        req.trace.trace_id =
            static_cast<std::uint64_t>(tr[0].to_int().value_or(0));
        req.trace.span_id =
            static_cast<std::uint64_t>(tr[1].to_int().value_or(0));
      }
    }
  }
  if (!r.at_end()) return protocol_error("trailing bytes after envelope");
  return Status::ok();
}

}  // namespace binary_wire

struct BinaryRpcServer::Conn {
  net::StreamPtr stream;
  Deframer deframer;
  // Reused frame to frame: a handler reads these during its call and
  // copies whatever it keeps, as with any ServiceHandler.
  ValueList args;
  std::string method;
};

BinaryRpcServer::BinaryRpcServer(net::Network& net, net::NodeId node,
                                 std::uint16_t port)
    : net_(net),
      node_(node),
      port_(port),
      obs_scope_(obs::shard_registry().unique_scope("binary.server")),
      calls_served_(obs::shard_registry().counter(obs_scope_ + ".calls")),
      dispatch_latency_us_(
          obs::shard_registry().histogram(obs_scope_ + ".latency_us")) {}

BinaryRpcServer::~BinaryRpcServer() { stop(); }

Status BinaryRpcServer::start() {
  net::Node* n = net_.node(node_);
  if (n == nullptr) return not_found("binary rpc: no such node");
  auto status =
      n->listen(port_, [this](net::StreamPtr s) { on_accept(s); });
  if (!status.is_ok()) return status;
  listening_ = true;
  return Status::ok();
}

void BinaryRpcServer::stop() {
  if (!listening_) return;
  if (net::Node* n = net_.node(node_)) n->stop_listening(port_);
  listening_ = false;
  for (auto& weak : connections_) {
    if (auto conn = weak.lock(); conn && conn->stream) {
      conn->stream->set_on_data(nullptr);
      conn->stream->close();
      conn->stream = nullptr;
    }
  }
  connections_.clear();
}

void BinaryRpcServer::register_service(const std::string& name,
                                       ServiceHandler handler) {
  services_[name] = std::move(handler);
}

void BinaryRpcServer::unregister_service(const std::string& name) {
  services_.erase(name);
}

void BinaryRpcServer::on_accept(net::StreamPtr stream) {
  auto conn = std::make_shared<Conn>();
  conn->stream = stream;
  std::erase_if(connections_,
                [](const std::weak_ptr<Conn>& w) { return w.expired(); });
  connections_.push_back(conn);
  stream->set_on_close([conn] { conn->stream = nullptr; });
  stream->set_on_data([this, conn](BlockStream&& data) {
    on_data(conn, std::move(data));
  });
}

void BinaryRpcServer::on_data(std::shared_ptr<Conn> conn,
                              BlockStream&& data) {
  conn->deframer.push(std::move(data));
  std::string_view frame;
  binary_wire::Request req;
  for (;;) {
    auto got = conn->deframer.next_frame(frame);
    // A peer that sends an oversized or undecodable frame is broken;
    // the connection cannot be trusted past it.
    if (got.is_ok() && got.value() &&
        !binary_wire::decode_request(frame, req, conn->args).is_ok()) {
      got = protocol_error("bad binary request");
    }
    if (!got.is_ok()) {
      if (conn->stream) conn->stream->close();
      return;
    }
    if (!got.value()) return;
    dispatch(conn, req);
  }
}

void BinaryRpcServer::dispatch(const std::shared_ptr<Conn>& conn,
                               const binary_wire::Request& req) {
  calls_served_.inc();
  // The frame's trace ids are the caller's span; rejoin that trace for
  // the duration of the dispatch. The span label is built only while
  // tracing records.
  auto& tracer = obs::Tracer::global();
  auto& sched = net_.scheduler();
  obs::Tracer::Scope wire_scope(
      tracer, obs::TraceContext{req.trace.trace_id, req.trace.span_id, 0});
  const std::uint64_t span_id =
      tracer.enabled()
          ? tracer.begin_span("binary.server:" + std::string(req.method),
                              "binary.server", sched.now())
          : 0;
  obs::Tracer::Scope span_scope(
      tracer, span_id != 0 ? tracer.context_of(span_id) : obs::TraceContext{});

  auto reply = [conn, id = req.id, &tracer, &sched, span_id,
                &latency = dispatch_latency_us_,
                start = sched.now()](Result<Value> result) {
    latency.observe(sched.now() - start);
    tracer.end_span(span_id, sched.now(), result.is_ok());
    if (!conn->stream || !conn->stream->is_open()) return;
    BlockStream frame;
    write_reply_frame(frame, id, result);
    conn->stream->send(std::move(frame));
  };

  auto it = services_.find(req.service);
  if (it == services_.end()) {
    reply(not_found("no binary service: " + std::string(req.service)));
    return;
  }
  conn->method.assign(req.method);
  it->second(conn->method, conn->args, std::move(reply));
}

struct BinaryRpcClient::Conn {
  // One outstanding call. Its completion bookkeeping lives here rather
  // than in a wrapper around `done`, which would not fit the callback's
  // inline buffer and would cost a heap cell per call.
  struct Call {
    std::uint64_t id = 0;
    std::uint64_t span_id = 0;
    sim::SimTime start = 0;
    InvokeResultFn done;
  };
  // A call made while the connection is still being set up: already
  // encoded, sent as soon as the stream opens.
  struct Queued {
    BlockStream frame;
    Call call;
  };

  net::StreamPtr stream;
  Deframer deframer;
  bool connecting = false;
  std::uint64_t next_id = 1;
  std::vector<Queued> queued;
  std::vector<Call> pending;  // in id order; replies usually come in order
  // Long-lived: the scheduler and the registry's metrics outlive every
  // connection, including one whose client is already gone.
  sim::Scheduler* sched = nullptr;
  obs::Histogram* latency = nullptr;
  obs::Counter* errors = nullptr;

  void finish(Call& call, Result<Value> r) {
    latency->observe(sched->now() - call.start);
    if (!r.is_ok()) errors->inc();
    obs::Tracer::global().end_span(call.span_id, sched->now(), r.is_ok());
    call.done(std::move(r));
  }

  void fail_all(const Status& s) {
    auto p = std::move(pending);
    pending.clear();
    for (auto& call : p) finish(call, s);
    auto q = std::move(queued);
    queued.clear();
    for (auto& entry : q) finish(entry.call, s);
  }

  // Drops the connection after a broken frame; its calls fail.
  void abort(const Status& s) {
    if (stream) stream->close();
    fail_all(s);
  }

  void on_data(BlockStream&& data) {
    deframer.push(std::move(data));
    std::string_view frame;
    for (;;) {
      auto got = deframer.next_frame(frame);
      if (!got.is_ok()) {
        abort(got.status());
        return;
      }
      if (!got.value()) return;
      std::uint64_t id = 0;
      Result<Value> result = Value();
      if (auto s = decode_reply_frame(frame, id, result); !s.is_ok()) {
        abort(s);
        return;
      }
      auto it = std::find_if(pending.begin(), pending.end(),
                             [id](const Call& c) { return c.id == id; });
      if (it == pending.end()) continue;
      Call call = std::move(*it);
      pending.erase(it);
      finish(call, std::move(result));
    }
  }
};

BinaryRpcClient::~BinaryRpcClient() {
  for (auto& [dest, conn] : conns_) {
    if (conn->stream) conn->stream->close();
    conn->fail_all(cancelled("client destroyed"));
  }
}

std::shared_ptr<BinaryRpcClient::Conn> BinaryRpcClient::conn_for(
    net::Endpoint dest) {
  auto it = conns_.find(dest);
  if (it != conns_.end()) return it->second;
  auto conn = std::make_shared<Conn>();
  conn->sched = &net_.scheduler();
  conn->latency = &latency_;
  conn->errors = &errors_;
  conns_[dest] = conn;
  return conn;
}

void BinaryRpcClient::call(net::Endpoint dest, const std::string& service,
                           const std::string& method, const ValueList& args,
                           InvokeResultFn done) {
  calls_.inc();
  auto& tracer = obs::Tracer::global();
  auto& sched = net_.scheduler();
  const std::uint64_t span_id =
      tracer.enabled() ? tracer.begin_span("binary.call:" + method,
                                           "binary.client", sched.now())
                       : 0;
  auto conn = conn_for(dest);
  const binary_wire::Request req{
      conn->next_id++, service, method,
      span_id != 0 ? tracer.context_of(span_id) : obs::TraceContext{}};
  Conn::Call call{req.id, span_id, sched.now(), std::move(done)};
  if (conn->stream && conn->stream->is_open()) {
    BlockStream frame;
    binary_wire::write_request(frame, req, args);
    conn->pending.push_back(std::move(call));
    conn->stream->send(std::move(frame));
    return;
  }
  Conn::Queued queued{BlockStream(), std::move(call)};
  binary_wire::write_request(queued.frame, req, args);
  conn->queued.push_back(std::move(queued));
  if (!conn->connecting) connect(conn, dest);
}

void BinaryRpcClient::connect(const std::shared_ptr<Conn>& conn,
                              net::Endpoint dest) {
  conn->connecting = true;
  net_.connect(node_, dest, [conn](Result<net::StreamPtr> r) {
    conn->connecting = false;
    if (!r.is_ok()) {
      auto queued = std::move(conn->queued);
      conn->queued.clear();
      for (auto& entry : queued) conn->finish(entry.call, r.status());
      return;
    }
    conn->stream = r.value();
    conn->deframer = Deframer();
    // Weak captures: conn owns the stream, and the client's conns_ map
    // owns conn — a strong capture here would be a Conn<->Stream cycle
    // that outlives the client.
    std::weak_ptr<Conn> wconn = conn;
    conn->stream->set_on_close([wconn] {
      if (auto c = wconn.lock()) {
        c->fail_all(unavailable("binary peer closed"));
      }
    });
    conn->stream->set_on_data([wconn](BlockStream&& data) {
      if (auto c = wconn.lock()) c->on_data(std::move(data));
    });
    auto queued = std::move(conn->queued);
    conn->queued.clear();
    for (auto& entry : queued) {
      conn->pending.push_back(std::move(entry.call));
      conn->stream->send(std::move(entry.frame));
    }
  });
}

}  // namespace hcm::core
