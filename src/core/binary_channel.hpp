// Compact binary RPC channel: the alternative VSG wire protocol for the
// §3.1 ablation ("a simple protocol is enough to integrate simple
// services ... which protocol depends on the purpose"). Length-framed
// binary Values over a stream instead of SOAP/XML over HTTP.
//
// A call is one request frame and one reply frame, both written
// straight into a pooled BlockStream and decoded field by field out of
// the shared Deframer's view (common/wire_frame.hpp): no flat copy of
// a message and no Value tree for its envelope on either side.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string_view>

#include "common/service.hpp"
#include "common/value_codec.hpp"
#include "common/wire_frame.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/slab.hpp"
#include "obs/trace.hpp"

namespace hcm::core {

// The request envelope: {args, id, method, svc[, tr]}, where tr is
// [trace_id, span_id] of the caller's span and is sent only while that
// span is traced. Replies use the shared reply envelope
// (write_reply_frame / decode_reply_frame).
namespace binary_wire {

struct Request {
  std::uint64_t id = 0;
  std::string_view service;
  std::string_view method;
  obs::TraceContext trace;  // only trace_id and span_id travel
};

// Appends one request frame (length prefix included) to `out`. The
// bytes equal frame(encode_value(Value(ValueMap{...}))) of the same
// envelope.
void write_request(BlockStream& out, const Request& req,
                   const ValueList& args);

// Decodes a request frame. `req`'s views point into `frame`; `args` is
// cleared and refilled, so callers can reuse its capacity. Fields of
// unexpected type read as absent (id 0, empty names, no args); a
// non-map envelope, trailing bytes and every value-codec error are
// protocol errors.
[[nodiscard]] Status decode_request(std::string_view frame, Request& req,
                                    ValueList& args);

}  // namespace binary_wire

// Serves named services over the binary protocol.
class BinaryRpcServer {
 public:
  BinaryRpcServer(net::Network& net, net::NodeId node, std::uint16_t port);
  ~BinaryRpcServer();
  BinaryRpcServer(const BinaryRpcServer&) = delete;
  BinaryRpcServer& operator=(const BinaryRpcServer&) = delete;

  [[nodiscard]] Status start();
  void stop();

  void register_service(const std::string& name, ServiceHandler handler);
  void unregister_service(const std::string& name);

  [[nodiscard]] net::Endpoint endpoint() const { return {node_, port_}; }
  [[nodiscard]] std::uint64_t calls_served() const {
    return calls_served_.value();
  }

 private:
  struct Conn;
  void on_accept(net::StreamPtr stream);
  // By value: the stream's handler may be dropped while a frame is
  // being dispatched, and the connection must outlive that.
  void on_data(std::shared_ptr<Conn> conn, BlockStream&& data);
  void dispatch(const std::shared_ptr<Conn>& conn,
                const binary_wire::Request& req);

  net::Network& net_;
  net::NodeId node_;
  std::uint16_t port_;
  bool listening_ = false;
  // Live connections, detached on stop() (their callbacks capture this).
  std::vector<std::weak_ptr<Conn>> connections_;
  std::map<std::string, ServiceHandler, std::less<>> services_;
  std::string obs_scope_;
  obs::Counter& calls_served_;
  obs::Histogram& dispatch_latency_us_;
};

// Client: one lazy connection per destination endpoint.
class BinaryRpcClient {
 public:
  BinaryRpcClient(net::Network& net, net::NodeId node)
      : net_(net), node_(node) {}
  ~BinaryRpcClient();
  BinaryRpcClient(const BinaryRpcClient&) = delete;
  BinaryRpcClient& operator=(const BinaryRpcClient&) = delete;

  void call(net::Endpoint dest, const std::string& service,
            const std::string& method, const ValueList& args,
            InvokeResultFn done);

 private:
  struct Conn;
  std::shared_ptr<Conn> conn_for(net::Endpoint dest);
  void connect(const std::shared_ptr<Conn>& conn, net::Endpoint dest);

  net::Network& net_;
  net::NodeId node_;
  std::map<net::Endpoint, std::shared_ptr<Conn>> conns_;
  // Registry handles bound per instance (clients are per-island, so no
  // shard ever reaches another island's client); the metrics are still
  // the shared global names and the counters themselves are atomic.
  obs::Counter& calls_ = obs::shard_registry().counter("binary.client.calls");
  obs::Counter& errors_ =
      obs::shard_registry().counter("binary.client.errors");
  obs::Histogram& latency_ =
      obs::shard_registry().histogram("binary.client.latency_us");
};

}  // namespace hcm::core
