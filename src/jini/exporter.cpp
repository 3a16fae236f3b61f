#include "jini/exporter.hpp"

#include "common/logging.hpp"

namespace hcm::jini {

Exporter::Exporter(net::Network& net, net::NodeId node, std::uint16_t port)
    : net_(net), node_(node), port_(port) {}

Exporter::~Exporter() { stop(); }

Status Exporter::start() {
  net::Node* n = net_.node(node_);
  if (n == nullptr) return not_found("exporter: no such node");
  auto status =
      n->listen(port_, [this](net::StreamPtr stream) { on_accept(stream); });
  if (!status.is_ok()) return status;
  listening_ = true;
  return Status::ok();
}

void Exporter::stop() {
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

void Exporter::export_object(const std::string& service_id,
                             ServiceHandler handler) {
  objects_[service_id] = std::move(handler);
}

void Exporter::unexport_object(const std::string& service_id) {
  objects_.erase(service_id);
}

void Exporter::on_accept(net::StreamPtr stream) {
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

void Exporter::on_data(std::shared_ptr<Conn> conn, BlockStream&& data) {
  conn->deframer.push(std::move(data));
  std::string_view frame;
  CallView call;
  for (;;) {
    auto got = conn->deframer.next_frame(frame);
    if (!got.is_ok()) {
      log_warn("jini", "bad frame, closing: ", got.status().to_string());
      if (conn->stream) conn->stream->close();
      return;
    }
    if (!got.value()) return;
    if (auto s = decode_call(frame, call, conn->args); !s.is_ok()) {
      log_warn("jini", "undecodable call: ", s.to_string());
      if (conn->stream) conn->stream->close();
      return;
    }
    dispatch(conn, call);
  }
}

void Exporter::dispatch(const std::shared_ptr<Conn>& conn,
                        const CallView& call) {
  ++calls_served_;
  auto reply_with = [conn, call_id = call.call_id,
                     one_way = call.one_way](Result<Value> result) {
    if (one_way) return;  // fire-and-forget
    if (!conn->stream || !conn->stream->is_open()) return;
    BlockStream frame;
    write_reply_frame(frame, call_id, result);
    conn->stream->send(std::move(frame));
  };

  auto it = objects_.find(call.service_id);
  if (it == objects_.end()) {
    reply_with(
        not_found("no exported object: " + std::string(call.service_id)));
    return;
  }
  conn->method.assign(call.method);
  it->second(conn->method, conn->args, std::move(reply_with));
}

}  // namespace hcm::jini
