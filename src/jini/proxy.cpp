#include "jini/proxy.hpp"

#include <algorithm>

namespace hcm::jini {

struct Proxy::Shared {
  struct Pending {
    std::uint64_t call_id = 0;
    InvokeResultFn done;
    sim::EventId timeout_event = 0;
  };
  // A call made while the connection is still being set up: already
  // encoded, sent as soon as the stream opens.
  struct Queued {
    BlockStream frame;
    std::uint64_t call_id = 0;
    bool one_way = false;
    InvokeResultFn done;
  };

  net::StreamPtr stream;
  Deframer deframer;
  bool connecting = false;
  bool closed = false;  // the Proxy is gone
  std::vector<Queued> queued;
  std::uint64_t next_call_id = 1;
  std::vector<Pending> pending;  // in call-id order
  sim::Scheduler* sched = nullptr;
  sim::Duration call_timeout = 0;

  void fail_all(const Status& status) {
    auto pending_now = std::move(pending);
    pending.clear();
    for (auto& p : pending_now) {
      if (p.timeout_event != 0) sched->cancel(p.timeout_event);
      if (p.done) p.done(status);
    }
    auto queued_now = std::move(queued);
    queued.clear();
    for (auto& q : queued_now) q.done(status);
  }

  // Sends an encoded call on the open stream. `self` is this object; the
  // call's timeout holds it.
  void transmit(const std::shared_ptr<Shared>& self, Queued&& q) {
    if (q.one_way) {
      stream->send(std::move(q.frame));
      q.done(Value());
      return;
    }
    Pending p;
    p.call_id = q.call_id;
    p.done = std::move(q.done);
    p.timeout_event =
        sched->after(call_timeout, [self, call_id = q.call_id] {
          auto it = self->find(call_id);
          if (it == self->pending.end()) return;
          auto timed_out = std::move(it->done);
          self->pending.erase(it);
          timed_out(timeout("jini call timed out"));
        });
    pending.push_back(std::move(p));
    stream->send(std::move(q.frame));
  }

  std::vector<Pending>::iterator find(std::uint64_t call_id) {
    return std::find_if(
        pending.begin(), pending.end(),
        [call_id](const Pending& p) { return p.call_id == call_id; });
  }

  void on_data(BlockStream&& data) {
    deframer.push(std::move(data));
    std::string_view frame;
    for (;;) {
      auto got = deframer.next_frame(frame);
      std::uint64_t call_id = 0;
      Result<Value> result = Value();
      if (got.is_ok() && got.value()) {
        if (auto s = decode_reply_frame(frame, call_id, result); !s.is_ok()) {
          got = s;
        }
      }
      if (!got.is_ok()) {
        // A broken frame ends the connection; its calls fail now rather
        // than at their timeouts.
        stream->close();
        fail_all(got.status());
        return;
      }
      if (!got.value()) return;
      auto it = find(call_id);
      if (it == pending.end()) continue;
      auto p = std::move(*it);
      pending.erase(it);
      if (p.timeout_event != 0) sched->cancel(p.timeout_event);
      p.done(std::move(result));
    }
  }
};

Proxy::Proxy(net::Network& net, net::NodeId local_node, ServiceItem item,
             sim::Duration call_timeout)
    : net_(net),
      local_node_(local_node),
      item_(std::move(item)),
      shared_(std::make_shared<Shared>()) {
  shared_->sched = &net.scheduler();
  shared_->call_timeout = call_timeout;
}

Proxy::~Proxy() {
  shared_->closed = true;
  if (shared_->stream) shared_->stream->close();
  shared_->fail_all(cancelled("proxy destroyed"));
}

void Proxy::connect() {
  shared_->connecting = true;
  auto shared = shared_;
  net_.connect(local_node_, item_.endpoint,
               [shared](Result<net::StreamPtr> r) {
                 shared->connecting = false;
                 if (shared->closed) {
                   // Destroyed while connecting; its calls have already
                   // failed. Adopting the stream would tie it and this
                   // state into a cycle that is never freed.
                   if (r.is_ok()) r.value()->close();
                   return;
                 }
                 auto queued = std::move(shared->queued);
                 shared->queued.clear();
                 if (!r.is_ok()) {
                   for (auto& q : queued) q.done(r.status());
                   return;
                 }
                 shared->stream = r.value();
                 shared->deframer = Deframer();
                 shared->stream->set_on_close(
                     [shared] { shared->fail_all(unavailable("peer closed")); });
                 shared->stream->set_on_data([shared](BlockStream&& data) {
                   shared->on_data(std::move(data));
                 });
                 for (auto& q : queued) shared->transmit(shared, std::move(q));
               });
}

void Proxy::invoke(const std::string& method, const ValueList& args,
                   InvokeResultFn done) {
  const MethodDesc* desc = item_.interface.find_method(method);
  if (desc == nullptr) {
    done(not_found("interface " + item_.interface.name + " has no method " +
                   method));
    return;
  }
  if (auto status = check_args(*desc, args); !status.is_ok()) {
    done(status);
    return;
  }
  Shared::Queued call;
  call.call_id = shared_->next_call_id++;
  call.one_way = desc->one_way;
  call.done = std::move(done);
  write_call_frame(call.frame, call.call_id, item_.service_id, method, args,
                   call.one_way);
  if (shared_->stream && shared_->stream->is_open()) {
    shared_->transmit(shared_, std::move(call));
    return;
  }
  shared_->queued.push_back(std::move(call));
  if (!shared_->connecting) connect();
}

Status Proxy::invoke_one_way(const std::string& method,
                             const ValueList& args) {
  const MethodDesc* desc = item_.interface.find_method(method);
  if (desc == nullptr) return not_found("no method " + method);
  if (!desc->one_way) {
    return invalid_argument(method + " is not a one-way method");
  }
  invoke(method, args, [](Result<Value>) {});
  return Status::ok();
}

ServiceHandler Proxy::as_handler() {
  // The handler shares the proxy's connection state, so it stays valid
  // for the proxy's lifetime (PCMs own their proxies).
  return [this](const std::string& method, const ValueList& args,
                InvokeResultFn done) { invoke(method, args, std::move(done)); };
}

}  // namespace hcm::jini
