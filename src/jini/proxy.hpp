// Client-side stub for a remote Jini service object — the analogue of
// the downloaded Jini proxy. Connects lazily and multiplexes calls on
// one stream per remote endpoint.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <string>

#include "common/service.hpp"
#include "jini/protocol.hpp"
#include "net/network.hpp"

namespace hcm::jini {

class Proxy {
 public:
  Proxy(net::Network& net, net::NodeId local_node, ServiceItem item)
      : Proxy(net, local_node, std::move(item), sim::seconds(10)) {}
  Proxy(net::Network& net, net::NodeId local_node, ServiceItem item,
        sim::Duration call_timeout);
  ~Proxy();
  Proxy(const Proxy&) = delete;
  Proxy& operator=(const Proxy&) = delete;

  [[nodiscard]] const ServiceItem& item() const { return item_; }

  // Invokes a remote method. Arguments are checked against the proxy's
  // interface before anything touches the wire.
  void invoke(const std::string& method, const ValueList& args,
              InvokeResultFn done);

  // One-way (no reply expected); only valid for one_way methods.
  Status invoke_one_way(const std::string& method, const ValueList& args);

  // As a ServiceHandler, for plugging a remote service where a local
  // object is expected.
  [[nodiscard]] ServiceHandler as_handler();

 private:
  struct Shared;  // connection + pending-call state, shared with lambdas

  void connect();

  net::Network& net_;
  net::NodeId local_node_;
  ServiceItem item_;
  std::shared_ptr<Shared> shared_;
};

}  // namespace hcm::jini
