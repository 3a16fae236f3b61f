// MiddlewareAdapter: the single abstraction a middleware must implement
// to join the framework (the paper's §3 goal — "new middleware can be
// participated in our framework effortlessly"). The PCM drives one
// adapter per island:
//   - list_services/invoke feed the Client Proxy direction (local
//     services become VSG services remote clients can call);
//   - export_service is the Server Proxy direction (remote services
//     appear as native services local clients can call).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/service.hpp"

namespace hcm::core {

struct LocalService {
  std::string name;          // globally unique deployed name ("laserdisc-1")
  InterfaceDesc interface;
  ValueMap attributes;       // middleware-specific hints (e.g. x10.on)
};

class MiddlewareAdapter {
 public:
  virtual ~MiddlewareAdapter() = default;

  // Short middleware identifier: "jini", "havi", "x10", "mail", "upnp".
  [[nodiscard]] virtual std::string middleware_name() const = 0;

  using ServicesFn = std::function<void(Result<std::vector<LocalService>>)>;
  // Enumerates services currently deployed on the local middleware.
  virtual void list_services(ServicesFn done) = 0;

  // Invokes a *local* service natively (used by generated client
  // proxies when a remote VSG call arrives).
  virtual void invoke(const std::string& service_name,
                      const std::string& method, const ValueList& args,
                      InvokeResultFn done) = 0;

  // Makes a *remote* service appear as a native local service whose
  // implementation is `handler` (a generated server proxy). Local
  // clients then use it with zero changes.
  [[nodiscard]] virtual Status export_service(const LocalService& service,
                                              ServiceHandler handler) = 0;
  virtual void unexport_service(const std::string& name) = 0;

  // Calls `done` once every native registration that export_service /
  // unexport_service made so far has been acknowledged by the
  // middleware, so exported server proxies are discoverable (and
  // retired ones gone) through native lookup. The PCM's import waits on
  // it. Adapters whose export takes effect synchronously keep the
  // default, which calls `done` at once.
  using SettledFn = std::function<void()>;
  virtual void settle(SettledFn done) { done(); }

  // --- Event bridge hooks (core/event_router) ---------------------------
  // All three default to no-ops so adapters predating the event bridge
  // (and third-party ones) keep working; islands whose middleware has a
  // native event mechanism override them.

  using AdapterEventFn =
      std::function<void(const std::string& service_name,
                         const std::string& event, const Value& payload)>;
  // Client Proxy direction: hooks the native event source of a *local*
  // service so its events reach `on_event` (which forwards them to the
  // local VSG's event router).
  [[nodiscard]] virtual Status watch_events(const LocalService& service,
                                            AdapterEventFn on_event) {
    (void)service;
    (void)on_event;
    return unimplemented(middleware_name() +
                         " adapter does not support event watch");
  }
  virtual void unwatch_events(const std::string& service_name) {
    (void)service_name;
  }

  // Server Proxy direction: re-emits an event arriving from a remote
  // island as a native event of the exported service on this island.
  virtual void emit_event(const std::string& service_name,
                          const std::string& event, const Value& payload) {
    (void)service_name;
    (void)event;
    (void)payload;
  }
};

}  // namespace hcm::core
