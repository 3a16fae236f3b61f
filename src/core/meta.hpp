// MetaMiddleware: the orchestration facade over the whole framework —
// "a kind of Meta middleware" (paper §6). Owns the VSG + PCM pair for
// every middleware island and drives synchronization, so an application
// adds an island in one call and services flow everywhere.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/event_router.hpp"
#include "core/pcm.hpp"
#include "core/vsg.hpp"
#include "core/vsr.hpp"
#include "obs/health.hpp"
#include "obs/service.hpp"
#include "obs/timeseries.hpp"

namespace hcm::core {

class MetaMiddleware {
 public:
  MetaMiddleware(net::Network& net, net::Endpoint vsr)
      : net_(net), vsr_(vsr) {}
  MetaMiddleware(const MetaMiddleware&) = delete;
  MetaMiddleware& operator=(const MetaMiddleware&) = delete;

  struct Island {
    std::string name;
    std::unique_ptr<VirtualServiceGateway> vsg;
    std::unique_ptr<Pcm> pcm;
    // Declared after pcm: the router is destroyed first, so the
    // adapter it watches events through always outlives it.
    std::unique_ptr<EventRouter> events;
  };

  // Connects a middleware island: creates its VSG on `gateway_node` and
  // a PCM driving `adapter`. New middleware participates by providing
  // only the adapter — the §3 "effortlessly" property.
  [[nodiscard]] Result<Island*> add_island(
      const std::string& name, net::NodeId gateway_node,
      std::unique_ptr<MiddlewareAdapter> adapter,
      VsgProtocol protocol = VsgProtocol::kSoap, std::uint16_t port = 8080);

  [[nodiscard]] Island* island(const std::string& name);
  [[nodiscard]] std::size_t island_count() const { return islands_.size(); }

  // Synchronization strategy for every PCM, current and future. Delta
  // (the default) makes refresh_all O(changes); snapshot is the
  // original full-transfer behaviour, kept as the bench baseline.
  void set_sync_mode(Pcm::SyncMode mode);
  [[nodiscard]] Pcm::SyncMode sync_mode() const { return sync_mode_; }

  using DoneFn = std::function<void(const Status&)>;
  // One synchronization pass over all islands, in two phases: every PCM
  // publishes (lists its locals, publishes or unpublishes them, renews
  // its lease), and only then does every PCM whose publish succeeded
  // import. Each import therefore sees every island's publications of
  // this pass, so island order doesn't matter, and one pass costs one
  // changesSince per island. `done` fires once every imported server
  // proxy is visible through its island's native lookup (the adapters'
  // settle contract), with the first error any island reported.
  void refresh_all(DoneFn done);

  // Starts periodic refresh (service dynamism: arrivals/departures
  // propagate within one period).
  void start_auto_refresh(sim::Duration period);
  void stop_auto_refresh();

  // Mounts the introspection service ("observability-<island>") on the
  // island's VSG and publishes its WSDL to the VSR, so any connected
  // middleware can call getMetrics/getTrace through the framework
  // itself. Opt-in: it adds a VSR entry, which applications counting
  // deployed services would otherwise see. refresh_all renews the
  // publication's lease alongside the PCMs'.
  [[nodiscard]] Status enable_observability(const std::string& island_name);
  [[nodiscard]] bool observability_enabled(
      const std::string& island_name) const {
    return obs_exports_.count(island_name) != 0;
  }

  // Wires the fleet telemetry backends (owned by the scenario) into the
  // framework: getSeries/getHealth on every observability exposure are
  // served from `recorder`/`health`, and health-state transitions are
  // re-injected as healthChanged events on each obs-enabled island's
  // event bridge, so any island can subscribe to them like any other
  // cross-middleware event. Either pointer may be null; applies to
  // islands enabled before and after the call.
  void attach_telemetry(obs::TimeSeriesRecorder* recorder,
                        obs::HealthMonitor* health);

 private:
  struct ObsExport {
    std::string service_name;  // "observability-<island>"
    std::string wsdl;
    net::NodeId node = 0;  // the island gateway — the export's home shard
    std::unique_ptr<VsrClient> vsr;
  };

  // Runs `phase` (Pcm::publish or Pcm::import) on every PCM, each on
  // its gateway's shard, and calls `next` on the caller's shard with
  // the statuses in `pcms` order once all have finished.
  void run_phase(std::vector<Pcm*> pcms, void (Pcm::*phase)(Pcm::DoneFn),
                 std::function<void(std::vector<Status>)> next);
  void republish_observability(DoneFn done);

  net::Network& net_;
  net::Endpoint vsr_;
  Pcm::SyncMode sync_mode_ = Pcm::SyncMode::kDelta;
  std::map<std::string, Island> islands_;
  std::map<std::string, ObsExport> obs_exports_;
  std::unique_ptr<obs::ObservabilityService> obs_service_;
  obs::TimeSeriesRecorder* recorder_ = nullptr;
  obs::HealthMonitor* health_ = nullptr;
  sim::EventId refresh_event_ = 0;
  bool auto_refresh_ = false;
};

}  // namespace hcm::core
