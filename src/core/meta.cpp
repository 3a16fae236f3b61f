#include "core/meta.hpp"

#include "core/shard_channel.hpp"
#include "soap/wsdl.hpp"

namespace hcm::core {

Result<MetaMiddleware::Island*> MetaMiddleware::add_island(
    const std::string& name, net::NodeId gateway_node,
    std::unique_ptr<MiddlewareAdapter> adapter, VsgProtocol protocol,
    std::uint16_t port) {
  if (islands_.count(name) != 0) {
    return already_exists("island already connected: " + name);
  }
  Island island;
  island.name = name;
  island.vsg = std::make_unique<VirtualServiceGateway>(net_, gateway_node,
                                                       name, port, protocol);
  auto status = island.vsg->start();
  if (!status.is_ok()) return status;
  island.pcm =
      std::make_unique<Pcm>(net_, *island.vsg, vsr_, std::move(adapter));
  island.pcm->set_sync_mode(sync_mode_);
  island.events = std::make_unique<EventRouter>(
      net_, *island.vsg, island.pcm->adapter(), vsr_);
  status = island.events->start();
  if (!status.is_ok()) return status;
  auto [it, inserted] = islands_.emplace(name, std::move(island));
  return &it->second;
}

void MetaMiddleware::set_sync_mode(Pcm::SyncMode mode) {
  sync_mode_ = mode;
  for (auto& [name, island] : islands_) island.pcm->set_sync_mode(mode);
}

MetaMiddleware::Island* MetaMiddleware::island(const std::string& name) {
  auto it = islands_.find(name);
  return it == islands_.end() ? nullptr : &it->second;
}

void MetaMiddleware::run_phase(
    std::vector<Pcm*> pcms, void (Pcm::*phase)(Pcm::DoneFn),
    std::function<void(std::vector<Status>)> next) {
  // Each island's PCM runs on the shard owning its gateway node; the
  // phase must be initiated there, and the per-island completions
  // marshaled back to the caller's shard, where the shared round
  // bookkeeping lives (single-writer, so no atomics needed).
  if (pcms.empty()) {
    next({});
    return;
  }
  struct Round {
    std::vector<Status> statuses;
    std::size_t remaining;
    std::function<void(std::vector<Status>)> next;
  };
  auto round = std::make_shared<Round>(
      Round{std::vector<Status>(pcms.size()), pcms.size(), std::move(next)});
  const sim::ShardId origin = ShardChannel::current_shard(net_);
  for (std::size_t i = 0; i < pcms.size(); ++i) {
    Pcm* pcm = pcms[i];
    ShardChannel::run_on_node(
        net_, pcm->vsg().node(), [this, origin, pcm, phase, round, i] {
          (pcm->*phase)([this, origin, round, i](const Status& s) {
            ShardChannel::run_on_shard(net_, origin, [s, round, i] {
              round->statuses[i] = s;
              if (--round->remaining == 0) {
                round->next(std::move(round->statuses));
              }
            });
          });
        });
  }
}

void MetaMiddleware::refresh_all(DoneFn done) {
  // One pass in two phases. Every island publishes (and renews its
  // lease) before any island imports, so each import already sees every
  // other island's changes from this round, whatever the island order.
  // An island whose publish failed sits the import out; the rest still
  // import, so a dead island cannot freeze the healthy ones' view.
  std::vector<Pcm*> pcms;
  pcms.reserve(islands_.size());
  for (auto& [name, island] : islands_) pcms.push_back(island.pcm.get());
  run_phase(
      pcms, &Pcm::publish,
      [this, pcms, done = std::move(done)](
          std::vector<Status> published) mutable {
        Status first_error;
        std::vector<Pcm*> importers;
        for (std::size_t i = 0; i < pcms.size(); ++i) {
          if (published[i].is_ok()) {
            importers.push_back(pcms[i]);
          } else if (first_error.is_ok()) {
            first_error = published[i];
          }
        }
        run_phase(
            std::move(importers), &Pcm::import,
            [this, first_error, done = std::move(done)](
                std::vector<Status> imported) mutable {
              for (const auto& s : imported) {
                if (!s.is_ok() && first_error.is_ok()) first_error = s;
              }
              if (!first_error.is_ok()) {
                done(first_error);
                return;
              }
              // Renew the observability publications so an enabled
              // island's introspection entry keeps its lease exactly
              // like the PCM-published services.
              republish_observability(std::move(done));
            });
      });
}

Status MetaMiddleware::enable_observability(const std::string& island_name) {
  Island* isl = island(island_name);
  if (isl == nullptr) {
    return not_found("no such island: " + island_name);
  }
  if (obs_exports_.count(island_name) != 0) return Status::ok();
  if (obs_service_ == nullptr) {
    obs_service_ = std::make_unique<obs::ObservabilityService>(
        obs::Registry::global(), obs::Tracer::global());
    obs_service_->set_recorder(recorder_);
    obs_service_->set_health(health_);
  }
  ObsExport exp;
  exp.service_name =
      std::string(obs::ObservabilityService::kServiceName) + "-" + island_name;
  const InterfaceDesc iface = obs::ObservabilityService::describe_interface();
  auto uri = isl->vsg->expose(exp.service_name, iface, obs_service_->handler());
  if (!uri.is_ok()) return uri.status();
  exp.wsdl = soap::emit_wsdl(iface, exp.service_name, uri.value());
  exp.node = isl->vsg->node();
  exp.vsr = std::make_unique<VsrClient>(net_, exp.node, vsr_);

  VsrEntry entry;
  entry.name = exp.service_name;
  entry.category = iface.name;
  entry.origin = island_name;
  entry.wsdl = exp.wsdl;
  // Initiate from the gateway's shard so the client's events live
  // where its node does.
  ShardChannel::run_on_node(
      net_, exp.node, [vsr = exp.vsr.get(), entry = std::move(entry)] {
        vsr->publish(entry, Pcm::kPublishTtl, [](const Status&) {});
      });
  obs_exports_.emplace(island_name, std::move(exp));
  return Status::ok();
}

void MetaMiddleware::attach_telemetry(obs::TimeSeriesRecorder* recorder,
                                      obs::HealthMonitor* health) {
  recorder_ = recorder;
  health_ = health;
  if (obs_service_ != nullptr) {
    obs_service_->set_recorder(recorder_);
    obs_service_->set_health(health_);
  }
  if (health_ == nullptr) return;
  health_->set_transition_fn([this](const obs::HealthTransition& tr) {
    // Health transitions fire from the recorder's quiesced sampling
    // points (window barriers / sampling events). Re-inject them as
    // native events of every obs-enabled island's observability
    // exposure, from that island's own shard, so cross-island
    // subscribers receive healthChanged like any adapter event.
    const Value payload = tr.to_value();
    for (const auto& [island_name, exp] : obs_exports_) {
      Island* isl = island(island_name);
      if (isl == nullptr || isl->events == nullptr) continue;
      ShardChannel::run_on_node(
          net_, exp.node,
          [events = isl->events.get(), service = exp.service_name, payload] {
            events->on_native_event(service, "healthChanged", payload);
          });
    }
  });
}

void MetaMiddleware::republish_observability(DoneFn done) {
  auto remaining = std::make_shared<std::size_t>(obs_exports_.size());
  if (*remaining == 0) {
    done(Status::ok());
    return;
  }
  const sim::ShardId origin = ShardChannel::current_shard(net_);
  auto first_error = std::make_shared<Status>();
  auto done_shared = std::make_shared<DoneFn>(std::move(done));
  for (auto& [island_name, exp] : obs_exports_) {
    VsrEntry entry;
    entry.name = exp.service_name;
    entry.category = "Observability";
    entry.origin = island_name;
    entry.wsdl = exp.wsdl;
    // Same shard discipline as refresh_all: publish from the gateway's
    // shard, collect on the caller's.
    ShardChannel::run_on_node(
        net_, exp.node,
        [this, origin, vsr = exp.vsr.get(), entry = std::move(entry),
         remaining, first_error, done_shared] {
          vsr->publish(entry, Pcm::kPublishTtl,
                       [this, origin, remaining, first_error,
                        done_shared](const Status& s) {
                         ShardChannel::run_on_shard(
                             net_, origin,
                             [s, remaining, first_error, done_shared] {
                               if (!s.is_ok() && first_error->is_ok())
                                 *first_error = s;
                               if (--*remaining == 0)
                                 (*done_shared)(*first_error);
                             });
                       });
        });
  }
}

void MetaMiddleware::start_auto_refresh(sim::Duration period) {
  stop_auto_refresh();
  auto_refresh_ = true;
  refresh_event_ = net_.scheduler().after(period, [this, period] {
    refresh_event_ = 0;
    refresh_all([this, period](const Status&) {
      if (auto_refresh_) start_auto_refresh(period);
    });
  });
}

void MetaMiddleware::stop_auto_refresh() {
  auto_refresh_ = false;
  if (refresh_event_ != 0) {
    net_.scheduler().cancel(refresh_event_);
    refresh_event_ = 0;
  }
}

}  // namespace hcm::core
