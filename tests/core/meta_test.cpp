// MetaMiddleware orchestration behaviours: island bookkeeping, the
// single-pass refresh_all contract, the auto-refresh loop (service
// dynamism propagating without manual sync), and graceful handling of
// add/remove edge cases.
#include <gtest/gtest.h>

#include "jini/registrar.hpp"
#include "testbed/home.hpp"

namespace hcm::testbed {
namespace {

TEST(MetaMiddlewareTest, IslandBookkeeping) {
  sim::Scheduler sched;
  SmartHome home(sched);
  EXPECT_EQ(home.meta->island_count(), 4u);
  ASSERT_NE(home.meta->island("jini-island"), nullptr);
  EXPECT_EQ(home.meta->island("jini-island")->name, "jini-island");
  EXPECT_EQ(home.meta->island("atlantis"), nullptr);
}

TEST(MetaMiddlewareTest, DuplicateIslandRejected) {
  sim::Scheduler sched;
  SmartHome home(sched);
  auto duplicate = home.meta->add_island(
      "jini-island", home.jini_gw->id(),
      std::make_unique<core::JiniAdapter>(home.net, home.jini_gw->id(),
                                          home.lookup->endpoint()));
  ASSERT_FALSE(duplicate.is_ok());
  EXPECT_EQ(duplicate.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(home.meta->island_count(), 4u);
}

TEST(MetaMiddlewareTest, RefreshAllAsksTheVsrForChangesOncePerIsland) {
  // The registry counts every changesSince it answers, as a full sync
  // (a PCM's first) or a delta. One refresh_all is one pass, cold or
  // steady: each island's import asks exactly once.
  sim::Scheduler sched;
  SmartHome home(sched);
  const auto& registry = home.vsr->registry();
  for (int pass = 0; pass < 3; ++pass) {
    const auto before = registry.delta_syncs() + registry.full_syncs();
    ASSERT_TRUE(home.refresh().is_ok()) << "pass " << pass;
    EXPECT_EQ(registry.delta_syncs() + registry.full_syncs() - before,
              home.meta->island_count())
        << "pass " << pass;
  }
}

TEST(MetaMiddlewareTest, FirstIslandImportsLastIslandsServiceInOnePass) {
  // Islands run in name order (MetaMiddleware keeps them in a map):
  // havi-island first, x10-island last. On the very first refresh_all
  // the X10 desk lamp must already be a HAVi server proxy, registered
  // in the HAVi Registry, when done fires — and every import must have
  // landed in the Jini lookup service.
  sim::Scheduler sched;
  SmartHome home(sched);
  std::optional<Status> done;
  bool havi_imported = false;
  std::size_t havi_records = 0;
  std::size_t jini_items = 0;
  home.meta->refresh_all([&](const Status& s) {
    done = s;
    havi_imported =
        home.meta->island("havi-island")->pcm->has_imported("desk-lamp");
    havi_records = home.fav->registry.size();
    jini_items = home.lookup->service_count();
  });
  sim::run_until_done(sched, [&] { return done.has_value(); });
  ASSERT_TRUE(done.has_value());
  ASSERT_TRUE(done->is_ok()) << done->to_string();
  EXPECT_TRUE(havi_imported);
  // The native laserdisc + 7 server proxies, one per foreign service.
  EXPECT_EQ(jini_items, 8u);
  // Nothing was still in flight: letting the simulation run on
  // registers no further record in either native registry.
  sched.run_for(sim::seconds(5));
  EXPECT_EQ(home.fav->registry.size(), havi_records);
  EXPECT_EQ(home.lookup->service_count(), jini_items);
}

TEST(MetaMiddlewareTest, AutoRefreshPropagatesNewServices) {
  sim::Scheduler sched;
  SmartHome home(sched);
  ASSERT_TRUE(home.refresh().is_ok());
  home.meta->start_auto_refresh(sim::seconds(30));

  // A new Jini service appears after the initial sync...
  jini::Exporter exporter(home.net, home.laserdisc_node->id(), 4290);
  ASSERT_TRUE(exporter.start().is_ok());
  exporter.export_object("md-1", [](const std::string&, const ValueList&,
                                    InvokeResultFn done) {
    done(Value(true));
  });
  jini::ServiceItem item;
  item.service_id = "md-1";
  item.name = "md-1";
  item.interface = InterfaceDesc{
      "MiniDisc", {MethodDesc{"play", {}, ValueType::kBool, false}}};
  item.endpoint = {home.laserdisc_node->id(), 4290};
  jini::Registrar registrar(home.net, home.laserdisc_node->id(),
                            home.lookup->endpoint(), item);
  registrar.join([](const Status&) {});

  // ...and becomes reachable from HAVi within ~two refresh periods,
  // with no manual sync call.
  sched.run_for(sim::seconds(70));
  std::optional<Result<Value>> r;
  home.havi_adapter->invoke("md-1", "play", {},
                            [&](Result<Value> v) { r = std::move(v); });
  sim::run_until_done(sched, [&] { return r.has_value(); });
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->is_ok()) << r->status().to_string();
  home.meta->stop_auto_refresh();
}

TEST(MetaMiddlewareTest, StopAutoRefreshStopsSyncing) {
  sim::Scheduler sched;
  SmartHome home(sched);
  ASSERT_TRUE(home.refresh().is_ok());
  home.meta->start_auto_refresh(sim::seconds(30));
  sched.run_for(sim::seconds(40));
  home.meta->stop_auto_refresh();

  const auto size_before = home.vsr->registry().size();
  // Remove the laserdisc; with auto-refresh stopped, nothing retires
  // it from the VSR even after the publish TTL would have been renewed.
  home.laserdisc.reset();
  sched.run_for(sim::seconds(40));
  EXPECT_EQ(home.vsr->registry().size(), size_before);
}

TEST(MetaMiddlewareTest, RefreshAllOnEmptyMetaCompletes) {
  sim::Scheduler sched;
  net::Network net(sched);
  auto& vsr_host = net.add_node("vsr");
  auto& eth = net.add_ethernet("bb", sim::milliseconds(5), 10'000'000);
  net.attach(vsr_host, eth);
  core::VsrServer vsr(net, vsr_host.id());
  (void)vsr.start();
  core::MetaMiddleware meta(net, vsr.endpoint());
  std::optional<Status> done;
  meta.refresh_all([&](const Status& s) { done = s; });
  sim::run_until_done(sched, [&] { return done.has_value(); });
  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(done->is_ok());
}

TEST(MetaMiddlewareTest, VsrDownFailsRefreshButFrameworkRecovers) {
  sim::Scheduler sched;
  SmartHome home(sched);
  ASSERT_TRUE(home.refresh().is_ok());

  home.vsr_node->set_up(false);
  auto status = home.refresh();
  EXPECT_FALSE(status.is_ok());

  // Existing proxies keep working (they hold direct VSG endpoints).
  std::optional<Result<Value>> r;
  home.jini_adapter->invoke("camera-1", "getStatus", {},
                            [&](Result<Value> v) { r = std::move(v); });
  sim::run_until_done(sched, [&] { return r.has_value(); });
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->is_ok());

  // VSR comes back: the next refresh succeeds again.
  home.vsr_node->set_up(true);
  EXPECT_TRUE(home.refresh().is_ok());
}

}  // namespace
}  // namespace hcm::testbed
