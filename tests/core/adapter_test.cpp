// Unit tests for the PCM adapters' conversion policies (the pieces not
// already covered by the whole-home integration tests).
#include <gtest/gtest.h>

#include "core/adapters/mail_adapter.hpp"
#include "core/adapters/x10_adapter.hpp"
#include "testbed/home.hpp"

namespace hcm::core {
namespace {

// --- MailAdapter::parse_arg: the mail-body argument convention --------

TEST(MailArgParsing, Integers) {
  EXPECT_EQ(MailAdapter::parse_arg("42"), Value(42));
  EXPECT_EQ(MailAdapter::parse_arg("-7"), Value(-7));
  EXPECT_EQ(MailAdapter::parse_arg("0"), Value(0));
}

TEST(MailArgParsing, Doubles) {
  EXPECT_EQ(MailAdapter::parse_arg("3.5"), Value(3.5));
  EXPECT_EQ(MailAdapter::parse_arg("-0.25"), Value(-0.25));
}

TEST(MailArgParsing, Booleans) {
  EXPECT_EQ(MailAdapter::parse_arg("true"), Value(true));
  EXPECT_EQ(MailAdapter::parse_arg("false"), Value(false));
}

TEST(MailArgParsing, StringsAndTrimming) {
  EXPECT_EQ(MailAdapter::parse_arg("hello world"), Value("hello world"));
  EXPECT_EQ(MailAdapter::parse_arg("  padded  "), Value("padded"));
  // Mixed alphanumerics stay strings.
  EXPECT_EQ(MailAdapter::parse_arg("42abc"), Value("42abc"));
  EXPECT_EQ(MailAdapter::parse_arg("1.2.3"), Value("1.2.3"));
}

// --- X10Adapter: ON/OFF method mapping policy --------------------------

class X10MappingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    node = &net.add_node("x10-gw");
    powerline = &net.add_powerline("pl");
    net.attach(*node, *powerline);
    cm11a = std::make_unique<x10::Cm11aController>(net, node->id(),
                                                   *powerline);
    adapter = std::make_unique<X10Adapter>(net, *cm11a,
                                           std::vector<X10DeviceConfig>{});
  }

  Status export_with(const InterfaceDesc& iface, const ValueMap& attrs = {}) {
    LocalService service;
    service.name = "svc-" + std::to_string(++counter);
    service.interface = iface;
    service.attributes = attrs;
    return adapter->export_service(
        service, [](const std::string&, const ValueList&,
                    InvokeResultFn done) { done(Value(true)); });
  }

  sim::Scheduler sched;
  net::Network net{sched};
  net::Node* node = nullptr;
  net::PowerlineSegment* powerline = nullptr;
  std::unique_ptr<x10::Cm11aController> cm11a;
  std::unique_ptr<X10Adapter> adapter;
  int counter = 0;
};

TEST_F(X10MappingTest, ConventionalNamesMap) {
  for (const char* on_name :
       {"turnOn", "powerOn", "play", "startCapture", "start"}) {
    InterfaceDesc iface{
        "I", {MethodDesc{on_name, {}, ValueType::kBool, false}}};
    EXPECT_TRUE(export_with(iface).is_ok()) << on_name;
  }
}

TEST_F(X10MappingTest, ArgumentMethodsDoNotMap) {
  InterfaceDesc iface{
      "Mail",
      {MethodDesc{"sendMail",
                  {{"to", ValueType::kString}, {"s", ValueType::kString}},
                  ValueType::kBool,
                  false}}};
  auto status = export_with(iface);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(X10MappingTest, HintAttributesOverrideConvention) {
  InterfaceDesc iface{
      "Odd",
      {MethodDesc{"activate", {}, ValueType::kBool, false},
       MethodDesc{"deactivate", {}, ValueType::kBool, false}}};
  ValueMap attrs{{"x10.on", Value("activate")},
                 {"x10.off", Value("deactivate")}};
  EXPECT_TRUE(export_with(iface, attrs).is_ok());
}

TEST_F(X10MappingTest, UnitPoolExhaustsAtSixteen) {
  InterfaceDesc iface{"I", {MethodDesc{"turnOn", {}, ValueType::kBool,
                                       false}}};
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(export_with(iface).is_ok()) << "unit " << i;
  }
  auto status = export_with(iface);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

TEST_F(X10MappingTest, UnexportFreesName) {
  InterfaceDesc iface{"I", {MethodDesc{"turnOn", {}, ValueType::kBool,
                                       false}}};
  LocalService service;
  service.name = "re-exportable";
  service.interface = iface;
  auto handler = [](const std::string&, const ValueList&,
                    InvokeResultFn done) { done(Value(true)); };
  ASSERT_TRUE(adapter->export_service(service, handler).is_ok());
  ASSERT_TRUE(adapter->unit_for("re-exportable").is_ok());
  adapter->unexport_service("re-exportable");
  EXPECT_FALSE(adapter->unit_for("re-exportable").is_ok());
  EXPECT_TRUE(adapter->export_service(service, handler).is_ok());
}

TEST_F(X10MappingTest, UnitsAreDistinct) {
  InterfaceDesc iface{"I", {MethodDesc{"turnOn", {}, ValueType::kBool,
                                       false}}};
  ASSERT_TRUE(export_with(iface).is_ok());
  ASSERT_TRUE(export_with(iface).is_ok());
  auto u1 = adapter->unit_for("svc-1");
  auto u2 = adapter->unit_for("svc-2");
  ASSERT_TRUE(u1.is_ok());
  ASSERT_TRUE(u2.is_ok());
  EXPECT_NE(u1.value(), u2.value());
}

TEST_F(X10MappingTest, FreedUnitCodesAreReused) {
  InterfaceDesc iface{"I", {MethodDesc{"turnOn", {}, ValueType::kBool,
                                       false}}};
  auto handler = [](const std::string&, const ValueList&,
                    InvokeResultFn done) { done(Value(true)); };
  // Fifteen long-lived bindings hold units 1..15.
  for (int i = 0; i < 15; ++i) ASSERT_TRUE(export_with(iface).is_ok());
  // Fifty arrivals and departures through the one free unit: each
  // arrival stays bindable and gets the freed code back.
  for (int cycle = 0; cycle < 50; ++cycle) {
    LocalService service;
    service.name = "churn-" + std::to_string(cycle);
    service.interface = iface;
    ASSERT_TRUE(adapter->export_service(service, handler).is_ok()) << cycle;
    EXPECT_EQ(adapter->unit_for(service.name).value(), 16) << cycle;
    adapter->unexport_service(service.name);
  }
  // The lowest free code is handed out first.
  adapter->unexport_service("svc-3");
  ASSERT_TRUE(export_with(iface).is_ok());
  EXPECT_EQ(adapter->unit_for("svc-16").value(), 3);
  // With all sixteen live the house is full.
  ASSERT_TRUE(export_with(iface).is_ok());
  auto status = export_with(iface);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

TEST_F(X10MappingTest, UnmappableServiceTakesNoUnit) {
  InterfaceDesc unmappable{
      "Mail",
      {MethodDesc{"send", {{"to", ValueType::kString}}, ValueType::kBool,
                  false}}};
  InterfaceDesc iface{"I", {MethodDesc{"turnOn", {}, ValueType::kBool,
                                       false}}};
  EXPECT_FALSE(export_with(unmappable).is_ok());
  ASSERT_TRUE(export_with(iface).is_ok());
  EXPECT_EQ(adapter->unit_for("svc-2").value(), 1);
}

// --- MailAdapter: unexport while a mailbox poll is connecting ------------

TEST(MailAdapterChurn, UnexportMidPollIsSafe) {
  sim::Scheduler sched;
  net::Network net{sched};
  auto& mail_host = net.add_node("mail-host");
  auto& gateway = net.add_node("mail-gw");
  auto& wan = net.add_ethernet("internet", sim::milliseconds(20), 10'000'000);
  net.attach(mail_host, wan);
  net.attach(gateway, wan);
  mail::MailServer server(net, mail_host.id());
  ASSERT_TRUE(server.start().is_ok());
  MailAdapter adapter(net, gateway.id(), mail_host.id(), "home",
                      sim::seconds(5));
  LocalService service;
  service.name = "lamp";
  service.interface = InterfaceDesc{
      "Switch", {MethodDesc{"turnOn", {}, ValueType::kBool, false}}};
  int invoked = 0;
  ASSERT_TRUE(adapter
                  .export_service(service,
                                  [&](const std::string&, const ValueList&,
                                      InvokeResultFn done) {
                                    ++invoked;
                                    done(Value(true));
                                  })
                  .is_ok());
  // The first poll fires at 5 s and opens a POP connection, which takes
  // a WAN round trip; the departure lands while it is in flight and
  // destroys the mailbox watcher under it.
  sched.run_until(sched.now() + sim::seconds(5));
  adapter.unexport_service("lamp");
  // A message the departed service must never see.
  mail::Message m;
  m.from = "bob";
  m.to = "svc-lamp";
  m.subject = "turnOn";
  server.deliver(m);
  sched.run_until(sched.now() + sim::seconds(30));
  EXPECT_EQ(invoked, 0);
  // The service can come back and is served again.
  ASSERT_TRUE(adapter
                  .export_service(service,
                                  [&](const std::string&, const ValueList&,
                                      InvokeResultFn done) {
                                    ++invoked;
                                    done(Value(true));
                                  })
                  .is_ok());
  sched.run_until(sched.now() + sim::seconds(30));
  EXPECT_EQ(invoked, 1);
  adapter.unexport_service("lamp");
}

// --- settle(): native registrations have landed when it fires ----------

class SettleTest : public ::testing::Test {
 protected:
  static LocalService probe() {
    LocalService service;
    service.name = "settle-probe";
    service.interface = InterfaceDesc{
        "Switchable", {MethodDesc{"turnOn", {}, ValueType::kBool, false}}};
    return service;
  }
  static void echo(const std::string&, const ValueList&, InvokeResultFn done) {
    done(Value(true));
  }

  // Calls adapter.settle and drains until it fires; returns what
  // `observe` read at the moment it fired (nullopt if it never did).
  template <typename Observe>
  std::optional<std::size_t> settle(MiddlewareAdapter& adapter,
                                    Observe observe) {
    std::optional<std::size_t> at_settle;
    adapter.settle([&] { at_settle = observe(); });
    sim::run_until_done(sched, [&] { return at_settle.has_value(); });
    return at_settle;
  }

  sim::Scheduler sched;
  testbed::SmartHome home{sched};
};

TEST_F(SettleTest, JiniSettlesOnceTheLookupServiceHasTheProxy) {
  auto lookup_items = [&] { return home.lookup->service_count(); };
  const std::size_t before = lookup_items();
  ASSERT_TRUE(home.jini_adapter->export_service(probe(), echo).is_ok());
  bool early = false;
  home.jini_adapter->settle([&] { early = true; });
  EXPECT_FALSE(early) << "the lease join cannot have landed yet";
  EXPECT_EQ(settle(*home.jini_adapter, lookup_items), before + 1);
  EXPECT_TRUE(early);

  home.jini_adapter->unexport_service("settle-probe");
  EXPECT_EQ(settle(*home.jini_adapter, lookup_items), before);
}

TEST_F(SettleTest, JiniUnexportBeforeTheJoinLandsDoesNotHang) {
  // The departure destroys the registrar while its join is queued; the
  // proxy fails the join, which counts as landed.
  auto lookup_items = [&] { return home.lookup->service_count(); };
  const std::size_t before = lookup_items();
  ASSERT_TRUE(home.jini_adapter->export_service(probe(), echo).is_ok());
  home.jini_adapter->unexport_service("settle-probe");
  EXPECT_EQ(settle(*home.jini_adapter, lookup_items), before);
  sched.run_for(sim::seconds(5));
  EXPECT_EQ(lookup_items(), before);
}

TEST_F(SettleTest, HaviSettlesOnceTheRegistryHasTheProxy) {
  auto records = [&] { return home.fav->registry.size(); };
  const std::size_t before = records();
  ASSERT_TRUE(home.havi_adapter->export_service(probe(), echo).is_ok());
  EXPECT_EQ(settle(*home.havi_adapter, records), before + 1);

  home.havi_adapter->unexport_service("settle-probe");
  EXPECT_EQ(settle(*home.havi_adapter, records), before);
}

TEST_F(SettleTest, HaviUnexportBeforeTheRecordLandsDoesNotHang) {
  auto records = [&] { return home.fav->registry.size(); };
  const std::size_t before = records();
  ASSERT_TRUE(home.havi_adapter->export_service(probe(), echo).is_ok());
  home.havi_adapter->unexport_service("settle-probe");
  EXPECT_EQ(settle(*home.havi_adapter, records), before);
}

TEST_F(SettleTest, SynchronousAdaptersSettleAtOnce) {
  // X10 binds a unit code inside export_service: nothing to wait for.
  ASSERT_TRUE(home.x10_adapter->export_service(probe(), echo).is_ok());
  bool settled = false;
  home.x10_adapter->settle([&] { settled = true; });
  EXPECT_TRUE(settled);
}

// --- Mail island end-to-end with custom poll interval -------------------

TEST(MailIslandPolling, PollIntervalBoundsNotificationLatency) {
  sim::Scheduler sched;
  testbed::SmartHomeOptions options;
  options.mail_poll = sim::seconds(20);
  testbed::SmartHome home(sched, options);
  ASSERT_TRUE(home.refresh().is_ok());

  mail::MailClient sender(home.net, home.laserdisc_node->id(),
                          home.mail_node->id());
  mail::Message m;
  m.from = "bob";
  m.to = "svc-desk-lamp";
  m.subject = "turnOn";
  sim::SimTime t0 = sched.now();
  sender.send(m, [](const Status&) {});
  sim::run_until_done(sched, [&] { return home.lamp->is_on(); },
                      5'000'000);
  ASSERT_TRUE(home.lamp->is_on());
  auto latency = sched.now() - t0;
  EXPECT_GT(latency, sim::seconds(1));
  EXPECT_LE(latency, sim::seconds(25));  // one poll interval + slack
}

}  // namespace
}  // namespace hcm::core
