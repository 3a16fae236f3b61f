#include "soap/rpc.hpp"

#include <gtest/gtest.h>

namespace hcm::soap {
namespace {

class SoapRpcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_node = &net.add_node("soap-server");
    client_node = &net.add_node("soap-client");
    auto& eth = net.add_ethernet("lan", sim::microseconds(200), 100'000'000);
    net.attach(*server_node, eth);
    net.attach(*client_node, eth);
    http_server = std::make_unique<http::HttpServer>(net, server_node->id(), 80);
    ASSERT_TRUE(http_server->start().is_ok());
    service = std::make_unique<SoapService>(*http_server, "/svc");
  }

  Result<Value> do_call(const std::string& method, const NamedValues& params) {
    SoapClient client(net, client_node->id());
    std::optional<Result<Value>> result;
    client.call({server_node->id(), 80}, "/svc", "urn:test", method, params,
                [&](Result<Value> r) { result = std::move(r); });
    sched.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(internal_error("no result"));
  }

  sim::Scheduler sched;
  net::Network net{sched};
  net::Node* server_node = nullptr;
  net::Node* client_node = nullptr;
  std::unique_ptr<http::HttpServer> http_server;
  std::unique_ptr<SoapService> service;
};

TEST_F(SoapRpcTest, EchoCall) {
  service->register_method("echo",
                           [](const NamedValues& params, CallResultFn done) {
                             done(params.empty() ? Value() : params[0].second);
                           });
  auto r = do_call("echo", {{"v", Value("marco")}});
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), Value("marco"));
}

TEST_F(SoapRpcTest, AddCall) {
  service->register_method("add", [](const NamedValues& params,
                                     CallResultFn done) {
    std::int64_t sum = 0;
    for (const auto& [k, v] : params) sum += v.as_int();
    done(Value(sum));
  });
  auto r = do_call("add", {{"a", Value(2)}, {"b", Value(40)}});
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), Value(42));
}

TEST_F(SoapRpcTest, UnknownMethodFaults) {
  auto r = do_call("nope", {});
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(SoapRpcTest, HandlerErrorPropagatesAsFault) {
  service->register_method("fail",
                           [](const NamedValues&, CallResultFn done) {
                             done(unavailable("device offline"));
                           });
  auto r = do_call("fail", {});
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(r.status().message(), "device offline");
}

TEST_F(SoapRpcTest, AsyncHandler) {
  service->register_method("slow", [this](const NamedValues&,
                                          CallResultFn done) {
    sched.after(sim::seconds(1), [done] { done(Value("done")); });
  });
  sim::SimTime start = sched.now();
  auto r = do_call("slow", {});
  ASSERT_TRUE(r.is_ok());
  EXPECT_GE(sched.now() - start, sim::seconds(1));
}

TEST_F(SoapRpcTest, GetRejected) {
  http::HttpClient raw(net, client_node->id());
  std::optional<Result<http::Response>> result;
  http::Request req;
  req.method = "GET";
  req.target = "/svc";
  raw.request({server_node->id(), 80}, std::move(req),
              [&](Result<http::Response> r) { result = std::move(r); });
  sched.run();
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->is_ok());
  EXPECT_EQ(result->value().status, 405);
}

TEST_F(SoapRpcTest, MalformedEnvelopeRejected) {
  http::HttpClient raw(net, client_node->id());
  std::optional<Result<http::Response>> result;
  http::Request req;
  req.method = "POST";
  req.target = "/svc";
  req.body = "this is not xml";
  raw.request({server_node->id(), 80}, std::move(req),
              [&](Result<http::Response> r) { result = std::move(r); });
  sched.run();
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->is_ok());
  EXPECT_EQ(result->value().status, 400);
}

TEST_F(SoapRpcTest, DeeplyNestedParameterRejected) {
  // ~0.7 MB of hostile input: a parameter nesting 100,000 untyped
  // elements. The decoder must refuse it past the value depth limit
  // rather than recurse once per level off the end of the stack.
  bool called = false;
  service->register_method("echo", [&](const NamedValues&, CallResultFn done) {
    called = true;
    done(Value());
  });
  constexpr int kDepth = 100'000;
  std::string body = build_call("urn:test", "echo", {{"v", Value("MARK")}});
  const std::string param = "<v xsi:type=\"xsd:string\">MARK</v>";
  const auto at = body.find(param);
  ASSERT_NE(at, std::string::npos) << body;
  std::string deep = "<v>";
  deep.reserve(7 * kDepth + 8);
  for (int i = 0; i < kDepth; ++i) deep += "<a>";
  for (int i = 0; i < kDepth; ++i) deep += "</a>";
  deep += "</v>";
  body.replace(at, param.size(), deep);

  http::HttpClient raw(net, client_node->id());
  std::optional<Result<http::Response>> result;
  http::Request req;
  req.method = "POST";
  req.target = "/svc";
  req.body = std::move(body);
  raw.request({server_node->id(), 80}, std::move(req),
              [&](Result<http::Response> r) { result = std::move(r); });
  sched.run();
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->is_ok()) << result->status().to_string();
  EXPECT_EQ(result->value().status, 400);
  EXPECT_FALSE(called);
  // The server is still serving.
  auto r = do_call("echo", {{"v", Value(1)}});
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
}

TEST_F(SoapRpcTest, UnregisterMethodRemoves) {
  service->register_method("temp", [](const NamedValues&, CallResultFn done) {
    done(Value(1));
  });
  EXPECT_TRUE(service->has_method("temp"));
  ASSERT_TRUE(do_call("temp", {}).is_ok());
  service->unregister_method("temp");
  EXPECT_FALSE(service->has_method("temp"));
  EXPECT_FALSE(do_call("temp", {}).is_ok());
}

TEST_F(SoapRpcTest, TwoServicesOnOneHttpServer) {
  SoapService other(*http_server, "/other");
  service->register_method("who", [](const NamedValues&, CallResultFn done) {
    done(Value("svc"));
  });
  other.register_method("who", [](const NamedValues&, CallResultFn done) {
    done(Value("other"));
  });
  SoapClient client(net, client_node->id());
  std::string got_svc, got_other;
  client.call({server_node->id(), 80}, "/svc", "urn:t", "who", {},
              [&](Result<Value> r) { got_svc = r.value().as_string(); });
  client.call({server_node->id(), 80}, "/other", "urn:t", "who", {},
              [&](Result<Value> r) { got_other = r.value().as_string(); });
  sched.run();
  EXPECT_EQ(got_svc, "svc");
  EXPECT_EQ(got_other, "other");
}

TEST_F(SoapRpcTest, CallCounters) {
  service->register_method("c", [](const NamedValues&, CallResultFn done) {
    done(Value(1));
  });
  do_call("c", {});
  do_call("c", {});
  EXPECT_EQ(service->calls_handled(), 2u);
}

TEST_F(SoapRpcTest, UnreachableServerSurfacesError) {
  SoapClient client(net, client_node->id());
  std::optional<Result<Value>> result;
  server_node->set_up(false);
  client.call({server_node->id(), 80}, "/svc", "urn:t", "x", {},
              [&](Result<Value> r) { result = std::move(r); });
  sched.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->is_ok());
}

}  // namespace
}  // namespace hcm::soap
