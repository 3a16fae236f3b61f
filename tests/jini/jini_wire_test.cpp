// Jini call protocol on the shared framing: the direct call/reply
// writers must produce the generic encoding's bytes, and hostile frames
// must end in a protocol error or a closed connection, never a crash.
#include <gtest/gtest.h>

#include <optional>

#include "common/value_codec.hpp"
#include "jini/exporter.hpp"
#include "jini/protocol.hpp"
#include "jini/proxy.hpp"

namespace hcm::jini {
namespace {

std::string_view view_of(const Bytes& b) {
  return std::string_view(reinterpret_cast<const char*>(b.data()), b.size());
}

ValueMap call_map(std::uint64_t id, const std::string& svc,
                  const std::string& method, const ValueList& args,
                  bool one_way) {
  return ValueMap{{"id", Value(static_cast<std::int64_t>(id))},
                  {"svc", Value(svc)},
                  {"method", Value(method)},
                  {"args", Value(args)},
                  {"oneWay", Value(one_way)}};
}

Value nested(int depth) {
  Value v(1);
  for (int i = 0; i < depth; ++i) v = Value(ValueList{std::move(v)});
  return v;
}

TEST(JiniWireTest, CallFrameMatchesGenericEncoding) {
  const ValueList args{Value("stop"), Value(ValueMap{{"at", Value(3)}})};
  BlockStream out;
  write_call_frame(out, 12, "laserdisc-1", "control", args, false);
  EXPECT_EQ(out.to_bytes(),
            frame(encode_value(
                Value(call_map(12, "laserdisc-1", "control", args, false)))));

  // And the copy-out deframer hands the payload back unchanged.
  FrameReader reader;
  std::vector<Bytes> frames;
  ASSERT_TRUE(reader.feed(std::move(out), frames).is_ok());
  ASSERT_EQ(frames.size(), 1u);
  CallView call;
  ValueList back;
  ASSERT_TRUE(decode_call(view_of(frames[0]), call, back).is_ok());
  EXPECT_EQ(call.call_id, 12u);
  EXPECT_EQ(call.service_id, "laserdisc-1");
  EXPECT_EQ(call.method, "control");
  EXPECT_FALSE(call.one_way);
  EXPECT_EQ(back, args);
}

struct Hostile {
  const char* name;
  Bytes payload;
};

std::vector<Hostile> hostile_calls() {
  std::vector<Hostile> out;
  const Bytes good =
      encode_value(Value(call_map(1, "svc", "m", {Value("abc")}, false)));
  Bytes truncated = good;
  truncated.resize(truncated.size() - 3);
  out.push_back({"truncated TLV", truncated});
  // Envelope = 0, args list = 1, argument = 2: 63 lists put the int at
  // depth 65.
  out.push_back({"nesting depth 65",
                 encode_value(Value(call_map(1, "svc", "m", {nested(63)},
                                             false)))});
  Bytes big_count = good;
  big_count[1 + 4 + 4 + 4 + 1] = 0x7F;  // args count ~2 Gi
  out.push_back({"list count past the frame", big_count});
  Bytes trailing = good;
  trailing.push_back(0x00);
  out.push_back({"trailing bytes", trailing});
  Bytes unknown_tag = good;
  unknown_tag[1 + 4 + 4 + 4 + 1 + 4] = 0x77;  // first argument's tag
  out.push_back({"unknown tag", unknown_tag});
  out.push_back({"missing service",
                 encode_value(Value(ValueMap{{"id", Value(1)},
                                             {"method", Value("m")}}))});
  return out;
}

TEST(JiniWireTest, HostileCallsAreProtocolErrors) {
  for (const Hostile& h : hostile_calls()) {
    CallView call;
    ValueList args;
    EXPECT_EQ(decode_call(view_of(h.payload), call, args).code(),
              StatusCode::kProtocolError)
        << h.name;
    // The flat form agrees.
    EXPECT_FALSE(decode_call(h.payload).is_ok()) << h.name;
  }
}

TEST(JiniWireTest, OversizedLengthPrefixIsProtocolError) {
  FrameReader reader;
  std::vector<Bytes> out;
  BlockStream wire;
  const std::uint8_t len[4] = {0x01, 0x00, 0x00, 0x01};  // 16 MiB + 1
  wire.append(len, sizeof(len));
  auto s = reader.feed(std::move(wire), out);
  EXPECT_EQ(s.code(), StatusCode::kProtocolError);
  EXPECT_TRUE(out.empty());
}

class JiniHostilePeerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_node = &net.add_node("server");
    client_node = &net.add_node("client");
    auto& eth = net.add_ethernet("lan", sim::microseconds(200), 100'000'000);
    net.attach(*server_node, eth);
    net.attach(*client_node, eth);
  }

  bool raw_send_closes(std::uint16_t port, const Bytes& wire) {
    std::optional<bool> closed;
    net::StreamPtr stream;
    net.connect(client_node->id(), {server_node->id(), port},
                [&](Result<net::StreamPtr> r) {
                  ASSERT_TRUE(r.is_ok());
                  stream = r.value();
                  closed = false;
                  stream->set_on_close([&] { closed = true; });
                  stream->send(Bytes(wire));
                });
    sched.run();
    if (stream) stream->close();
    return closed.value_or(false);
  }

  sim::Scheduler sched;
  net::Network net{sched};
  net::Node* server_node = nullptr;
  net::Node* client_node = nullptr;
};

TEST_F(JiniHostilePeerTest, ExporterClosesOnEveryHostileFrame) {
  Exporter exporter(net, server_node->id(), 4170);
  ASSERT_TRUE(exporter.start().is_ok());
  int served = 0;
  exporter.export_object("svc", [&](const std::string&, const ValueList&,
                                    InvokeResultFn done) {
    ++served;
    done(Value(true));
  });
  for (const Hostile& h : hostile_calls()) {
    EXPECT_TRUE(raw_send_closes(4170, frame(h.payload))) << h.name;
  }
  EXPECT_TRUE(raw_send_closes(4170, Bytes{0x01, 0x00, 0x00, 0x01, 0x00}))
      << "length above 16 MiB";
  EXPECT_EQ(served, 0);
}

TEST_F(JiniHostilePeerTest, ProxyFailsCallOnHostileReply) {
  std::vector<net::StreamPtr> accepted;
  ASSERT_TRUE(server_node
                  ->listen(4171,
                           [&](net::StreamPtr s) {
                             accepted.push_back(s);
                             s->set_on_data([s](BlockStream&&) {
                               // A reply whose value nests 65 deep.
                               ValueMap reply{{"id", Value(1)},
                                              {"ok", Value(true)},
                                              {"value", nested(64)}};
                               s->send(frame(encode_value(Value(reply))));
                             });
                           })
                  .is_ok());
  ServiceItem item;
  item.service_id = "svc";
  item.interface = InterfaceDesc{
      "Probe", {MethodDesc{"ping", {}, ValueType::kBool, false}}};
  item.endpoint = {server_node->id(), 4171};
  Proxy proxy(net, client_node->id(), item);
  std::optional<Result<Value>> result;
  proxy.invoke("ping", {}, [&](Result<Value> r) { result = std::move(r); });
  sched.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status().code(), StatusCode::kProtocolError);
  for (auto& s : accepted) {
    s->set_on_data(nullptr);
    s->close();
  }
  sched.run();
}

}  // namespace
}  // namespace hcm::jini
