// Binary VSG channel wire form. The direct encoder must write exactly
// the bytes of the generic form, frame(encode_value(Value(ValueMap))),
// for requests, replies and a bulk frame that crosses block seams; and
// hostile frames must end in a protocol error or a closed connection,
// never a crash.
#include <gtest/gtest.h>

#include <optional>

#include "common/value_codec.hpp"
#include "common/wire_frame.hpp"
#include "core/binary_channel.hpp"

namespace hcm::core {
namespace {

using binary_wire::Request;

// The generic form: the envelope as a Value map, encoded whole, framed.
Bytes legacy_frame(const ValueMap& envelope) {
  Bytes payload = encode_value(Value(envelope));
  BufWriter w;
  w.put_u32(static_cast<std::uint32_t>(payload.size()));
  w.put_raw(payload);
  return w.take();
}

ValueMap legacy_request(const Request& req, const ValueList& args) {
  ValueMap m{
      {"id", Value(static_cast<std::int64_t>(req.id))},
      {"svc", Value(std::string(req.service))},
      {"method", Value(std::string(req.method))},
      {"args", Value(args)},
  };
  if (req.trace.valid()) {
    m["tr"] = Value(ValueList{
        Value(static_cast<std::int64_t>(req.trace.trace_id)),
        Value(static_cast<std::int64_t>(req.trace.span_id))});
  }
  return m;
}

Bytes request_bytes(const Request& req, const ValueList& args) {
  BlockStream out;
  binary_wire::write_request(out, req, args);
  return out.to_bytes();
}

Bytes reply_bytes(std::uint64_t id, const Result<Value>& r) {
  BlockStream out;
  write_reply_frame(out, id, r);
  return out.to_bytes();
}

ValueList status_args() {
  return {Value("living-room"),
          Value(ValueMap{{"temp", Value(21.5)},
                         {"humidity", Value(40)},
                         {"modes", Value(ValueList{Value("eco"), Value(true)})},
                         {"raw", Value(Bytes{1, 2, 3})},
                         {"none", Value()}})};
}

// A > 16 KB payload: the frame spans at least two pooled blocks.
ValueList bulk_args() {
  ValueMap chunk;
  for (int i = 0; i < 40; ++i) {
    chunk["part-" + std::to_string(i)] =
        Value(std::string(500, static_cast<char>('a' + i % 26)));
  }
  return {Value(std::move(chunk)), Value(Bytes(3000, 0x5A))};
}

std::string_view view_of(const Bytes& b) {
  return std::string_view(reinterpret_cast<const char*>(b.data()), b.size());
}

// Frame payload (past the length prefix) of a single-frame buffer.
std::string_view payload_of(const Bytes& framed) {
  return view_of(framed).substr(4);
}

TEST(BinaryWireTest, RequestWithoutTraceMatchesGenericEncoding) {
  const Request req{42, "climate-1", "pushStatus", {}};
  const ValueList args = status_args();
  EXPECT_EQ(request_bytes(req, args),
            legacy_frame(legacy_request(req, args)));
}

TEST(BinaryWireTest, RequestWithTraceMatchesGenericEncoding) {
  Request req{7, "lamp-2", "turnOn", {}};
  req.trace.trace_id = 0x1234567890ULL;
  req.trace.span_id = 99;
  const ValueList args{Value(1), Value("x")};
  const Bytes wire = request_bytes(req, args);
  EXPECT_EQ(wire, legacy_frame(legacy_request(req, args)));

  Request back;
  ValueList back_args;
  ASSERT_TRUE(
      binary_wire::decode_request(payload_of(wire), back, back_args).is_ok());
  EXPECT_EQ(back.id, 7u);
  EXPECT_EQ(back.service, "lamp-2");
  EXPECT_EQ(back.method, "turnOn");
  EXPECT_EQ(back.trace.trace_id, 0x1234567890ULL);
  EXPECT_EQ(back.trace.span_id, 99u);
  EXPECT_EQ(back_args, args);
}

TEST(BinaryWireTest, OkReplyMatchesGenericEncoding) {
  const Value value(ValueMap{{"powered", Value(true)}});
  EXPECT_EQ(reply_bytes(5, value),
            legacy_frame(ValueMap{{"id", Value(5)},
                                  {"ok", Value(true)},
                                  {"value", value}}));
}

TEST(BinaryWireTest, ErrorReplyMatchesGenericEncoding) {
  const Status err = not_found("no binary service: ghost");
  const Bytes wire = reply_bytes(9, err);
  EXPECT_EQ(wire, legacy_frame(ValueMap{
                      {"id", Value(9)},
                      {"ok", Value(false)},
                      {"code", Value(static_cast<std::int64_t>(err.code()))},
                      {"msg", Value(err.message())}}));

  std::uint64_t id = 0;
  Result<Value> r = Value();
  ASSERT_TRUE(decode_reply_frame(payload_of(wire), id, r).is_ok());
  EXPECT_EQ(id, 9u);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.status().message(), "no binary service: ghost");
}

TEST(BinaryWireTest, BulkRequestCrossesBlockSeamsDeliveredWhole) {
  const Request req{3, "media-1", "upload", {}};
  const ValueList args = bulk_args();
  BlockStream out;
  binary_wire::write_request(out, req, args);
  ASSERT_GT(out.size(), BlockPool::kBlockCapacity);
  EXPECT_EQ(out.to_bytes(), legacy_frame(legacy_request(req, args)));

  Deframer deframer;
  deframer.push(std::move(out));
  std::string_view frame;
  auto got = deframer.next_frame(frame);
  ASSERT_TRUE(got.is_ok());
  ASSERT_TRUE(got.value());
  Request back;
  ValueList back_args;
  ASSERT_TRUE(binary_wire::decode_request(frame, back, back_args).is_ok());
  EXPECT_EQ(back.method, "upload");
  EXPECT_EQ(back_args, args);
  got = deframer.next_frame(frame);
  ASSERT_TRUE(got.is_ok());
  EXPECT_FALSE(got.value());
}

TEST(BinaryWireTest, BulkReplyDeliveredOneBytePerFeed) {
  const Value value(bulk_args());
  const Bytes wire = reply_bytes(11, value);
  ASSERT_GT(wire.size(), BlockPool::kBlockCapacity);
  EXPECT_EQ(wire, legacy_frame(ValueMap{{"id", Value(11)},
                                        {"ok", Value(true)},
                                        {"value", value}}));

  Deframer deframer;
  std::string_view frame;
  int frames = 0;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    BlockStream chunk;
    chunk.append(&wire[i], 1);
    deframer.push(std::move(chunk));
    auto got = deframer.next_frame(frame);
    ASSERT_TRUE(got.is_ok());
    if (!got.value()) continue;
    ++frames;
    EXPECT_EQ(i, wire.size() - 1);
    std::uint64_t id = 0;
    Result<Value> r = Value();
    ASSERT_TRUE(decode_reply_frame(frame, id, r).is_ok());
    EXPECT_EQ(id, 11u);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value(), value);
  }
  EXPECT_EQ(frames, 1);
}

TEST(BinaryWireTest, ArgsListIsReusedAcrossDecodes) {
  const Bytes a = request_bytes({1, "s", "m", {}}, status_args());
  const Bytes b = request_bytes({2, "s", "m", {}}, {Value(5)});
  Request req;
  ValueList args;
  ASSERT_TRUE(binary_wire::decode_request(payload_of(a), req, args).is_ok());
  EXPECT_EQ(args.size(), 2u);
  ASSERT_TRUE(binary_wire::decode_request(payload_of(b), req, args).is_ok());
  EXPECT_EQ(args, ValueList{Value(5)});
  EXPECT_EQ(req.id, 2u);
}

// --- hostile frames -------------------------------------------------------

// `depth` nested single-element lists around an int.
Value nested(int depth) {
  Value v(1);
  for (int i = 0; i < depth; ++i) v = Value(ValueList{std::move(v)});
  return v;
}

// One request envelope with a tail of raw bytes patched in by the case.
struct Hostile {
  const char* name;
  Bytes payload;  // frame payload, without the length prefix
};

std::vector<Hostile> hostile_requests() {
  std::vector<Hostile> out;
  const Request req{1, "echo", "m", {}};
  Bytes good = encode_value(Value(legacy_request(req, {Value("abc")})));

  Bytes truncated = good;
  truncated.resize(truncated.size() - 2);
  out.push_back({"truncated TLV", truncated});

  // Args nested so its innermost int sits at depth 65 (envelope = 0,
  // args list = 1, each argument = 2).
  out.push_back({"nesting depth 65",
                 encode_value(Value(legacy_request(req, {nested(63)})))});

  // A list count larger than the bytes left in the frame.
  Bytes big_count = encode_value(Value(ValueMap{
      {"args", Value(ValueList{})}, {"id", Value(1)}}));
  // "args" value starts after tag(1) count(4) keylen(4) "args"(4).
  const std::size_t count_at = 1 + 4 + 4 + 4 + 1;
  big_count[count_at] = 0x00;
  big_count[count_at + 1] = 0x10;  // 1 Mi elements
  out.push_back({"list count past the frame", big_count});

  Bytes trailing = good;
  trailing.push_back(0x00);
  out.push_back({"trailing bytes", trailing});

  Bytes unknown_tag = good;
  unknown_tag[1 + 4 + 4 + 4 + 1 + 4] = 0x77;  // first argument's tag
  out.push_back({"unknown tag", unknown_tag});

  out.push_back({"not a map", encode_value(Value(ValueList{Value(1)}))});
  return out;
}

TEST(BinaryWireTest, HostileRequestsAreProtocolErrors) {
  for (const Hostile& h : hostile_requests()) {
    Request req;
    ValueList args;
    auto s = binary_wire::decode_request(view_of(h.payload), req, args);
    EXPECT_EQ(s.code(), StatusCode::kProtocolError) << h.name;
  }
}

TEST(BinaryWireTest, DepthBoundMatchesGenericDecoder) {
  const Request req{1, "echo", "m", {}};
  for (int depth : {62, 63}) {
    const Bytes payload =
        encode_value(Value(legacy_request(req, {nested(depth)})));
    Request back;
    ValueList args;
    const bool direct =
        binary_wire::decode_request(view_of(payload), back, args).is_ok();
    EXPECT_EQ(direct, decode_value(payload).is_ok()) << depth;
    EXPECT_EQ(direct, depth == 62) << depth;
  }
}

TEST(BinaryWireTest, OversizedLengthPrefixIsProtocolError) {
  Deframer deframer;
  BlockStream wire;
  const std::uint8_t len[4] = {0x01, 0x00, 0x00, 0x01};  // 16 MiB + 1
  wire.append(len, sizeof(len));
  deframer.push(std::move(wire));
  std::string_view frame;
  auto got = deframer.next_frame(frame);
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), StatusCode::kProtocolError);
}

TEST(BinaryWireTest, HostileRepliesAreProtocolErrors) {
  std::vector<Bytes> replies;
  Bytes good = encode_value(Value(ValueMap{
      {"id", Value(1)}, {"ok", Value(true)}, {"value", Value("abc")}}));
  Bytes truncated = good;
  truncated.resize(truncated.size() - 1);
  replies.push_back(truncated);
  replies.push_back(encode_value(Value(ValueMap{
      {"id", Value(1)}, {"ok", Value(true)}, {"value", nested(64)}})));
  Bytes trailing = good;
  trailing.push_back(0x01);
  replies.push_back(trailing);
  // ok = false without a usable error code.
  replies.push_back(encode_value(Value(ValueMap{
      {"id", Value(1)}, {"ok", Value(false)}, {"code", Value(0)}})));
  replies.push_back(encode_value(Value(ValueMap{{"ok", Value(true)}})));
  for (const Bytes& r : replies) {
    std::uint64_t id = 0;
    Result<Value> out = Value();
    EXPECT_EQ(decode_reply_frame(view_of(r), id, out).code(),
              StatusCode::kProtocolError)
        << to_hex(r);
  }
}

// --- hostile frames on a live connection -----------------------------------

class BinaryHostilePeerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_node = &net.add_node("server");
    client_node = &net.add_node("client");
    auto& eth = net.add_ethernet("lan", sim::microseconds(200), 100'000'000);
    net.attach(*server_node, eth);
    net.attach(*client_node, eth);
  }

  // Connects a raw stream to `port`, sends `wire`, runs the sim, and
  // reports whether the far end closed the connection.
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

Bytes with_prefix(const Bytes& payload) {
  BufWriter w;
  w.put_u32(static_cast<std::uint32_t>(payload.size()));
  w.put_raw(payload);
  return w.take();
}

TEST_F(BinaryHostilePeerTest, ServerClosesOnEveryHostileFrame) {
  BinaryRpcServer server(net, server_node->id(), 9000);
  ASSERT_TRUE(server.start().is_ok());
  int served = 0;
  server.register_service("echo", [&](const std::string&, const ValueList& a,
                                      InvokeResultFn done) {
    ++served;
    done(a.empty() ? Value() : a[0]);
  });
  for (const Hostile& h : hostile_requests()) {
    EXPECT_TRUE(raw_send_closes(9000, with_prefix(h.payload))) << h.name;
  }
  EXPECT_TRUE(raw_send_closes(9000, Bytes{0x01, 0x00, 0x00, 0x01, 0x00}))
      << "length above 16 MiB";
  EXPECT_EQ(served, 0);
}

TEST_F(BinaryHostilePeerTest, ClientFailsCallsOnHostileReply) {
  // A fake server that answers any request with a truncated reply.
  std::vector<net::StreamPtr> accepted;
  ASSERT_TRUE(server_node
                  ->listen(9001,
                           [&](net::StreamPtr s) {
                             accepted.push_back(s);
                             s->set_on_data([s](BlockStream&&) {
                               s->send(Bytes{0, 0, 0, 3, 7, 0, 0});
                             });
                           })
                  .is_ok());
  BinaryRpcClient client(net, client_node->id());
  std::optional<Result<Value>> result;
  client.call({server_node->id(), 9001}, "echo", "m", {Value(1)},
              [&](Result<Value> r) { result = std::move(r); });
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
}  // namespace hcm::core
