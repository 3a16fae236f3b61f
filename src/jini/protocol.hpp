// The Jini-like middleware's wire protocol. Real Jini moves serialized
// Java objects over JRMP; our stand-in moves length-framed binary Values
// over reliable streams, preserving the call/reply, registration, lease
// and remote-event semantics (see DESIGN.md substitution table).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/block_stream.hpp"
#include "common/bytes.hpp"
#include "common/interface_desc.hpp"
#include "common/service.hpp"
#include "common/status.hpp"
#include "common/value.hpp"
#include "common/wire_frame.hpp"
#include "net/address.hpp"

namespace hcm::jini {

// Well-known ports / groups (mirroring Jini's 4160).
constexpr std::uint16_t kLookupPort = 4160;
constexpr std::uint16_t kDiscoveryPort = 4160;
constexpr net::GroupId kDiscoveryGroup = 0x4A494E49;  // "JINI"

// A registered Jini service: identity, typed interface, and the
// endpoint its exporter listens on.
struct ServiceItem {
  std::string service_id;
  std::string name;
  InterfaceDesc interface;
  net::Endpoint endpoint;
  ValueMap attributes;

  [[nodiscard]] Value to_value() const;
  static Result<ServiceItem> from_value(const Value& v);

  friend bool operator==(const ServiceItem&, const ServiceItem&) = default;
};

// Remote call and reply messages.
struct CallMessage {
  std::uint64_t call_id = 0;
  std::string service_id;
  std::string method;
  ValueList args;
  bool one_way = false;
};

struct ReplyMessage {
  std::uint64_t call_id = 0;
  Status status;
  Value value;
};

// Flat forms: one envelope as Bytes, without a length prefix.
[[nodiscard]] Bytes encode_call(const CallMessage& m);
[[nodiscard]] Result<CallMessage> decode_call(const Bytes& b);
[[nodiscard]] Bytes encode_reply(const ReplyMessage& m);
[[nodiscard]] Result<ReplyMessage> decode_reply(const Bytes& b);

// Wire forms on the shared framing (common/wire_frame.hpp). A call is
// {args, id, method, oneWay, svc}; a reply is the shared reply
// envelope, written with write_reply_frame and read with
// decode_reply_frame.
//
// Appends one call frame (length prefix included) to `out`.
void write_call_frame(BlockStream& out, std::uint64_t call_id,
                      std::string_view service_id, std::string_view method,
                      const ValueList& args, bool one_way);

// A call decoded out of a frame: the names view the frame, the
// arguments go to a caller-owned (reusable) list.
struct CallView {
  std::uint64_t call_id = 0;
  std::string_view service_id;
  std::string_view method;
  bool one_way = false;
};
[[nodiscard]] Status decode_call(std::string_view frame, CallView& call,
                                 ValueList& args);

// Length-prefix framing for streams: u32 length + payload.
[[nodiscard]] Bytes frame(const Bytes& payload);

// The stream deframer is the one shared with the binary VSG channel.
using FrameReader = Deframer;

}  // namespace hcm::jini
