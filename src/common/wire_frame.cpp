#include "common/wire_frame.hpp"

namespace hcm {

namespace {
// Seam-spanning frames up to this size keep their assembly buffer for
// the next one; a larger one-off frame must not pin its buffer for the
// rest of the connection.
constexpr std::size_t kKeptScratchBytes = 64 * 1024;
}  // namespace

Result<bool> Deframer::next_frame(std::string_view& frame) {
  if (handed_out_ != 0) {
    buf_.consume(handed_out_);
    handed_out_ = 0;
    if (scratch_.capacity() > kKeptScratchBytes) std::string().swap(scratch_);
  }
  if (buf_.size() < 4) return false;
  std::uint8_t hdr[4];
  buf_.copy_to(hdr, 0, 4);
  const std::uint32_t len = (static_cast<std::uint32_t>(hdr[0]) << 24) |
                            (static_cast<std::uint32_t>(hdr[1]) << 16) |
                            (static_cast<std::uint32_t>(hdr[2]) << 8) |
                            static_cast<std::uint32_t>(hdr[3]);
  if (len > kMaxFrameBytes) {
    return protocol_error("frame too large: " + std::to_string(len));
  }
  if (buf_.size() - 4 < len) return false;
  frame = len == 0 ? std::string_view() : buf_.view(4, len, scratch_);
  handed_out_ = 4 + static_cast<std::size_t>(len);
  return true;
}

Status Deframer::feed(BlockStream&& data, std::vector<Bytes>& out) {
  push(std::move(data));
  std::string_view frame;
  for (;;) {
    auto got = next_frame(frame);
    if (!got.is_ok()) return got.status();
    if (!got.value()) return Status::ok();
    out.emplace_back(frame.begin(), frame.end());
  }
}

Status read_map_header(WireReader& r, std::uint32_t& n) {
  std::uint8_t tag = 0;
  if (!r.u8(tag) || static_cast<ValueType>(tag) != ValueType::kMap) {
    return protocol_error("envelope is not a map");
  }
  if (!r.u32(n)) return protocol_error("truncated envelope");
  if (n > r.remaining()) return protocol_error("map length exceeds buffer");
  return Status::ok();
}

void write_reply_frame(BlockStream& out, std::uint64_t id,
                       const Result<Value>& result) {
  WireWriter w(out);
  const auto call_id = static_cast<std::int64_t>(id);
  if (result.is_ok()) {
    const Value& value = result.value();
    const std::size_t body = kEncodedHeaderSize +
                             encoded_entry_size("id", kEncodedIntSize) +
                             encoded_entry_size("ok", kEncodedBoolSize) +
                             encoded_entry_size("value", encoded_size(value));
    put_frame_header(w, body);
    w.map_header(3);
    w.put_string("id");
    w.int_value(call_id);
    w.put_string("ok");
    w.bool_value(true);
    w.put_string("value");
    encode_value(value, w);
    return;
  }
  const Status& status = result.status();
  const std::size_t body =
      kEncodedHeaderSize + encoded_entry_size("code", kEncodedIntSize) +
      encoded_entry_size("id", kEncodedIntSize) +
      encoded_entry_size("msg", encoded_string_size(status.message())) +
      encoded_entry_size("ok", kEncodedBoolSize);
  put_frame_header(w, body);
  w.map_header(4);
  w.put_string("code");
  w.int_value(static_cast<std::int64_t>(status.code()));
  w.put_string("id");
  w.int_value(call_id);
  w.put_string("msg");
  w.string_value(status.message());
  w.put_string("ok");
  w.bool_value(false);
}

Status decode_reply_frame(std::string_view frame, std::uint64_t& id,
                          Result<Value>& result) {
  WireReader r(frame);
  std::uint32_t n = 0;
  if (auto s = read_map_header(r, n); !s.is_ok()) return s;
  // Scalars decode into `field` without allocating; the value decodes
  // in place. A repeated key keeps its first occurrence, as a decoded
  // ValueMap would.
  bool has_id = false, has_ok = false, has_code = false, has_msg = false,
       has_value = false, ok = false;
  std::int64_t code = 0;
  Value value, msg, field;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string_view key;
    if (!r.string(key)) return protocol_error("truncated envelope");
    if (key == "value" && !has_value) {
      has_value = true;
      if (auto s = decode_value(r, value, 1); !s.is_ok()) return s;
      continue;
    }
    if (key == "msg" && !has_msg) {
      has_msg = true;
      if (auto s = decode_value(r, msg, 1); !s.is_ok()) return s;
      continue;
    }
    if (auto s = decode_value(r, field, 1); !s.is_ok()) return s;
    if (key == "id" && !has_id) {
      auto v = field.to_int();
      if (!v.is_ok()) return protocol_error("reply missing id");
      has_id = true;
      id = static_cast<std::uint64_t>(v.value());
    } else if (key == "ok" && !has_ok) {
      if (!field.is_bool()) return protocol_error("reply missing ok");
      has_ok = true;
      ok = field.as_bool();
    } else if (key == "code" && !has_code) {
      has_code = true;
      code = field.to_int().value_or(0);
    }
  }
  if (!r.at_end()) return protocol_error("trailing bytes after envelope");
  if (!has_id) return protocol_error("reply missing id");
  if (!has_ok) return protocol_error("reply missing ok");
  if (ok) {
    result = std::move(value);
    return Status::ok();
  }
  if (!has_code || code <= 0 ||
      code > static_cast<std::int64_t>(StatusCode::kResourceExhausted)) {
    return protocol_error("reply missing error code");
  }
  result = Status(static_cast<StatusCode>(code),
                  msg.is_string() ? msg.as_string() : std::string());
  return Status::ok();
}

}  // namespace hcm
