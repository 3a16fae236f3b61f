#include "common/value_codec.hpp"

#include <algorithm>
#include <cstring>

namespace hcm {

namespace {

Status truncated() { return protocol_error("truncated value"); }

// One encoder for both writer forms (BufWriter and WireWriter share the
// put_* vocabulary).
template <typename W>
void encode_rec(const Value& v, W& w) {
  w.put_u8(static_cast<std::uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      w.put_u8(v.as_bool() ? 1 : 0);
      break;
    case ValueType::kInt:
      w.put_i64(v.as_int());
      break;
    case ValueType::kDouble:
      w.put_f64(v.as_double());
      break;
    case ValueType::kString:
      w.put_string(v.as_string());
      break;
    case ValueType::kBytes:
      w.put_bytes(v.as_bytes());
      break;
    case ValueType::kList:
      w.put_u32(static_cast<std::uint32_t>(v.as_list().size()));
      for (const auto& e : v.as_list()) encode_rec(e, w);
      break;
    case ValueType::kMap:
      w.put_u32(static_cast<std::uint32_t>(v.as_map().size()));
      for (const auto& [k, e] : v.as_map()) {
        w.put_string(k);
        encode_rec(e, w);
      }
      break;
  }
}

}  // namespace

// --- WireWriter ---------------------------------------------------------

void WireWriter::flush() {
  if (n_ == 0) return;
  out_.append(buf_, n_);
  n_ = 0;
}

void WireWriter::put_raw(const void* data, std::size_t n) {
  if (n == 0) return;  // an empty string or Bytes may have no storage
  if (n_ + n > sizeof(buf_)) {
    flush();
    if (n > sizeof(buf_)) {
      out_.append(data, n);
      return;
    }
  }
  std::memcpy(buf_ + n_, data, n);
  n_ += n;
}

void WireWriter::put_u32(std::uint32_t v) {
  const std::uint8_t b[4] = {
      static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
      static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
  put_raw(b, sizeof(b));
}

void WireWriter::put_u64(std::uint64_t v) {
  put_u32(static_cast<std::uint32_t>(v >> 32));
  put_u32(static_cast<std::uint32_t>(v));
}

void WireWriter::put_f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(bits);
}

void WireWriter::map_header(std::uint32_t n) {
  put_u8(static_cast<std::uint8_t>(ValueType::kMap));
  put_u32(n);
}

void WireWriter::list_header(std::uint32_t n) {
  put_u8(static_cast<std::uint8_t>(ValueType::kList));
  put_u32(n);
}

void WireWriter::int_value(std::int64_t v) {
  put_u8(static_cast<std::uint8_t>(ValueType::kInt));
  put_i64(v);
}

void WireWriter::bool_value(bool v) {
  put_u8(static_cast<std::uint8_t>(ValueType::kBool));
  put_u8(v ? 1 : 0);
}

void WireWriter::string_value(std::string_view s) {
  put_u8(static_cast<std::uint8_t>(ValueType::kString));
  put_string(s);
}

// --- WireReader ---------------------------------------------------------

bool WireReader::u8(std::uint8_t& v) {
  if (p_ == end_) return false;
  v = *p_++;
  return true;
}

bool WireReader::peek(std::uint8_t& v) const {
  if (p_ == end_) return false;
  v = *p_;
  return true;
}

bool WireReader::u32(std::uint32_t& v) {
  if (remaining() < 4) return false;
  v = (static_cast<std::uint32_t>(p_[0]) << 24) |
      (static_cast<std::uint32_t>(p_[1]) << 16) |
      (static_cast<std::uint32_t>(p_[2]) << 8) |
      static_cast<std::uint32_t>(p_[3]);
  p_ += 4;
  return true;
}

bool WireReader::u64(std::uint64_t& v) {
  std::uint32_t hi = 0;
  std::uint32_t lo = 0;
  if (remaining() < 8 || !u32(hi) || !u32(lo)) return false;
  v = (static_cast<std::uint64_t>(hi) << 32) | lo;
  return true;
}

bool WireReader::string(std::string_view& s) {
  std::uint32_t len = 0;
  if (!u32(len)) return false;
  if (remaining() < len) return false;
  s = std::string_view(reinterpret_cast<const char*>(p_), len);
  p_ += len;
  return true;
}

// --- sizing / encoding --------------------------------------------------

std::size_t encoded_size(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 1;
    case ValueType::kBool:
      return kEncodedBoolSize;
    case ValueType::kInt:
    case ValueType::kDouble:
      return kEncodedIntSize;
    case ValueType::kString:
      return encoded_string_size(v.as_string());
    case ValueType::kBytes:
      return 1 + 4 + v.as_bytes().size();
    case ValueType::kList:
      return encoded_size(v.as_list());
    case ValueType::kMap: {
      std::size_t n = kEncodedHeaderSize;
      for (const auto& [k, e] : v.as_map()) {
        n += encoded_entry_size(k, encoded_size(e));
      }
      return n;
    }
  }
  return 1;
}

std::size_t encoded_size(const ValueList& list) {
  std::size_t n = kEncodedHeaderSize;
  for (const auto& e : list) n += encoded_size(e);
  return n;
}

void encode_list(const ValueList& list, WireWriter& w) {
  w.list_header(static_cast<std::uint32_t>(list.size()));
  for (const auto& e : list) encode_rec(e, w);
}

void encode_value(const Value& v, BufWriter& w) { encode_rec(v, w); }

void encode_value(const Value& v, WireWriter& w) { encode_rec(v, w); }

Bytes encode_value(const Value& v) {
  BufWriter w;
  encode_rec(v, w);
  return w.take();
}

// --- decoding -----------------------------------------------------------

namespace {

// A list's count and elements, its tag already read; the list sits at
// `depth`, its elements one deeper.
Status decode_list_body(WireReader& r, ValueList& list, int depth) {
  std::uint32_t n = 0;
  if (!r.u32(n)) return truncated();
  if (n > r.remaining()) return protocol_error("list length exceeds buffer");
  // Every element takes at least its tag byte, so n is bounded by the
  // frame; the reservation is still capped so a hostile count grows the
  // list only as elements actually decode.
  list.reserve(std::min<std::size_t>(n, 4096));
  for (std::uint32_t i = 0; i < n; ++i) {
    list.emplace_back();
    auto s = decode_value(r, list.back(), depth + 1);
    if (!s.is_ok()) return s;
  }
  return Status::ok();
}

}  // namespace

Status decode_list(WireReader& r, ValueList& out, int depth) {
  out.clear();
  if (depth > kMaxValueDepth) return protocol_error("value nesting too deep");
  std::uint8_t tag = 0;
  if (!r.u8(tag)) return truncated();
  if (static_cast<ValueType>(tag) != ValueType::kList) {
    return protocol_error("expected a list");
  }
  return decode_list_body(r, out, depth);
}

Status decode_value(WireReader& r, Value& out, int depth) {
  if (depth > kMaxValueDepth) return protocol_error("value nesting too deep");
  std::uint8_t tag = 0;
  if (!r.u8(tag)) return truncated();
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      out = Value();
      return Status::ok();
    case ValueType::kBool: {
      std::uint8_t b = 0;
      if (!r.u8(b)) return truncated();
      out = Value(b != 0);
      return Status::ok();
    }
    case ValueType::kInt: {
      std::uint64_t i = 0;
      if (!r.u64(i)) return truncated();
      out = Value(static_cast<std::int64_t>(i));
      return Status::ok();
    }
    case ValueType::kDouble: {
      std::uint64_t bits = 0;
      if (!r.u64(bits)) return truncated();
      double d = 0;
      std::memcpy(&d, &bits, sizeof(d));
      out = Value(d);
      return Status::ok();
    }
    case ValueType::kString: {
      std::string_view s;
      if (!r.string(s)) return truncated();
      out = Value(std::string(s));
      return Status::ok();
    }
    case ValueType::kBytes: {
      std::string_view s;
      if (!r.string(s)) return truncated();
      out = Value(Bytes(s.begin(), s.end()));
      return Status::ok();
    }
    case ValueType::kList: {
      ValueList list;
      auto s = decode_list_body(r, list, depth);
      if (!s.is_ok()) return s;
      out = Value(std::move(list));
      return Status::ok();
    }
    case ValueType::kMap: {
      std::uint32_t n = 0;
      if (!r.u32(n)) return truncated();
      if (n > r.remaining()) {
        return protocol_error("map length exceeds buffer");
      }
      ValueMap map;
      for (std::uint32_t i = 0; i < n; ++i) {
        std::string_view k;
        if (!r.string(k)) return truncated();
        Value e;
        auto s = decode_value(r, e, depth + 1);
        if (!s.is_ok()) return s;
        // Keys arrive sorted from every encoder, so the end hint makes
        // the insert O(1); a duplicate key keeps its first value.
        map.emplace_hint(map.end(), std::string(k), std::move(e));
      }
      out = Value(std::move(map));
      return Status::ok();
    }
  }
  return protocol_error("unknown value tag " + std::to_string(tag));
}

Result<Value> decode_value(BufReader& r) {
  WireReader wr(r.rest());
  Value v;
  auto s = decode_value(wr, v);
  if (!s.is_ok()) return s;
  r.skip(r.remaining() - wr.remaining());
  return v;
}

Result<Value> decode_value(const Bytes& b) {
  WireReader r(std::string_view(reinterpret_cast<const char*>(b.data()),
                                b.size()));
  Value v;
  auto s = decode_value(r, v);
  if (!s.is_ok()) return s;
  if (!r.at_end()) return protocol_error("trailing bytes after value");
  return v;
}

}  // namespace hcm
