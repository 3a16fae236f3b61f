// Compact tag-length-value binary codec for Value. This is the "Java
// object serialization" stand-in used by the Jini-like call protocol and
// the binary VSG protocol ablation (bench_ablation_vsg_protocol).
//
// Two forms share one encoder and one decoder. The flat form
// (BufWriter / Bytes / BufReader) serves whole-buffer callers. The wire
// form writes straight into a pooled BlockStream through WireWriter and
// reads fields out of a borrowed byte view through WireReader, so the
// framed protocols (common/wire_frame.hpp) never build a flat copy of a
// message or a Value tree for its envelope.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/block_stream.hpp"
#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/value.hpp"

namespace hcm {

// Nesting bound: a hostile/corrupt buffer must not blow the stack. The
// root value sits at depth 0.
constexpr int kMaxValueDepth = 64;

// Big-endian writer into a BlockStream. Small puts are staged in an
// inline buffer and flushed in one append, so a field-by-field encode
// does not walk the block chain per byte; large runs append directly.
// Flushes on destruction.
class WireWriter {
 public:
  explicit WireWriter(BlockStream& out) : out_(out) {}
  ~WireWriter() { flush(); }
  WireWriter(const WireWriter&) = delete;
  WireWriter& operator=(const WireWriter&) = delete;

  void put_u8(std::uint8_t v) {
    if (n_ == sizeof(buf_)) flush();
    buf_[n_++] = v;
  }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f64(double v);
  void put_raw(const void* data, std::size_t n);
  // Length-prefixed (u32) byte strings, as BufWriter writes them.
  void put_string(std::string_view s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    put_raw(s.data(), s.size());
  }
  void put_bytes(const Bytes& b) {
    put_u32(static_cast<std::uint32_t>(b.size()));
    put_raw(b.data(), b.size());
  }

  // Tagged TLV pieces: the exact bytes encode_value writes for the
  // equivalent Value, so envelopes can be written field by field.
  void map_header(std::uint32_t n);
  void list_header(std::uint32_t n);
  void int_value(std::int64_t v);
  void bool_value(bool v);
  void string_value(std::string_view s);

  void flush();

 private:
  BlockStream& out_;
  std::size_t n_ = 0;
  std::uint8_t buf_[256];
};

// Bounds-checked big-endian cursor over a borrowed byte view. Every
// read reports failure instead of running past the end.
class WireReader {
 public:
  explicit WireReader(std::string_view buf)
      : p_(reinterpret_cast<const std::uint8_t*>(buf.data())),
        end_(p_ + buf.size()) {}

  [[nodiscard]] bool u8(std::uint8_t& v);
  [[nodiscard]] bool u32(std::uint32_t& v);
  [[nodiscard]] bool u64(std::uint64_t& v);
  // u32-length-prefixed string, viewed in place.
  [[nodiscard]] bool string(std::string_view& s);
  // Next byte without consuming it.
  [[nodiscard]] bool peek(std::uint8_t& v) const;

  [[nodiscard]] std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - p_);
  }
  [[nodiscard]] bool at_end() const { return p_ == end_; }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

// Exact encoded size of `v`: the sizing pass that lets a frame writer
// emit its length prefix before the body.
[[nodiscard]] std::size_t encoded_size(const Value& v);
// Encoded sizes of the tagged pieces WireWriter writes.
constexpr std::size_t kEncodedIntSize = 1 + 8;
constexpr std::size_t kEncodedBoolSize = 1 + 1;
constexpr std::size_t kEncodedHeaderSize = 1 + 4;  // list / map tag + count
[[nodiscard]] constexpr std::size_t encoded_string_size(std::string_view s) {
  return 1 + 4 + s.size();
}
// One map entry: the key string plus the encoded value.
[[nodiscard]] constexpr std::size_t encoded_entry_size(std::string_view key,
                                                       std::size_t value) {
  return 4 + key.size() + value;
}

// A list written as one TLV value (tag, count, elements): the same
// bytes as encode_value(Value(list)) without copying the list into a
// Value first.
[[nodiscard]] std::size_t encoded_size(const ValueList& list);
void encode_list(const ValueList& list, WireWriter& w);

void encode_value(const Value& v, BufWriter& w);
void encode_value(const Value& v, WireWriter& w);
[[nodiscard]] Bytes encode_value(const Value& v);

// Decodes one value at nesting `depth` into `out`. Rejects nesting past
// kMaxValueDepth, list/map counts larger than the bytes left, truncated
// data and unknown tags with a protocol error.
[[nodiscard]] Status decode_value(WireReader& r, Value& out, int depth = 0);
// Decodes a list value at nesting `depth` into `out`, which is cleared
// first and keeps its capacity; a value of another type is a protocol
// error.
[[nodiscard]] Status decode_list(WireReader& r, ValueList& out, int depth);
[[nodiscard]] Result<Value> decode_value(BufReader& r);
// Whole-buffer decode: trailing bytes after the value are an error.
[[nodiscard]] Result<Value> decode_value(const Bytes& b);

}  // namespace hcm
