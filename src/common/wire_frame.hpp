// Length-prefixed frames over pooled streams: the one wire form of the
// binary VSG channel (core/binary_channel) and the Jini-like call
// protocol (jini/protocol). A frame is a u32 big-endian payload length
// followed by one value_codec TLV, always a map envelope.
//
// Writers render an envelope field by field straight into a BlockStream
// (a sizing pass first, so the length prefix goes out ahead of the
// body); the Deframer hands each arrived frame out as a view into its
// own buffer; readers decode fields out of that view. No flat copy of
// a message and no Value tree for its envelope is built on either side.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/block_stream.hpp"
#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/value.hpp"
#include "common/value_codec.hpp"

namespace hcm {

// Largest accepted frame payload; a longer length prefix is a protocol
// error (a hostile peer must not make the receiver buffer without end).
constexpr std::uint32_t kMaxFrameBytes = 16u * 1024 * 1024;

// Incremental length-prefix deframer. Delivered payloads splice into a
// pooled BlockStream; next_frame() hands out one complete frame at a
// time as a view that is zero-copy when the frame lies inside one block
// and is assembled in a reused scratch buffer (kept up to 64 KiB) when
// it spans a seam. A view stays valid until the next call to
// next_frame() or the deframer's end.
class Deframer {
 public:
  void push(BlockStream&& data) { buf_.splice(std::move(data)); }

  // True with `frame` set when a complete frame is buffered, false when
  // more bytes are needed. An oversized length prefix is a protocol
  // error, and stays one: the stream cannot be resynchronised.
  [[nodiscard]] Result<bool> next_frame(std::string_view& frame);

  // Copy-out form: feeds `data` and appends every complete frame to
  // `out` as its own Bytes.
  [[nodiscard]] Status feed(BlockStream&& data, std::vector<Bytes>& out);

 private:
  BlockStream buf_;
  std::size_t handed_out_ = 0;  // bytes of the last frame, consumed lazily
  std::string scratch_;
};

// Writes the u32 length prefix of a frame whose payload is `payload`
// bytes.
inline void put_frame_header(WireWriter& w, std::size_t payload) {
  w.put_u32(static_cast<std::uint32_t>(payload));
}

// Reads an envelope's map header; a non-map or a count larger than the
// bytes left is a protocol error.
[[nodiscard]] Status read_map_header(WireReader& r, std::uint32_t& n);

// The reply envelope both framed call protocols share: {id, ok, value}
// on success, {code, id, msg, ok} on failure. The bytes equal
// frame(encode_value(Value(ValueMap{...}))) of the same map.
void write_reply_frame(BlockStream& out, std::uint64_t id,
                       const Result<Value>& result);

// Decodes a reply envelope into its call id and carried result. A
// missing id or ok flag, a failure without a valid error code, trailing
// bytes and every value-codec error are protocol errors.
[[nodiscard]] Status decode_reply_frame(std::string_view frame,
                                        std::uint64_t& id,
                                        Result<Value>& result);

}  // namespace hcm
