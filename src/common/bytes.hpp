// Byte-buffer primitives: every wire protocol in the repo (Jini call
// protocol, CM11A frames, HAVi messages, the binary VSG codec) is built
// on these big-endian reader/writer helpers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace hcm {

using Bytes = std::vector<std::uint8_t>;

inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}
inline std::string to_string(const Bytes& b) {
  return std::string(b.begin(), b.end());
}

// Appends big-endian encoded primitives to a growable buffer.
class BufWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f64(double v);
  // Length-prefixed (u32) byte string.
  void put_bytes(const Bytes& b);
  void put_string(std::string_view s);
  // Raw append, no length prefix.
  void put_raw(const Bytes& b) { buf_.insert(buf_.end(), b.begin(), b.end()); }
  void put_raw(std::string_view s) { buf_.insert(buf_.end(), s.begin(), s.end()); }

  [[nodiscard]] const Bytes& data() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

// Bounds-checked big-endian reader over a borrowed buffer.
class BufReader {
 public:
  explicit BufReader(const Bytes& buf) : buf_(buf) {}

  [[nodiscard]] Result<std::uint8_t> u8();
  [[nodiscard]] Result<std::uint16_t> u16();
  [[nodiscard]] Result<std::uint32_t> u32();
  [[nodiscard]] Result<std::uint64_t> u64();
  [[nodiscard]] Result<std::int64_t> i64();
  [[nodiscard]] Result<double> f64();
  [[nodiscard]] Result<Bytes> bytes();
  [[nodiscard]] Result<std::string> string();

  [[nodiscard]] std::size_t remaining() const { return buf_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == buf_.size(); }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  // The unread bytes, viewed in place; skip() advances past n of them.
  [[nodiscard]] std::string_view rest() const {
    return std::string_view(reinterpret_cast<const char*>(buf_.data()) + pos_,
                            remaining());
  }
  void skip(std::size_t n) { pos_ += n < remaining() ? n : remaining(); }

 private:
  [[nodiscard]] bool has(std::size_t n) const { return remaining() >= n; }

  const Bytes& buf_;
  std::size_t pos_ = 0;
};

// Hex dump (diagnostics / tests).
std::string to_hex(const Bytes& b);

}  // namespace hcm
