// Wire serialization ("Globus Data Conversion" stand-in).
//
// Little-endian, length-prefixed primitives. Every control-plane message —
// RPC requests, GSI tokens, FTP command marshalling where needed — flows
// through these, so endianness/layout is a single point of truth. Lives in
// common (not rpc) because the security layer encodes GSI tokens with the
// same primitives and sits *below* rpc in the layer DAG.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace gdmp::wire {

class Writer {
 public:
  void u8(std::uint8_t v) { buffer_.push_back(v); }
  void u16(std::uint16_t v) { append(&v, sizeof(v)); }
  void u32(std::uint32_t v) { append(&v, sizeof(v)); }
  void u64(std::uint64_t v) { append(&v, sizeof(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { append(&v, sizeof(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    append(s.data(), s.size());
  }

  void bytes(const std::vector<std::uint8_t>& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    append(b.data(), b.size());
  }

  std::vector<std::uint8_t> take() { return std::move(buffer_); }
  const std::vector<std::uint8_t>& buffer() const noexcept { return buffer_; }
  std::size_t size() const noexcept { return buffer_.size(); }

 private:
  void append(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    // gdmp-lint: hot-alloc — writer buffers grow geometrically; framing is control-plane
    buffer_.insert(buffer_.end(), p, p + n);
  }

  std::vector<std::uint8_t> buffer_;
};

/// Non-owning reader; all extractors set the failure flag on underflow and
/// return zero values, so callers may decode a full struct then check ok()
/// once (monadic style without exceptions).
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::uint16_t u16() { return take<std::uint16_t>(); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return take<double>(); }
  bool boolean() { return u8() != 0; }

  std::string str() {
    const std::uint32_t n = u32();
    if (!check(n)) return {};
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return out;
  }

  std::vector<std::uint8_t> bytes() {
    const std::uint32_t n = u32();
    if (!check(n)) return {};
    std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  bool ok() const noexcept { return ok_; }
  bool at_end() const noexcept { return pos_ == data_.size(); }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  template <typename T>
  T take() {
    if (!check(sizeof(T))) return T{};
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  bool check(std::size_t n) noexcept {
    if (!ok_ || pos_ + n > data_.size()) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace gdmp::wire
