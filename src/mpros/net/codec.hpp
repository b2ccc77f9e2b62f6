#pragma once
// Little-endian binary codec for the wire protocol.
//
// The paper's components talk DCOM; our substitute serializes protocol
// structures to explicit byte layouts so the network simulator can delay,
// drop, duplicate and reorder them like a real transport would.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace mpros::net {

class Writer {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  /// Length-prefixed (u32) UTF-8 bytes.
  void str(const std::string& s);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Fail-soft reader for untrusted bytes — the hostile ship transport,
/// flight-recorder files and the replay path, where a truncated or
/// bit-flipped frame must produce a decode error, never a crash. A failed
/// read returns zero/empty and latches ok() false; callers check ok() once
/// at the end.
class TryReader {
 public:
  explicit TryReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  std::string str();
  /// Decodes into `out`, reusing its capacity — the arena-decode path reads
  /// thousands of strings per second and must not allocate at steady state.
  void str(std::string& out);

  [[nodiscard]] bool ok() const { return ok_; }
  void fail() { ok_ = false; }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  bool take(std::size_t n);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace mpros::net
