#pragma once
// The one little-endian codec for every MPROS byte format: wire datagrams
// (net), WAL frames and store snapshots (db) and flight-recorder dumps
// (telemetry). Integers are little-endian, doubles travel as their IEEE-754
// bits, strings and byte blobs carry a u32 length prefix.
//
// The paper's components talk DCOM; our substitute serializes protocol
// structures to explicit byte layouts so the network simulator can delay,
// drop, duplicate and reorder them like a real transport would, and so the
// durability layer can replay what it wrote.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace mpros {

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
  /// Length-prefixed (u32) raw bytes.
  void bytes(std::span<const std::uint8_t> b);
  /// Raw bytes with no length prefix (an already-encoded body).
  void raw(std::span<const std::uint8_t> b);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  void reserve(std::size_t n) { buf_.reserve(n); }
  void clear() { buf_.clear(); }

 private:
  template <typename T>
  void le(T v);

  std::vector<std::uint8_t> buf_;
};

/// Fail-soft reader for untrusted bytes — the hostile ship transport, WAL
/// and snapshot files after a crash, flight-recorder dumps and the replay
/// path, where a truncated or bit-flipped frame must produce a decode
/// error, never a crash. A failed read returns zero/empty and latches ok()
/// false; callers check ok() once at the end.
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
  /// Length-prefixed (u32) raw bytes into `out`.
  void bytes(std::vector<std::uint8_t>& out);

  [[nodiscard]] bool ok() const { return ok_; }
  void fail() { ok_ = false; }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  T le();
  bool take(std::size_t n);
  /// The next `len`-prefixed run of bytes; empty (and latched) if short.
  std::span<const std::uint8_t> prefixed();

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace mpros
