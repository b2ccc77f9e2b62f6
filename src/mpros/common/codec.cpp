#include "mpros/common/codec.hpp"

#include <bit>
#include <cstring>

#include "mpros/common/assert.hpp"

namespace mpros {

// Every MPROS byte format is little-endian and so is every supported host,
// so a value's own bytes are its encoded bytes: one resize and one memcpy
// per field instead of a push_back (and a capacity check) per byte.
static_assert(std::endian::native == std::endian::little,
              "the codec copies values as their in-memory bytes");

template <typename T>
void Writer::le(T v) {
  const std::size_t at = buf_.size();
  buf_.resize(at + sizeof(T));
  std::memcpy(buf_.data() + at, &v, sizeof(T));
}

void Writer::u8(std::uint8_t v) { buf_.push_back(v); }
void Writer::u16(std::uint16_t v) { le(v); }
void Writer::u32(std::uint32_t v) { le(v); }
void Writer::u64(std::uint64_t v) { le(v); }
void Writer::i64(std::int64_t v) { le(static_cast<std::uint64_t>(v)); }
void Writer::f64(double v) { le(std::bit_cast<std::uint64_t>(v)); }

void Writer::str(const std::string& s) {
  bytes(std::span(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

void Writer::bytes(std::span<const std::uint8_t> b) {
  MPROS_EXPECTS(b.size() <= 0xFFFFFFFFu);
  u32(static_cast<std::uint32_t>(b.size()));
  raw(b);
}

void Writer::raw(std::span<const std::uint8_t> b) {
  buf_.insert(buf_.end(), b.begin(), b.end());
}

bool TryReader::take(std::size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

template <typename T>
T TryReader::le() {
  if (!take(sizeof(T))) return 0;
  T v;
  std::memcpy(&v, data_.data() + pos_, sizeof(T));
  pos_ += sizeof(T);
  return v;
}

std::uint8_t TryReader::u8() { return le<std::uint8_t>(); }
std::uint16_t TryReader::u16() { return le<std::uint16_t>(); }
std::uint32_t TryReader::u32() { return le<std::uint32_t>(); }
std::uint64_t TryReader::u64() { return le<std::uint64_t>(); }
std::int64_t TryReader::i64() { return static_cast<std::int64_t>(u64()); }
double TryReader::f64() { return std::bit_cast<double>(u64()); }

std::span<const std::uint8_t> TryReader::prefixed() {
  const std::uint32_t len = u32();
  // Length check before anything is allocated: a corrupted length must not
  // become a multi-gigabyte allocation.
  if (!take(len)) return {};
  const std::span<const std::uint8_t> out = data_.subspan(pos_, len);
  pos_ += len;
  return out;
}

std::string TryReader::str() {
  std::string s;
  str(s);
  return s;
}

void TryReader::str(std::string& out) {
  const std::span<const std::uint8_t> b = prefixed();
  out.assign(reinterpret_cast<const char*>(b.data()), b.size());
}

void TryReader::bytes(std::vector<std::uint8_t>& out) {
  const std::span<const std::uint8_t> b = prefixed();
  out.assign(b.begin(), b.end());
}

}  // namespace mpros
