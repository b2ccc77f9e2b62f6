#include "mpros/net/codec.hpp"

#include <cstring>

#include "mpros/common/assert.hpp"

namespace mpros::net {

void Writer::u8(std::uint8_t v) { buf_.push_back(v); }

void Writer::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void Writer::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  u64(bits);
}

void Writer::str(const std::string& s) {
  MPROS_EXPECTS(s.size() <= 0xFFFFFFFFu);
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

bool TryReader::take(std::size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t TryReader::u8() {
  if (!take(1)) return 0;
  return data_[pos_++];
}

std::uint16_t TryReader::u16() {
  if (!take(2)) return 0;
  const std::uint16_t v = static_cast<std::uint16_t>(
      data_[pos_] | (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
  pos_ += 2;
  return v;
}

std::uint32_t TryReader::u32() {
  if (!take(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t TryReader::u64() {
  if (!take(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::int64_t TryReader::i64() { return static_cast<std::int64_t>(u64()); }

double TryReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

std::string TryReader::str() {
  const std::uint32_t len = u32();
  // Length check before allocating: a corrupted length must not become a
  // multi-gigabyte allocation.
  if (!ok_ || data_.size() - pos_ < len) {
    ok_ = false;
    return {};
  }
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return s;
}

void TryReader::str(std::string& out) {
  const std::uint32_t len = u32();
  if (!ok_ || data_.size() - pos_ < len) {
    ok_ = false;
    out.clear();
    return;
  }
  out.assign(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
}

}  // namespace mpros::net
