#include "mpros/common/rng.hpp"

namespace mpros {

namespace {
constexpr std::size_t kShift = 156;  // mt19937_64's m
constexpr std::uint64_t kMatrix = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;

// One step of the recurrence; the standard's `(y & 1) ? a : 0` as a mask.
constexpr std::uint64_t mix(std::uint64_t shifted, std::uint64_t upper,
                            std::uint64_t lower) {
  const std::uint64_t y = (upper & kUpperMask) | (lower & kLowerMask);
  return shifted ^ (y >> 1) ^ ((std::uint64_t{0} - (y & 1)) & kMatrix);
}
}  // namespace

Mt64::Mt64(std::uint64_t seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateSize; ++i) {
    const std::uint64_t x = state_[i - 1];
    state_[i] = (x ^ (x >> 62)) * 6364136223846793005ULL + i;
  }
}

void Mt64::twist() {
  constexpr std::size_t n = kStateSize;
  std::size_t k = 0;
  for (; k < n - kShift; ++k) {
    state_[k] = mix(state_[k + kShift], state_[k], state_[k + 1]);
  }
  for (; k < n - 1; ++k) {
    state_[k] = mix(state_[k + kShift - n], state_[k], state_[k + 1]);
  }
  state_[n - 1] = mix(state_[kShift - 1], state_[n - 1], state_[0]);
  index_ = 0;
}

}  // namespace mpros
