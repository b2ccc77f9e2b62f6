#include "mpros/dsp/select.hpp"

#include <algorithm>
#include <cmath>

namespace mpros::dsp {
namespace detail {

std::size_t select_sample_size(std::size_t n) {
  return std::min(kSelectSample, n / 16);
}

std::size_t select_sample_step(std::size_t n) {
  return static_cast<std::size_t>(static_cast<double>(n) *
                                  0.6180339887498949) |
         1U;
}

Bracket bracket_rank(std::span<double> sample, std::size_t n, std::size_t k) {
  // Rank k sits near sample rank k*m/n; take three binomial standard
  // deviations (plus one rank) each side.
  const std::size_t m = sample.size();
  const std::size_t r = k * m / n;
  const double p = static_cast<double>(k) / static_cast<double>(n);
  const auto delta = static_cast<std::size_t>(
      3.0 * std::sqrt(static_cast<double>(m) * p * (1.0 - p)) + 1.0);
  const std::size_t r_lo = r > delta ? r - delta : 0;
  const std::size_t r_hi = std::min(m - 1, r + delta);
  Bracket b;
  b.lo = nth_value(sample, r_lo);
  // nth_element left everything from r_lo + 1 on at or above b.lo.
  b.hi = r_hi > r_lo
             ? nth_value(sample.subspan(r_lo + 1), r_hi - r_lo - 1)
             : b.lo;
  return b;
}

double nth_value(std::span<double> v, std::size_t rank) {
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

}  // namespace detail

}  // namespace mpros::dsp
