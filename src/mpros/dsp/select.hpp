#pragma once
// Exact order statistics over a window-sized scratch buffer.
//
// The DC's sensor screen takes the median and the median absolute deviation
// of every acquisition. std::nth_element on a periodic record (a sampled
// line current, or its absolute deviations) can exhaust its recursion budget
// and finish in heap selection, several times slower than on noise.
// select_kth stays exact without that failure: it brackets rank k between
// two order statistics of a fixed low-discrepancy sample, then one
// branch-free pass counts the values below the bracket and gathers the ones
// inside it into `work`, and nth_element runs on those alone. When the
// bracket misses rank k it falls back to nth_element over every value.

#include <array>
#include <cstddef>
#include <limits>
#include <span>

#include "mpros/common/assert.hpp"

namespace mpros::dsp {

/// Below this many values select_kth is nth_element over a copy.
inline constexpr std::size_t kSelectCutover = 2048;

namespace detail {

/// Most values the bracket is drawn from.
inline constexpr std::size_t kSelectSample = 1024;

/// Sample size for n values: n / 16, at most kSelectSample.
[[nodiscard]] std::size_t select_sample_size(std::size_t n);
/// Weyl-sequence stride through n values (~n / golden ratio, odd): the
/// sample covers every phase of a periodic record, where a fixed stride
/// could land on one phase and see a single value.
[[nodiscard]] std::size_t select_sample_step(std::size_t n);

struct Bracket {
  double lo = 0.0;
  double hi = 0.0;
};
/// Values that enclose rank k of n with high probability, from a sample of
/// those values (reordered).
[[nodiscard]] Bracket bracket_rank(std::span<double> sample, std::size_t n,
                                   std::size_t k);

/// std::nth_element, returning the value it leaves at `rank`.
[[nodiscard]] double nth_value(std::span<double> v, std::size_t rank);

/// The bracket select_kth takes below kSelectCutover values: every value
/// but a NaN is inside it.
inline constexpr Bracket kEveryValue{-std::numeric_limits<double>::infinity(),
                                     std::numeric_limits<double>::infinity()};

/// Draws select_kth's sample of value(0), ..., value(n-1) (n at least
/// kSelectCutover) into `sample` and returns the part it filled.
template <typename Value>
[[nodiscard]] std::span<double> draw_sample(
    std::size_t n, const Value& value,
    std::array<double, kSelectSample>& sample) {
  const std::size_t m = select_sample_size(n);
  const std::size_t step = select_sample_step(n);
  for (std::size_t j = 0, pos = 0; j < m; ++j) {
    sample[j] = value(pos);
    pos += step;
    if (pos >= n) pos -= n;
  }
  return std::span<double>(sample.data(), m);
}

struct Gathered {
  std::size_t below = 0;   // values below the bracket
  std::size_t inside = 0;  // values inside it, now work[0, inside)
};

/// select_kth's pass over every value: counts the values below `b` and
/// gathers the ones inside it into `work`, branch-free. `see(x)` is shown
/// each value on the way, so a caller can check or summarise the values in
/// the same pass.
template <typename Value, typename See>
[[nodiscard]] Gathered gather(std::size_t n, Bracket b, const Value& value,
                              std::span<double> work, See&& see) {
  Gathered g;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = value(i);
    see(x);
    g.below += static_cast<std::size_t>(x < b.lo);
    work[g.inside] = x;
    g.inside += static_cast<std::size_t>((b.lo <= x) & (x <= b.hi));
  }
  return g;
}

/// Rank k of n values after gather(): nth_element over the gathered values
/// when the bracket holds rank k, else over every value, copied to `work`.
template <typename Value>
[[nodiscard]] double select_gathered(std::size_t n, std::size_t k,
                                     const Value& value, Gathered g,
                                     std::span<double> work) {
  if (k >= g.below && k - g.below < g.inside) {
    return nth_value(work.first(g.inside), k - g.below);
  }
  for (std::size_t i = 0; i < n; ++i) work[i] = value(i);
  return nth_value(work.first(n), k);
}

}  // namespace detail

/// The k-th smallest (0-based) of value(0), ..., value(n-1): the value
/// std::nth_element would leave at position k of those values, up to the
/// sign of a zero. `work` (at least n entries) is the only memory written.
/// The values must hold no NaN. value(i) is called once per index, and
/// once more for the sampled indices; a miss calls it once more for every
/// index.
template <typename Value>
[[nodiscard]] double select_kth(std::size_t n, std::size_t k,
                                const Value& value, std::span<double> work) {
  MPROS_EXPECTS(k < n && work.size() >= n);
  detail::Bracket b = detail::kEveryValue;
  if (n >= kSelectCutover) {
    std::array<double, detail::kSelectSample> sample;
    b = detail::bracket_rank(detail::draw_sample(n, value, sample), n, k);
  }
  const detail::Gathered g =
      detail::gather(n, b, value, work, [](double) {});
  return detail::select_gathered(n, k, value, g, work);
}

}  // namespace mpros::dsp
