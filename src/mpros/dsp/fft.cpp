#include "mpros/dsp/fft.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "mpros/common/assert.hpp"
#include "mpros/common/units.hpp"
#include "mpros/dsp/plan_cache.hpp"
#include "mpros/dsp/scratch.hpp"
#include "mpros/telemetry/metrics.hpp"

namespace mpros::dsp {
namespace {

telemetry::Counter& ffts_performed() {
  static telemetry::Counter& c =
      telemetry::Registry::instance().counter("dsp.ffts_performed");
  return c;
}

/// One block of radix-2 butterflies on interleaved doubles: for k < half,
/// u = a[k] and v = b[k]*w[k] become a[k] = u+v and b[k] = u-v. The
/// product is GCC's expansion of the std::complex multiply, minus its
/// NaN-recovery branch; Invert multiplies by conj(w) instead. (The
/// standard lets a complex<double> array be read as interleaved doubles.)
template <bool Invert>
void butterflies(double* __restrict a, double* __restrict b,
                 const double* __restrict w, std::size_t half) {
  for (std::size_t k = 0; k < 2 * half; k += 2) {
    const double wr = w[k];
    const double wi = Invert ? -w[k + 1] : w[k + 1];
    const double br = b[k];
    const double bi = b[k + 1];
    const double vr = br * wr - bi * wi;
    const double vi = br * wi + bi * wr;
    const double ur = a[k];
    const double ui = a[k + 1];
    a[k] = ur + vr;
    a[k + 1] = ui + vi;
    b[k] = ur - vr;
    b[k + 1] = ui - vi;
  }
}

/// One stage: every block of 2*half points of the n-point buffer.
template <bool Invert>
void stage(double* data, std::size_t n, const double* w, std::size_t half) {
  for (std::size_t start = 0; start < 2 * n; start += 4 * half) {
    butterflies<Invert>(data + start, data + start + 2 * half, w, half);
  }
}

}  // namespace

std::size_t next_power_of_two(std::size_t n) {
  // The largest power of two a size_t holds; above it there is no answer.
  constexpr std::size_t kLargest =
      std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);
  MPROS_EXPECTS(n <= kLargest);
  return std::bit_ceil(n);
}

FftPlan::FftPlan(std::size_t n) : n_(n) {
  MPROS_EXPECTS(is_power_of_two(n) && n >= 2);
  MPROS_EXPECTS(n <= std::size_t{1} << 32);  // swap pairs are 32-bit

  const auto log2n = static_cast<std::size_t>(std::countr_zero(n));
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < log2n; ++b) {
      if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (log2n - 1 - b);
    }
    if (i < r) {
      swaps_.emplace_back(static_cast<std::uint32_t>(i),
                          static_cast<std::uint32_t>(r));
    }
  }

  std::vector<Complex> base(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double angle = -kTwoPi * static_cast<double>(k) /
                         static_cast<double>(n);
    base[k] = Complex(std::cos(angle), std::sin(angle));
  }
  twiddle_.reserve(2 * (n - 1));
  for (std::size_t half = 1; half < n; half <<= 1) {
    const std::size_t stride = n / (2 * half);
    for (std::size_t k = 0; k < half; ++k) {
      twiddle_.push_back(base[k * stride].real());
      twiddle_.push_back(base[k * stride].imag());
    }
  }
}

template <bool Invert>
void FftPlan::transform(std::span<Complex> x) const {
  MPROS_EXPECTS(x.size() == n_);
  ffts_performed().inc();

  for (const auto& [i, j] : swaps_) std::swap(x[i], x[j]);

  double* const data = reinterpret_cast<double*>(x.data());
  const double* w = twiddle_.data();
  for (std::size_t half = 1; half < n_; half <<= 1) {
    // The first stages have blocks of 1, 2 and 4 butterflies; a constant
    // block size lets the compiler unroll them instead of looping.
    switch (half) {
      case 1: stage<Invert>(data, n_, w, 1); break;
      case 2: stage<Invert>(data, n_, w, 2); break;
      case 4: stage<Invert>(data, n_, w, 4); break;
      default: stage<Invert>(data, n_, w, half); break;
    }
    w += 2 * half;
  }

  if constexpr (Invert) {
    const double inv_n = 1.0 / static_cast<double>(n_);
    for (std::size_t i = 0; i < 2 * n_; ++i) data[i] *= inv_n;
  }
}

void FftPlan::forward(std::span<Complex> x) const { transform<false>(x); }

void FftPlan::inverse(std::span<Complex> x) const { transform<true>(x); }

RealFftPlan::RealFftPlan(std::size_t n) : n_(n), half_plan_(n / 2) {
  MPROS_EXPECTS(is_power_of_two(n) && n >= 4);
  split_twiddle_.resize(n / 2 + 1);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    const double angle = -kTwoPi * static_cast<double>(k) /
                         static_cast<double>(n);
    split_twiddle_[k] = Complex(std::cos(angle), std::sin(angle));
  }
}

// The split loops below spell out the std::complex expressions they
// replaced operation by operation, on interleaved doubles. Terms such as
// 0.0*dr are not simplified away: they decide the sign of zero results.

void RealFftPlan::forward(std::span<const double> x, std::span<Complex> half,
                          std::span<Complex> scratch) const {
  MPROS_EXPECTS(x.size() <= n_);
  MPROS_EXPECTS(half.size() >= bins() && scratch.size() >= scratch_size());
  const std::size_t m = n_ / 2;

  // Pack adjacent real samples into one complex sample each, which on
  // interleaved doubles is a copy; anything past the end of `x` is zero
  // padding.
  double* const z = reinterpret_cast<double*>(scratch.data());
  std::copy(x.begin(), x.end(), z);
  std::fill(z + x.size(), z + n_, 0.0);
  half_plan_.forward(scratch.first(m));

  // Split Z (the m-point FFT of the packed signal) into the FFTs of the even
  // and odd subsequences, then recombine: X[k] = E[k] + W^k O[k], where
  // E[k] = 0.5*(Z[k] + conj(Z[m-k])) and O[k] = -0.5i*(Z[k] - conj(Z[m-k])).
  const double* const w =
      reinterpret_cast<const double*>(split_twiddle_.data());
  double* const out = reinterpret_cast<double*>(half.data());
  const auto split = [&](std::size_t k, std::size_t p, std::size_t q) {
    const double zr = z[2 * p];
    const double zi = z[2 * p + 1];
    const double cr = z[2 * q];
    const double ci = -z[2 * q + 1];
    const double er = 0.5 * (zr + cr);
    const double ei = 0.5 * (zi + ci);
    const double dr = zr - cr;
    const double di = zi - ci;
    const double odd_r = 0.0 * dr - (-0.5) * di;
    const double odd_i = 0.0 * di + (-0.5) * dr;
    const double wr = w[2 * k];
    const double wi = w[2 * k + 1];
    out[2 * k] = er + (wr * odd_r - wi * odd_i);
    out[2 * k + 1] = ei + (wr * odd_i + wi * odd_r);
  };
  split(0, 0, 0);
  for (std::size_t k = 1; k < m; ++k) split(k, k, m - k);
  split(m, 0, 0);
}

void RealFftPlan::inverse(std::span<const Complex> half, std::span<double> x,
                          std::span<Complex> scratch) const {
  MPROS_EXPECTS(half.size() >= bins() && x.size() >= n_);
  MPROS_EXPECTS(scratch.size() >= scratch_size());
  const std::size_t m = n_ / 2;

  // Undo the split: recover the m-point FFT of the packed complex signal,
  // Z[k] = E[k] + i*O[k] with E[k] = 0.5*(X[k] + conj(X[m-k])) and
  // O[k] = 0.5*(X[k] - conj(X[m-k])) * conj(W^k).
  const double* const h = reinterpret_cast<const double*>(half.data());
  const double* const w =
      reinterpret_cast<const double*>(split_twiddle_.data());
  double* const z = reinterpret_cast<double*>(scratch.data());
  for (std::size_t k = 0; k < m; ++k) {
    const double xr = h[2 * k];
    const double xi = h[2 * k + 1];
    const double cr = h[2 * (m - k)];
    const double ci = -h[2 * (m - k) + 1];
    const double er = 0.5 * (xr + cr);
    const double ei = 0.5 * (xi + ci);
    const double sr = 0.5 * (xr - cr);
    const double si = 0.5 * (xi - ci);
    const double wr = w[2 * k];
    const double wi = -w[2 * k + 1];
    const double odd_r = sr * wr - si * wi;
    const double odd_i = sr * wi + si * wr;
    z[2 * k] = er + (0.0 * odd_r - 1.0 * odd_i);
    z[2 * k + 1] = ei + (0.0 * odd_i + 1.0 * odd_r);
  }
  half_plan_.inverse(scratch.first(m));

  // Unpack: interleaved (re, im) pairs are the even and odd samples.
  std::copy(z, z + n_, x.begin());
}

std::vector<Complex> fft_real(std::span<const double> x, std::size_t n) {
  if (n == 0) n = next_power_of_two(std::max<std::size_t>(x.size(), 2));
  MPROS_EXPECTS(is_power_of_two(n) && n >= x.size());

  std::vector<Complex> buf(n, Complex{});
  std::transform(x.begin(), x.end(), buf.begin(),
                 [](double v) { return Complex(v, 0.0); });
  PlanCache::instance().complex_plan(n).forward(buf);
  return buf;
}

std::vector<Complex> ifft(std::span<const Complex> spectrum) {
  MPROS_EXPECTS(is_power_of_two(spectrum.size()));
  std::vector<Complex> buf(spectrum.begin(), spectrum.end());
  PlanCache::instance().complex_plan(buf.size()).inverse(buf);
  return buf;
}

std::vector<Complex> rfft(std::span<const double> x, std::size_t n) {
  if (n == 0) n = next_power_of_two(std::max<std::size_t>(x.size(), 4));
  MPROS_EXPECTS(is_power_of_two(n) && n >= 4 && n >= x.size());

  const RealFftPlan& plan = PlanCache::instance().real_plan(n);
  std::vector<Complex> half(plan.bins());
  plan.forward(x, half, DspScratch::local().complex_lane(0, plan.scratch_size()));
  return half;
}

std::vector<double> irfft(std::span<const Complex> half) {
  MPROS_EXPECTS(half.size() >= 3);
  const std::size_t n = (half.size() - 1) * 2;
  MPROS_EXPECTS(is_power_of_two(n));

  const RealFftPlan& plan = PlanCache::instance().real_plan(n);
  std::vector<double> x(n);
  plan.inverse(half, x, DspScratch::local().complex_lane(0, plan.scratch_size()));
  return x;
}

}  // namespace mpros::dsp
