#include "mpros/dsp/fft.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

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

template <bool Invert>
void portable_transform(double* data, std::size_t n, const double* w) {
  for (std::size_t half = 1; half < n; half <<= 1) {
    // The first stages have blocks of 1, 2 and 4 butterflies; a constant
    // block size lets the compiler unroll them instead of looping.
    switch (half) {
      case 1: stage<Invert>(data, n, w, 1); break;
      case 2: stage<Invert>(data, n, w, 2); break;
      case 4: stage<Invert>(data, n, w, 4); break;
      default: stage<Invert>(data, n, w, half); break;
    }
    w += 2 * half;
  }

  if constexpr (Invert) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < 2 * n; ++i) data[i] *= inv_n;
  }
}

// The split loops below spell out the std::complex expressions they
// replaced operation by operation, on interleaved doubles. Terms such as
// 0.0*dr are not simplified away: they decide the sign of zero results.

/// Bin k of the real forward FFT from Z[p] and Z[q] = Z[m-p] of the m-point
/// FFT `z` of the packed signal: X[k] = E[k] + W^k O[k], where
/// E[k] = 0.5*(Z[k] + conj(Z[m-k])) and O[k] = -0.5i*(Z[k] - conj(Z[m-k])).
inline void split_bin(const double* z, const double* w, double* out,
                      std::size_t k, std::size_t p, std::size_t q) {
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
}

void portable_stages(double* data, std::size_t n, const double* twiddle,
                     bool inverse) {
  inverse ? portable_transform<true>(data, n, twiddle)
          : portable_transform<false>(data, n, twiddle);
}

void portable_split(const double* z, const double* w, double* out,
                    std::size_t m) {
  split_bin(z, w, out, 0, 0, 0);
  for (std::size_t k = 1; k < m; ++k) split_bin(z, w, out, k, k, m - k);
  split_bin(z, w, out, m, 0, 0);
}

#if defined(__x86_64__) || defined(__i386__)

// The AVX kernel. A __m256d holds two complex values, [re0, im0 | re1, im1].
// Every function here is compiled for AVX alone (no
// FMA), and runs only once CPUID has reported AVX.
#define MPROS_AVX __attribute__((target("avx")))

/// b*w for each complex lane: addsub(b*wr, swap(b)*wi) is
/// [br*wr - bi*wi, bi*wr + br*wi], the portable kernel's product with the
/// imaginary sum's terms swapped.
MPROS_AVX inline __m256d mul(__m256d b, __m256d w) {
  const __m256d wr = _mm256_movedup_pd(w);
  const __m256d wi = _mm256_permute_pd(w, 0xF);
  const __m256d swapped = _mm256_permute_pd(b, 0x5);
  return _mm256_addsub_pd(_mm256_mul_pd(b, wr), _mm256_mul_pd(swapped, wi));
}

/// Twiddles as stored, or conjugated for the inverse: flipping the sign
/// bit of each imaginary part is the portable kernel's -w[k + 1].
template <bool Invert>
MPROS_AVX inline __m256d twiddles(const double* w) {
  const __m256d t = _mm256_loadu_pd(w);
  if constexpr (!Invert) return t;
  return _mm256_xor_pd(t, _mm256_setr_pd(0.0, -0.0, 0.0, -0.0));
}

template <bool Invert>
MPROS_AVX inline __m256d twiddle_pair(const double* w) {
  const __m256d t = _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(w));
  if constexpr (!Invert) return t;
  return _mm256_xor_pd(t, _mm256_setr_pd(0.0, -0.0, 0.0, -0.0));
}

/// Stores u, scaled by `scale` when Scale: the inverse's (u+v)*inv_n.
template <bool Scale>
MPROS_AVX inline void store(double* p, __m256d u, __m256d scale) {
  _mm256_storeu_pd(p, Scale ? _mm256_mul_pd(u, scale) : u);
}

/// Stages 1 and 2 in one pass: blocks of four points [x0, x1, x2, x3].
/// Stage 1 pairs (x0, x1) and (x2, x3) under w1[0]; stage 2 pairs (y0, y2)
/// under w2[0] and (y1, y3) under w2[1].
template <bool Invert, bool Scale>
MPROS_AVX void first_two_stages(double* data, std::size_t n, const double* w,
                                __m256d scale) {
  const __m256d w1 = twiddle_pair<Invert>(w);
  const __m256d w2 = twiddles<Invert>(w + 2);
  for (double* p = data; p < data + 2 * n; p += 8) {
    const __m256d lo = _mm256_loadu_pd(p);      // [x0 | x1]
    const __m256d hi = _mm256_loadu_pd(p + 4);  // [x2 | x3]
    const __m256d a = _mm256_permute2f128_pd(lo, hi, 0x20);  // [x0 | x2]
    const __m256d b = _mm256_permute2f128_pd(lo, hi, 0x31);  // [x1 | x3]
    __m256d v = mul(b, w1);
    const __m256d sum = _mm256_add_pd(a, v);   // [y0 | y2]
    const __m256d diff = _mm256_sub_pd(a, v);  // [y1 | y3]
    const __m256d u = _mm256_permute2f128_pd(sum, diff, 0x20);  // [y0 | y1]
    const __m256d t = _mm256_permute2f128_pd(sum, diff, 0x31);  // [y2 | y3]
    v = mul(t, w2);
    store<Scale>(p, _mm256_add_pd(u, v), scale);
    store<Scale>(p + 4, _mm256_sub_pd(u, v), scale);
  }
}

/// Stages `half` and 2*half in one pass (half >= 4, even): each block of
/// 4*half points is four quarters q0..q3. Stage `half` pairs (q0, q1) and
/// (q2, q3) under w1[k]; stage 2*half pairs (q0, q2) under w2[k] and
/// (q1, q3) under w2[half + k].
template <bool Invert, bool Scale>
MPROS_AVX void two_stages(double* data, std::size_t n, const double* w1,
                          std::size_t half, __m256d scale) {
  const double* const w2 = w1 + 2 * half;
  const std::size_t quarter = 2 * half;  // doubles
  for (double* q0 = data; q0 < data + 2 * n; q0 += 4 * quarter) {
    double* const q1 = q0 + quarter;
    double* const q2 = q1 + quarter;
    double* const q3 = q2 + quarter;
    for (std::size_t k = 0; k < quarter; k += 4) {
      const __m256d t1 = twiddles<Invert>(w1 + k);
      __m256d a = _mm256_loadu_pd(q0 + k);
      __m256d b = _mm256_loadu_pd(q1 + k);
      __m256d c = _mm256_loadu_pd(q2 + k);
      __m256d d = _mm256_loadu_pd(q3 + k);
      __m256d v = mul(b, t1);
      b = _mm256_sub_pd(a, v);
      a = _mm256_add_pd(a, v);
      v = mul(d, t1);
      d = _mm256_sub_pd(c, v);
      c = _mm256_add_pd(c, v);
      v = mul(c, twiddles<Invert>(w2 + k));
      store<Scale>(q0 + k, _mm256_add_pd(a, v), scale);
      store<Scale>(q2 + k, _mm256_sub_pd(a, v), scale);
      v = mul(d, twiddles<Invert>(w2 + quarter + k));
      store<Scale>(q1 + k, _mm256_add_pd(b, v), scale);
      store<Scale>(q3 + k, _mm256_sub_pd(b, v), scale);
    }
  }
}

/// The last stage alone, when log2(n) is odd: a[k] pairs with a[n/2 + k]
/// (n >= 8).
template <bool Invert, bool Scale>
MPROS_AVX void last_stage(double* data, std::size_t n, const double* w,
                          __m256d scale) {
  double* const b = data + n;
  for (std::size_t k = 0; k < n; k += 4) {
    const __m256d a = _mm256_loadu_pd(data + k);
    const __m256d v = mul(_mm256_loadu_pd(b + k), twiddles<Invert>(w + k));
    store<Scale>(data + k, _mm256_add_pd(a, v), scale);
    store<Scale>(b + k, _mm256_sub_pd(a, v), scale);
  }
}

template <bool Invert>
MPROS_AVX void avx_transform(double* data, std::size_t n, const double* w) {
  const __m256d scale = _mm256_set1_pd(1.0 / static_cast<double>(n));
  // Stages go in pairs from the first; an odd stage count leaves the last
  // alone. Only the pass that runs the last stage scales.
  if (n == 4) {
    first_two_stages<Invert, Invert>(data, n, w, scale);
    return;
  }
  first_two_stages<Invert, false>(data, n, w, scale);
  w += 6;
  std::size_t half = 4;
  for (; 4 * half <= n; half <<= 2) {
    if (4 * half == n) {
      two_stages<Invert, Invert>(data, n, w, half, scale);
    } else {
      two_stages<Invert, false>(data, n, w, half, scale);
    }
    w += 6 * half;
  }
  if (half < n) last_stage<Invert, Invert>(data, n, w, scale);
}

MPROS_AVX void avx_stages(double* data, std::size_t n, const double* twiddle,
                          bool inverse) {
  // Two points are one butterfly; the scalar kernel runs it.
  if (n == 2) {
    portable_stages(data, n, twiddle, inverse);
  } else if (inverse) {
    avx_transform<true>(data, n, twiddle);
  } else {
    avx_transform<false>(data, n, twiddle);
  }
}

/// split_bin for bins k and k+1 at once. conj(Z[m-k]) and conj(Z[m-k-1])
/// come from one load with its halves swapped and the imaginary signs
/// flipped; O[k] is addsub(0.0*d, -0.5*swap(d)), which is
/// [0.0*dr - (-0.5)*di, 0.0*di + (-0.5)*dr]; W^k O[k] is mul()'s product.
MPROS_AVX void avx_split(const double* z, const double* w, double* out,
                         std::size_t m) {
  const __m256d conj = _mm256_setr_pd(0.0, -0.0, 0.0, -0.0);
  split_bin(z, w, out, 0, 0, 0);
  std::size_t k = 1;
  for (; k + 1 < m; k += 2) {
    const __m256d zk = _mm256_loadu_pd(z + 2 * k);
    const __m256d mirror = _mm256_loadu_pd(z + 2 * (m - k - 1));
    const __m256d c = _mm256_xor_pd(
        _mm256_permute2f128_pd(mirror, mirror, 0x01), conj);
    const __m256d even =
        _mm256_mul_pd(_mm256_set1_pd(0.5), _mm256_add_pd(zk, c));
    const __m256d d = _mm256_sub_pd(zk, c);
    const __m256d odd = _mm256_addsub_pd(
        _mm256_mul_pd(_mm256_set1_pd(0.0), d),
        _mm256_mul_pd(_mm256_set1_pd(-0.5), _mm256_permute_pd(d, 0x5)));
    _mm256_storeu_pd(out + 2 * k,
                     _mm256_add_pd(even, mul(odd, _mm256_loadu_pd(w + 2 * k))));
  }
  for (; k < m; ++k) split_bin(z, w, out, k, k, m - k);
  split_bin(z, w, out, m, 0, 0);
}

#undef MPROS_AVX

#endif  // x86

}  // namespace

namespace detail {

const FftKernel& portable_kernel() {
  static constexpr FftKernel kernel{&portable_stages, &portable_split};
  return kernel;
}

const FftKernel* avx_kernel() {
#if defined(__x86_64__) || defined(__i386__)
  static constexpr FftKernel kernel{&avx_stages, &avx_split};
  static const bool has_avx = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx") != 0;
  }();
  return has_avx ? &kernel : nullptr;
#else
  return nullptr;
#endif
}

const FftKernel& host_kernel() {
  static const FftKernel* const chosen =
      avx_kernel() != nullptr ? avx_kernel() : &portable_kernel();
  return *chosen;
}

}  // namespace detail

std::size_t next_power_of_two(std::size_t n) {
  // The largest power of two a size_t holds; above it there is no answer.
  constexpr std::size_t kLargest =
      std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);
  MPROS_EXPECTS(n <= kLargest);
  return std::bit_ceil(n);
}

FftPlan::FftPlan(std::size_t n, const detail::FftKernel& kernel)
    : n_(n), kernel_(&kernel) {
  MPROS_EXPECTS(is_power_of_two(n) && n >= 2);
  MPROS_EXPECTS(n <= std::size_t{1} << 32);  // entries are 32-bit

  const auto log2n = static_cast<std::size_t>(std::countr_zero(n));
  rev_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < log2n; ++b) {
      if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (log2n - 1 - b);
    }
    rev_[i] = static_cast<std::uint32_t>(r);
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

void FftPlan::permute(std::span<Complex> x) const {
  MPROS_EXPECTS(x.size() == n_);
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j = rev_[i];
    if (i < j) std::swap(x[i], x[j]);
  }
}

void FftPlan::run(std::span<Complex> x, bool inverse) const {
  MPROS_EXPECTS(x.size() == n_);
  ffts_performed().inc();
  kernel_->stages(reinterpret_cast<double*>(x.data()), n_, twiddle_.data(),
                  inverse);
}

void FftPlan::forward(std::span<Complex> x) const {
  permute(x);
  run(x, false);
}

void FftPlan::inverse(std::span<Complex> x) const {
  permute(x);
  run(x, true);
}

void FftPlan::forward_permuted(std::span<Complex> x) const {
  run(x, false);
}

void FftPlan::inverse_permuted(std::span<Complex> x) const {
  run(x, true);
}

std::size_t FftPlan::footprint_bytes() const {
  return rev_.capacity() * sizeof(std::uint32_t) +
         twiddle_.capacity() * sizeof(double);
}

RealFftPlan::RealFftPlan(std::size_t n, const detail::FftKernel& kernel)
    : n_(n), kernel_(&kernel), half_plan_(n / 2, kernel) {
  MPROS_EXPECTS(is_power_of_two(n) && n >= 4);
  split_twiddle_.resize(n / 2 + 1);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    const double angle = -kTwoPi * static_cast<double>(k) /
                         static_cast<double>(n);
    split_twiddle_[k] = Complex(std::cos(angle), std::sin(angle));
  }
}

std::size_t RealFftPlan::footprint_bytes() const {
  return half_plan_.footprint_bytes() +
         split_twiddle_.capacity() * sizeof(Complex);
}

void RealFftPlan::forward(std::span<const double> x, std::span<Complex> half,
                          std::span<Complex> scratch,
                          std::span<const double> window) const {
  MPROS_EXPECTS(x.size() <= n_);
  MPROS_EXPECTS(half.size() >= bins() && scratch.size() >= scratch_size());
  MPROS_EXPECTS(window.empty() || window.size() == x.size());
  const std::size_t m = n_ / 2;

  // Pack adjacent (windowed) real samples into one complex sample each, in
  // bit-reversed order: entry i holds pair rev[i] (rev is an involution).
  // Anything past the end of `x` is zero padding.
  double* const z = reinterpret_cast<double*>(scratch.data());
  const std::uint32_t* const rev = half_plan_.bit_reversal().data();
  if (x.size() < n_) {
    const auto sample = [&](std::size_t i) {
      if (i >= x.size()) return 0.0;
      return window.empty() ? x[i] : x[i] * window[i];
    };
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t j = 2 * std::size_t{rev[i]};
      z[2 * i] = sample(j);
      z[2 * i + 1] = sample(j + 1);
    }
  } else if (window.empty()) {
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t j = 2 * std::size_t{rev[i]};
      z[2 * i] = x[j];
      z[2 * i + 1] = x[j + 1];
    }
  } else {
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t j = 2 * std::size_t{rev[i]};
      z[2 * i] = x[j] * window[j];
      z[2 * i + 1] = x[j + 1] * window[j + 1];
    }
  }
  half_plan_.forward_permuted(scratch.first(m));

  // Split Z (the m-point FFT of the packed signal) into the FFTs of the even
  // and odd subsequences and recombine them (split_bin).
  kernel_->split(z, reinterpret_cast<const double*>(split_twiddle_.data()),
                 reinterpret_cast<double*>(half.data()), m);
}

void RealFftPlan::inverse(std::span<const Complex> half, std::span<double> x,
                          std::span<Complex> scratch) const {
  MPROS_EXPECTS(half.size() >= bins() && x.size() >= n_);
  MPROS_EXPECTS(scratch.size() >= scratch_size());
  const std::size_t m = n_ / 2;

  // Undo the split (the loop spells out the std::complex expressions, as
  // split_bin does): recover the m-point FFT of the packed complex signal,
  // Z[k] = E[k] + i*O[k] with E[k] = 0.5*(X[k] + conj(X[m-k])) and
  // O[k] = 0.5*(X[k] - conj(X[m-k])) * conj(W^k), each stored at its
  // bit-reversed position.
  const double* const h = reinterpret_cast<const double*>(half.data());
  const double* const w =
      reinterpret_cast<const double*>(split_twiddle_.data());
  double* const z = reinterpret_cast<double*>(scratch.data());
  const std::uint32_t* const rev = half_plan_.bit_reversal().data();
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
    const std::size_t j = 2 * std::size_t{rev[k]};
    z[j] = er + (0.0 * odd_r - 1.0 * odd_i);
    z[j + 1] = ei + (0.0 * odd_i + 1.0 * odd_r);
  }
  half_plan_.inverse_permuted(scratch.first(m));

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
