#pragma once
// Radix-2 FFT.
//
// The DC's "Crystal Instruments PCMCIA spectrum analyzer" (paper Fig 5) is
// modelled in software on top of this transform. FftPlan precomputes twiddle
// factors and the bit-reversal permutation for a fixed power-of-two size so
// the steady-state acquisition loop does no allocation.
//
// Layout. The twiddles are stored per stage, contiguously: the stage that
// combines blocks of `len` points holds W^(k*n/len) for k < len/2, as
// interleaved (re, im) doubles, stages in increasing `len`, n-1 entries in
// all. Every butterfly then reads its twiddles at unit stride, and works
// on interleaved doubles through restrict-qualified half-block pointers, so
// the compiler can keep the loop free of std::complex's NaN-recovery call
// (__muldc3). The inverse negates the imaginary part of each twiddle in a
// register rather than keeping a second table. The bit reversal is one
// table of n 32-bit entries, rev[i] = i with its log2(n) bits reversed.
// forward() and inverse() swap x[i] with x[rev[i]] before the stages; a
// caller that writes its input straight to the permuted entries
// (x[rev[i]] = sample i) calls forward_permuted() or inverse_permuted()
// and skips that pass. The real FFT packs its input that way, and the
// envelope writes its analytic spectrum that way.
//
// Bit identity. On finite input the kernel computes exactly the bits of
// the textbook std::complex<double> radix-2 loop it replaced; tests/dsp_test
// pins this with memcmp against a verbatim copy. (Only an infinite input
// may differ, where __muldc3 could recover an infinity from a NaN
// product.) Each product is GCC's expansion of the complex multiply,
// vr = br*wr - bi*wi and vi = br*wi + bi*wr, and the real-FFT pack/split
// loops keep every operation of the complex expressions, signed zeros
// included. Every spectrum, feature frame, report and render downstream
// depends on those bits. So mpros_dsp must not be built with -ffast-math,
// -mfma or -march=native: GCC's C++ default, -ffp-contract=fast, would
// fuse br*wr - bi*wi into an FMA wherever the target has one, and move
// bits.
//
// Two kernels run the stages and the real FFT's split loop, chosen once
// per process from CPUID. Where the host has AVX, the butterflies and the
// split's bins run two to an instruction, and each pass over the buffer
// does two stages (radix-2^2) with the same twiddles in the same order;
// the inverse's 1/n scaling is folded into the last pass's stores, which
// is the same (u+v)*inv_n. The AVX product is addsub(b*wr, swap(b)*wi):
// the real lane is br*wr - bi*wi, the imaginary lane bi*wr + br*wi, the
// same sum with its terms swapped. There is no FMA: the AVX code is
// compiled for "avx" alone, which has none. Elsewhere, and on non-x86
// builds, the portable scalar kernel runs one stage per pass. Both give
// the same bits; tests/dsp_test runs the bit-exactness pins through each.

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mpros::dsp {

using Complex = std::complex<double>;

[[nodiscard]] constexpr bool is_power_of_two(std::size_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

/// Smallest power of two >= n (1 for n = 0). `n` must be at most the
/// largest power of two a size_t holds (2^63 on 64-bit hosts).
[[nodiscard]] std::size_t next_power_of_two(std::size_t n);

namespace detail {

/// The loops an FFT plan runs, on interleaved (re, im) doubles.
struct FftKernel {
  /// Every radix-2 stage of an n-point transform, in place on `data` (n
  /// points already in bit-reversed order), reading a plan's per-stage
  /// twiddle table. `inverse` conjugates each twiddle and scales the
  /// result by 1/n.
  void (*stages)(double* data, std::size_t n, const double* twiddle,
                 bool inverse);
  /// The real forward FFT's split: bins 0..m of `out` from `z`, the m-point
  /// FFT of the packed samples, with the split twiddles `w` (m+1 points).
  void (*split)(const double* z, const double* w, double* out,
                std::size_t m);
};

/// The scalar loops, one stage per pass. They run on every host.
[[nodiscard]] const FftKernel& portable_kernel();

/// The AVX loops, or nullptr where the host or the build has no AVX.
[[nodiscard]] const FftKernel* avx_kernel();

/// The loops this process runs: avx_kernel() where there is one, else
/// portable_kernel(). Chosen once, from CPUID.
[[nodiscard]] const FftKernel& host_kernel();

}  // namespace detail

/// Precomputed in-place FFT for one size. Construction builds the
/// bit-reversal permutation and twiddle table (O(n log n)); steady-state
/// callers should obtain plans from PlanCache (plan_cache.hpp) so that cost
/// is paid once per process, not per acquisition.
class FftPlan {
 public:
  /// `n` must be a power of two >= 2. `kernel` picks the loops; only
  /// tests pick another than the host's.
  explicit FftPlan(std::size_t n,
                   const detail::FftKernel& kernel = detail::host_kernel());

  [[nodiscard]] std::size_t size() const { return n_; }

  /// The bit-reversal permutation: n entries, an involution.
  [[nodiscard]] std::span<const std::uint32_t> bit_reversal() const {
    return rev_;
  }

  /// In-place forward DFT: x[k] = sum_j x[j] exp(-2*pi*i*j*k/n).
  /// `x` is caller-owned scratch of exactly size() entries; no allocation.
  void forward(std::span<Complex> x) const;

  /// In-place inverse DFT (includes the 1/n normalization).
  void inverse(std::span<Complex> x) const;

  /// forward() and inverse() of a signal written to the permuted entries:
  /// x[bit_reversal()[i]] holds sample (or bin) i. The result is in
  /// natural order.
  void forward_permuted(std::span<Complex> x) const;
  void inverse_permuted(std::span<Complex> x) const;

  /// Bytes of the permutation and twiddle tables.
  [[nodiscard]] std::size_t footprint_bytes() const;

 private:
  void permute(std::span<Complex> x) const;
  void run(std::span<Complex> x, bool inverse) const;

  std::size_t n_;
  const detail::FftKernel* kernel_;
  // rev_[i] is i with its log2(n) bits reversed.
  std::vector<std::uint32_t> rev_;
  // Forward twiddles per stage, interleaved re/im: 2*(n-1) doubles.
  std::vector<double> twiddle_;
};

/// Real-input FFT plan: packs n reals into an n/2-point complex FFT and
/// post-splits, halving butterfly work for the dominant real-signal case.
/// All transform methods take caller-owned scratch and never allocate.
class RealFftPlan {
 public:
  /// `n` (number of real samples) must be a power of two >= 4. `kernel`
  /// picks the loops, as FftPlan's does.
  explicit RealFftPlan(std::size_t n,
                       const detail::FftKernel& kernel = detail::host_kernel());

  [[nodiscard]] std::size_t size() const { return n_; }
  /// Output bins of the half spectrum: n/2 + 1 (DC .. Nyquist inclusive).
  [[nodiscard]] std::size_t bins() const { return n_ / 2 + 1; }
  /// Complex scratch entries needed by forward()/inverse(): n/2.
  [[nodiscard]] std::size_t scratch_size() const { return n_ / 2; }

  /// Forward transform of a real signal into its half spectrum
  /// X[0..n/2]; the full spectrum follows from X[n-k] = conj(X[k]).
  /// `x.size()` may be <= n; missing samples are treated as zero padding.
  /// `half` must hold >= bins() entries, `scratch` >= scratch_size().
  /// A non-empty `window` (x.size() entries) multiplies x[i] by window[i]
  /// as the samples are packed, with no windowed copy.
  void forward(std::span<const double> x, std::span<Complex> half,
               std::span<Complex> scratch,
               std::span<const double> window = {}) const;

  /// Inverse of a conjugate-symmetric half spectrum (bins() entries) back
  /// to n real samples. `x` must hold >= n entries.
  void inverse(std::span<const Complex> half, std::span<double> x,
               std::span<Complex> scratch) const;

  /// Bytes of the half-size plan's tables and the split twiddles.
  [[nodiscard]] std::size_t footprint_bytes() const;

 private:
  std::size_t n_;
  const detail::FftKernel* kernel_;
  FftPlan half_plan_;                    // n/2-point complex plan
  std::vector<Complex> split_twiddle_;   // exp(-2*pi*i*k/n), k = 0..n/2
};

/// One-shot forward FFT of a real signal. Returns the full complex spectrum
/// of length n (power of two; input is zero-padded if shorter).
[[nodiscard]] std::vector<Complex> fft_real(std::span<const double> x,
                                            std::size_t n = 0);

/// One-shot inverse of a full complex spectrum back to a complex signal.
[[nodiscard]] std::vector<Complex> ifft(std::span<const Complex> spectrum);

/// One-shot real-input FFT via the packed half-size path. Returns the half
/// spectrum (n/2 + 1 bins); n defaults to the next power of two >= max(4,
/// x.size()). Uses the process-wide PlanCache and per-thread scratch.
[[nodiscard]] std::vector<Complex> rfft(std::span<const double> x,
                                        std::size_t n = 0);

/// One-shot inverse of an rfft()-style half spectrum ((n/2)+1 bins) back to
/// n real samples.
[[nodiscard]] std::vector<double> irfft(std::span<const Complex> half);

}  // namespace mpros::dsp
