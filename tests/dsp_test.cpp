// DSP substrate tests: FFT correctness, spectra, statistics, cepstrum, DCT,
// envelope, filters.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "mpros/common/clock.hpp"
#include "mpros/common/rng.hpp"
#include "mpros/common/units.hpp"
#include "mpros/domain/failure_modes.hpp"
#include "mpros/dsp/cepstrum.hpp"
#include "mpros/dsp/dct.hpp"
#include "mpros/dsp/envelope.hpp"
#include "mpros/dsp/fft.hpp"
#include "mpros/dsp/filter.hpp"
#include "mpros/dsp/plan_cache.hpp"
#include "mpros/dsp/select.hpp"
#include "mpros/dsp/spectrum.hpp"
#include "mpros/dsp/stats.hpp"
#include "mpros/dsp/window.hpp"
#include "mpros/plant/chiller.hpp"
#include "mpros/rules/features.hpp"
#include "mpros/telemetry/metrics.hpp"

namespace mpros::dsp {
namespace {

std::vector<double> sine(std::size_t n, double freq_hz, double rate_hz,
                         double amp = 1.0, double phase = 0.0) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = amp * std::sin(kTwoPi * freq_hz * static_cast<double>(i) / rate_hz +
                          phase);
  }
  return x;
}

TEST(FftTest, MatchesDirectDftOnRandomInput) {
  Rng rng(1);
  constexpr std::size_t kN = 64;
  std::vector<Complex> x(kN);
  for (auto& c : x) c = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));

  std::vector<Complex> expected(kN);
  for (std::size_t k = 0; k < kN; ++k) {
    Complex sum{};
    for (std::size_t j = 0; j < kN; ++j) {
      const double angle = -kTwoPi * static_cast<double>(j * k) / kN;
      sum += x[j] * Complex(std::cos(angle), std::sin(angle));
    }
    expected[k] = sum;
  }

  std::vector<Complex> actual = x;
  FftPlan(kN).forward(actual);
  for (std::size_t k = 0; k < kN; ++k) {
    EXPECT_NEAR(actual[k].real(), expected[k].real(), 1e-9);
    EXPECT_NEAR(actual[k].imag(), expected[k].imag(), 1e-9);
  }
}

TEST(FftTest, ForwardInverseRoundTrip) {
  Rng rng(2);
  std::vector<Complex> x(256);
  for (auto& c : x) c = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  std::vector<Complex> y = x;
  const FftPlan plan(x.size());
  plan.forward(y);
  plan.inverse(y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-10);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-10);
  }
}

TEST(FftTest, NextPowerOfTwo) {
  EXPECT_EQ(next_power_of_two(1), 1u);
  EXPECT_EQ(next_power_of_two(2), 2u);
  EXPECT_EQ(next_power_of_two(3), 4u);
  EXPECT_EQ(next_power_of_two(1000), 1024u);
  EXPECT_EQ(next_power_of_two(0), 1u);
  constexpr std::size_t kTop = std::size_t{1} << 63;
  EXPECT_EQ(next_power_of_two(kTop), kTop);
  EXPECT_EQ(next_power_of_two(kTop / 2 + 1), kTop);
}

TEST(FftTest, RealSignalZeroPadding) {
  const std::vector<double> x = sine(300, 50.0, 1000.0);
  const std::vector<Complex> spec = fft_real(x);
  EXPECT_EQ(spec.size(), 512u);  // padded to next power of two
}

TEST(RfftTest, HalfSpectrumMatchesFullComplexFft) {
  // Property: the packed real transform agrees with the reference complex
  // FFT within 1e-12 across sizes, windows, and random signals.
  Rng rng(42);
  for (std::size_t n : {256u, 512u, 1024u, 2048u, 4096u, 8192u}) {
    for (WindowKind kind :
         {WindowKind::Rectangular, WindowKind::Hann, WindowKind::Hamming,
          WindowKind::Blackman, WindowKind::FlatTop}) {
      std::vector<double> x(n);
      for (double& v : x) v = rng.uniform(-1, 1);
      apply_window(x, make_window(kind, n));

      const std::vector<Complex> full = fft_real(x, n);
      const std::vector<Complex> half = rfft(x, n);
      ASSERT_EQ(half.size(), n / 2 + 1);
      for (std::size_t k = 0; k <= n / 2; ++k) {
        EXPECT_NEAR(half[k].real(), full[k].real(), 1e-12)
            << "n=" << n << " window=" << to_string(kind) << " bin=" << k;
        EXPECT_NEAR(half[k].imag(), full[k].imag(), 1e-12)
            << "n=" << n << " window=" << to_string(kind) << " bin=" << k;
      }
    }
  }
}

TEST(RfftTest, ZeroPadsShortInput) {
  Rng rng(43);
  std::vector<double> x(300);
  for (double& v : x) v = rng.uniform(-1, 1);
  const std::vector<Complex> half = rfft(x);  // padded to 512
  const std::vector<Complex> full = fft_real(x, 512);
  ASSERT_EQ(half.size(), 257u);
  for (std::size_t k = 0; k < half.size(); ++k) {
    EXPECT_NEAR(std::abs(half[k] - full[k]), 0.0, 1e-12);
  }
}

TEST(RfftTest, RoundTripRecoversSignal) {
  Rng rng(44);
  std::vector<double> x(1024);
  for (double& v : x) v = rng.uniform(-1, 1);
  const std::vector<double> back = irfft(rfft(x, x.size()));
  ASSERT_EQ(back.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i], x[i], 1e-12);
  }
}

TEST(PlanCacheTest, ReusesPlansAndCountsHits) {
  auto& reg = telemetry::Registry::instance();
  auto& hits = reg.counter("dsp.plan_cache_hit");
  auto& misses = reg.counter("dsp.plan_cache_miss");

  // Use a size nothing else in the suite touches so the miss is ours.
  constexpr std::size_t kOddSize = 1u << 14;
  const std::uint64_t misses_before = misses.value();
  const RealFftPlan& a = PlanCache::instance().real_plan(kOddSize);
  EXPECT_EQ(misses.value(), misses_before + 1);

  const std::uint64_t hits_before = hits.value();
  const RealFftPlan& b = PlanCache::instance().real_plan(kOddSize);
  EXPECT_EQ(hits.value(), hits_before + 1);
  EXPECT_EQ(&a, &b);  // stable reference, built once
}

TEST(WindowCacheTest, StableReferenceAndPrecomputedGains) {
  const CachedWindow& a = WindowCache::instance().get(WindowKind::Hann, 777);
  const CachedWindow& b = WindowCache::instance().get(WindowKind::Hann, 777);
  EXPECT_EQ(&a, &b);
  const std::vector<double> reference = make_window(WindowKind::Hann, 777);
  EXPECT_EQ(a.coeffs, reference);
  EXPECT_DOUBLE_EQ(a.coherent_gain, coherent_gain(reference));
  EXPECT_DOUBLE_EQ(a.power_gain, power_gain(reference));
}

TEST(WindowTest, HannEndsNearZeroPeakNearOne) {
  const std::vector<double> w = make_window(WindowKind::Hann, 128);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w.back(), 0.0, 1e-12);
  EXPECT_NEAR(w[64], 1.0, 1e-3);
}

TEST(WindowTest, GainsMatchTheory) {
  const std::vector<double> rect = make_window(WindowKind::Rectangular, 100);
  EXPECT_DOUBLE_EQ(coherent_gain(rect), 100.0);
  EXPECT_DOUBLE_EQ(power_gain(rect), 100.0);
  const std::vector<double> hann = make_window(WindowKind::Hann, 1000);
  EXPECT_NEAR(coherent_gain(hann) / 1000.0, 0.5, 1e-3);
}

TEST(SpectrumTest, UnitSineReadsUnityAmplitude) {
  // Bin-centered tone: 40 Hz with 1024 samples at 1024 Hz → bin 40.
  const std::vector<double> x = sine(1024, 40.0, 1024.0);
  const Spectrum s = amplitude_spectrum(x, 1024.0);
  EXPECT_NEAR(s.amplitude_at(40.0), 1.0, 0.02);
  EXPECT_LT(s.amplitude_at(80.0), 0.01);
}

TEST(SpectrumTest, TwoTonesResolved) {
  std::vector<double> x = sine(4096, 50.0, 4096.0, 1.0);
  const std::vector<double> x2 = sine(4096, 120.0, 4096.0, 0.5);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += x2[i];
  const Spectrum s = amplitude_spectrum(x, 4096.0);
  EXPECT_NEAR(s.amplitude_at(50.0), 1.0, 0.03);
  EXPECT_NEAR(s.amplitude_at(120.0), 0.5, 0.03);
}

TEST(SpectrumTest, FindPeaksInterpolatesOffBinFrequency) {
  // 52.3 Hz is off-bin for 1 Hz resolution.
  const std::vector<double> x = sine(4096, 52.3, 4096.0);
  const Spectrum s = amplitude_spectrum(x, 4096.0);
  const auto peaks = find_peaks(s, 1, 0.05);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_NEAR(peaks[0].freq_hz, 52.3, 0.2);
}

TEST(SpectrumTest, FindPeaksReportsFlatToppedPlateauOnce) {
  // Regression: a tone exactly between two bins can produce two equal
  // adjacent bins; the peak must be reported once, centered, at face value.
  Spectrum s;
  s.bin_hz = 1.0;
  s.sample_rate_hz = 16.0;
  s.amplitude = {0.0, 0.1, 0.2, 0.8, 0.8, 0.2, 0.1, 0.0};
  const auto peaks = find_peaks(s, 4, 0.05);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_DOUBLE_EQ(peaks[0].freq_hz, 3.5);   // centered on the plateau
  EXPECT_DOUBLE_EQ(peaks[0].amplitude, 0.8);  // no parabolic overshoot
}

TEST(SpectrumTest, FindPeaksPlateauAtSpectrumEdge) {
  // A plateau whose right bin is the last element used to be invisible to
  // the strict-neighbour scan.
  Spectrum s;
  s.bin_hz = 1.0;
  s.sample_rate_hz = 12.0;
  s.amplitude = {0.0, 0.1, 0.3, 0.9, 0.9};
  const auto peaks = find_peaks(s, 4, 0.05);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_DOUBLE_EQ(peaks[0].freq_hz, 3.5);
  EXPECT_DOUBLE_EQ(peaks[0].amplitude, 0.9);
}

TEST(SpectrumTest, OrderAmplitudeFindsShaftHarmonics) {
  const double shaft = 29.6;
  std::vector<double> x = sine(8192, shaft, 8192.0, 0.8);
  const std::vector<double> x2 = sine(8192, 2 * shaft, 8192.0, 0.3);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += x2[i];
  const Spectrum s = amplitude_spectrum(x, 8192.0);
  // Off-bin tones suffer up to ~1.4 dB of Hann scalloping; the order reader
  // reports the max bin, so allow that loss.
  EXPECT_NEAR(order_amplitude(s, shaft, 1.0), 0.8, 0.12);
  EXPECT_NEAR(order_amplitude(s, shaft, 2.0), 0.3, 0.06);
  EXPECT_LT(order_amplitude(s, shaft, 3.0), 0.05);
}

TEST(SpectrumTest, BandHelpers) {
  const std::vector<double> x = sine(2048, 100.0, 2048.0);
  const Spectrum s = amplitude_spectrum(x, 2048.0);
  EXPECT_GT(s.band_peak(90.0, 110.0), 0.9);
  EXPECT_LT(s.band_peak(300.0, 400.0), 0.01);
  EXPECT_GT(s.band_energy(90.0, 110.0), s.band_energy(300.0, 400.0));
  EXPECT_GT(s.total_energy(), 0.9);
}

TEST(SpectrumTest, WelchReducesVarianceOnNoise) {
  Rng rng(3);
  std::vector<double> noise(16384);
  for (double& v : noise) v = rng.normal(0.0, 1.0);
  const Spectrum one = amplitude_spectrum(noise, 16384.0);
  const Spectrum welch = welch_psd(noise, 16384.0, 1024);

  const auto variance_of = [](const Spectrum& s) {
    const std::span<const double> a(s.amplitude);
    const Moments m = moments(a.subspan(1, a.size() - 2));
    return m.variance / (m.mean * m.mean);  // normalized
  };
  EXPECT_LT(variance_of(welch), variance_of(one));
}

TEST(StatsTest, BasicAggregates) {
  const std::vector<double> x = {1.0, -2.0, 3.0, -4.0};
  EXPECT_DOUBLE_EQ(mean(x), -0.5);
  EXPECT_DOUBLE_EQ(peak_abs(x), 4.0);
  EXPECT_DOUBLE_EQ(peak_to_peak(x), 7.0);
  EXPECT_NEAR(rms(x), std::sqrt(30.0 / 4.0), 1e-12);
}

TEST(StatsTest, SineCrestFactorIsSqrt2) {
  const std::vector<double> x = sine(4096, 10.0, 4096.0);
  EXPECT_NEAR(crest_factor(x), std::numbers::sqrt2, 0.01);
}

TEST(StatsTest, GaussianKurtosisNearThree) {
  Rng rng(4);
  std::vector<double> x(50000);
  for (double& v : x) v = rng.normal(0.0, 1.0);
  EXPECT_NEAR(moments(x).kurtosis, 3.0, 0.15);
}

TEST(StatsTest, ImpulsiveSignalRaisesKurtosis) {
  Rng rng(5);
  std::vector<double> x(8192);
  for (double& v : x) v = rng.normal(0.0, 0.1);
  for (std::size_t i = 0; i < x.size(); i += 512) x[i] += 3.0;
  EXPECT_GT(moments(x).kurtosis, 6.0);
}

TEST(StatsTest, EmptyInputsAreZero) {
  const std::span<const double> empty;
  EXPECT_EQ(mean(empty), 0.0);
  EXPECT_EQ(rms(empty), 0.0);
  EXPECT_EQ(crest_factor(empty), 0.0);
}

TEST(StatsTest, ZeroCrossingsOfSine) {
  const std::vector<double> x = sine(1000, 10.0, 1000.0);
  // 10 Hz for 1 s -> ~20 crossings.
  EXPECT_NEAR(static_cast<double>(zero_crossings(x)), 20.0, 2.0);
}

TEST(CepstrumTest, DetectsHarmonicSpacing) {
  // Harmonic series at 80 Hz -> cepstral peak at 1/80 s.
  std::vector<double> x(8192, 0.0);
  for (int h = 1; h <= 10; ++h) {
    const auto tone = sine(8192, 80.0 * h, 8192.0, 1.0 / h);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += tone[i];
  }
  const std::vector<double> ceps = real_cepstrum(x);
  // Search below the first rahmonic (multiples of the true quefrency can
  // rival the fundamental).
  const double q = dominant_quefrency(ceps, 8192.0, 0.005, 0.02);
  EXPECT_NEAR(q, 1.0 / 80.0, 0.001);
}

TEST(DctTest, RoundTrip) {
  Rng rng(6);
  std::vector<double> x(33);
  for (double& v : x) v = rng.uniform(-1, 1);
  const std::vector<double> c = dct2(x);
  const std::vector<double> back = idct2(c);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i], x[i], 1e-9);
  }
}

TEST(DctTest, ParsevalHolds) {
  Rng rng(7);
  std::vector<double> x(64);
  for (double& v : x) v = rng.uniform(-1, 1);
  const std::vector<double> c = dct2(x);
  double ex = 0.0, ec = 0.0;
  for (double v : x) ex += v * v;
  for (double v : c) ec += v * v;
  EXPECT_NEAR(ex, ec, 1e-9);
}

TEST(DctTest, TruncationKeepsLeadingCoefficients) {
  const std::vector<double> x = sine(128, 4.0, 128.0);
  const std::vector<double> full = dct2(x);
  const std::vector<double> trunc = dct2_truncated(x, 16);
  ASSERT_EQ(trunc.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_DOUBLE_EQ(trunc[i], full[i]);
}

TEST(EnvelopeTest, AmplitudeModulationRecovered) {
  // 2 kHz carrier modulated at 50 Hz: envelope spectrum shows 50 Hz.
  constexpr double kRate = 16384.0;
  std::vector<double> x(16384);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double t = static_cast<double>(i) / kRate;
    x[i] = (1.0 + 0.8 * std::sin(kTwoPi * 50.0 * t)) *
           std::sin(kTwoPi * 2000.0 * t);
  }
  std::vector<double> env = envelope(x);
  const double dc = mean(env);
  for (double& v : env) v -= dc;
  const Spectrum es = amplitude_spectrum(env, kRate);
  EXPECT_GT(es.amplitude_at(50.0), 0.5);
}

TEST(EnvelopeTest, BandpassedRejectsOutOfBandTone) {
  constexpr double kRate = 16384.0;
  // Strong 100 Hz tone + weak modulated 3 kHz carrier.
  std::vector<double> x(16384);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double t = static_cast<double>(i) / kRate;
    x[i] = 5.0 * std::sin(kTwoPi * 100.0 * t) +
           (1.0 + 0.9 * std::sin(kTwoPi * 37.0 * t)) * 0.3 *
               std::sin(kTwoPi * 3000.0 * t);
  }
  std::vector<double> env = envelope_bandpassed(x, kRate, 2000.0, 4000.0);
  const double dc = mean(env);
  for (double& v : env) v -= dc;
  const Spectrum es = amplitude_spectrum(env, kRate);
  EXPECT_GT(es.amplitude_at(37.0), 3.0 * es.amplitude_at(100.0));
}

TEST(BiquadTest, LowpassAttenuatesHighFrequencies) {
  Biquad lp = Biquad::lowpass(1000.0, 50.0);
  std::vector<double> lo = sine(2000, 10.0, 1000.0);
  std::vector<double> hi = sine(2000, 400.0, 1000.0);
  lp.process(lo);
  lp.reset();
  lp.process(hi);
  const std::span<const double> lo_tail(lo.data() + 1000, 1000);
  const std::span<const double> hi_tail(hi.data() + 1000, 1000);
  EXPECT_GT(rms(lo_tail), 0.6);
  EXPECT_LT(rms(hi_tail), 0.05);
}

TEST(BiquadTest, HighpassAttenuatesLowFrequencies) {
  Biquad hp = Biquad::highpass(1000.0, 200.0);
  std::vector<double> lo = sine(2000, 5.0, 1000.0);
  hp.process(lo);
  const std::span<const double> tail(lo.data() + 1000, 1000);
  EXPECT_LT(rms(tail), 0.05);
}

TEST(RmsTrackerTest, ConvergesToTrueRms) {
  RmsTracker tracker(200.0);
  const std::vector<double> x = sine(5000, 50.0, 5000.0, 2.0);
  double last = 0.0;
  for (double v : x) last = tracker.step(v);
  EXPECT_NEAR(last, 2.0 / std::numbers::sqrt2, 0.1);
}

TEST(ExpSmootherTest, PrimesOnFirstSample) {
  ExpSmoother s(0.1);
  EXPECT_DOUBLE_EQ(s.step(5.0), 5.0);
  EXPECT_NEAR(s.step(10.0), 5.5, 1e-12);
}

// --- Bit-exactness pins -----------------------------------------------------
//
// The FFT kernel is written on interleaved doubles for speed, but every
// spectrum, feature, report and render downstream depends on its exact
// bits. ReferencePlan below is a verbatim copy of the textbook
// std::complex<double> radix-2 kernel and real-FFT split loops the fast
// kernel must reproduce; the tests memcmp the two.

class ReferencePlan {
 public:
  explicit ReferencePlan(std::size_t n) : n_(n) {
    bit_reverse_.resize(n);
    std::size_t log2n = 0;
    while ((std::size_t{1} << log2n) < n) ++log2n;
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t r = 0;
      for (std::size_t b = 0; b < log2n; ++b) {
        if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (log2n - 1 - b);
      }
      bit_reverse_[i] = r;
    }

    twiddle_.resize(n / 2);
    for (std::size_t k = 0; k < n / 2; ++k) {
      const double angle = -kTwoPi * static_cast<double>(k) /
                           static_cast<double>(n);
      twiddle_[k] = Complex(std::cos(angle), std::sin(angle));
    }
  }

  void transform(std::span<Complex> x, bool invert) const {
    for (std::size_t i = 0; i < n_; ++i) {
      const std::size_t j = bit_reverse_[i];
      if (i < j) std::swap(x[i], x[j]);
    }

    for (std::size_t len = 2; len <= n_; len <<= 1) {
      const std::size_t stride = n_ / len;
      for (std::size_t start = 0; start < n_; start += len) {
        for (std::size_t k = 0; k < len / 2; ++k) {
          Complex w = twiddle_[k * stride];
          if (invert) w = std::conj(w);
          const Complex u = x[start + k];
          const Complex v = x[start + k + len / 2] * w;
          x[start + k] = u + v;
          x[start + k + len / 2] = u - v;
        }
      }
    }

    if (invert) {
      const double inv_n = 1.0 / static_cast<double>(n_);
      for (Complex& c : x) c *= inv_n;
    }
  }

 private:
  std::size_t n_;
  std::vector<std::size_t> bit_reverse_;
  std::vector<Complex> twiddle_;
};

class ReferenceRealPlan {
 public:
  explicit ReferenceRealPlan(std::size_t n) : n_(n), half_plan_(n / 2) {
    split_twiddle_.resize(n / 2 + 1);
    for (std::size_t k = 0; k <= n / 2; ++k) {
      const double angle = -kTwoPi * static_cast<double>(k) /
                           static_cast<double>(n);
      split_twiddle_[k] = Complex(std::cos(angle), std::sin(angle));
    }
  }

  [[nodiscard]] std::vector<Complex> forward(std::span<const double> x) const {
    const std::size_t m = n_ / 2;
    std::vector<Complex> scratch(m);
    std::vector<Complex> half(m + 1);
    for (std::size_t j = 0; j < m; ++j) {
      const double re = 2 * j < x.size() ? x[2 * j] : 0.0;
      const double im = 2 * j + 1 < x.size() ? x[2 * j + 1] : 0.0;
      scratch[j] = Complex(re, im);
    }
    half_plan_.transform(scratch, false);

    for (std::size_t k = 0; k <= m; ++k) {
      const Complex zk = scratch[k == m ? 0 : k];
      const Complex zmk = std::conj(scratch[(m - k) % m]);
      const Complex even = 0.5 * (zk + zmk);
      const Complex odd = Complex(0.0, -0.5) * (zk - zmk);
      half[k] = even + split_twiddle_[k] * odd;
    }
    return half;
  }

  [[nodiscard]] std::vector<double> inverse(
      std::span<const Complex> half) const {
    const std::size_t m = n_ / 2;
    std::vector<Complex> scratch(m);
    std::vector<double> x(n_);
    for (std::size_t k = 0; k < m; ++k) {
      const Complex xk = half[k];
      const Complex xmk = std::conj(half[m - k]);
      const Complex even = 0.5 * (xk + xmk);
      const Complex odd = 0.5 * (xk - xmk) * std::conj(split_twiddle_[k]);
      scratch[k] = even + Complex(0.0, 1.0) * odd;
    }
    half_plan_.transform(scratch, true);

    for (std::size_t j = 0; j < m; ++j) {
      x[2 * j] = scratch[j].real();
      x[2 * j + 1] = scratch[j].imag();
    }
    return x;
  }

 private:
  std::size_t n_;
  ReferencePlan half_plan_;
  std::vector<Complex> split_twiddle_;
};

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

enum class Input { Random, Impulse, Zero, NegativeZero };

std::vector<double> real_input(Input kind, std::size_t n, Rng& rng) {
  std::vector<double> x(n, kind == Input::NegativeZero ? -0.0 : 0.0);
  if (kind == Input::Random) {
    for (double& v : x) v = rng.uniform(-1, 1);
  } else if (kind == Input::Impulse) {
    x[n > 1 ? 1 : 0] = 1.0;
  }
  return x;
}

std::vector<Complex> complex_input(Input kind, std::size_t n, Rng& rng) {
  const std::vector<double> re = real_input(kind, n, rng);
  const std::vector<double> im = real_input(kind, n, rng);
  std::vector<Complex> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = Complex(re[i], im[i]);
  return x;
}

constexpr Input kAllInputs[] = {Input::Random, Input::Impulse, Input::Zero,
                                Input::NegativeZero};

TEST(FftBitExactTest, ComplexTransformsMatchReferenceBits) {
  Rng rng(1201);
  for (std::size_t n = 2; n <= 32768; n <<= 1) {
    const FftPlan plan(n);
    const ReferencePlan reference(n);
    for (const Input kind : kAllInputs) {
      const std::vector<Complex> x = complex_input(kind, n, rng);
      for (const bool invert : {false, true}) {
        std::vector<Complex> got = x;
        std::vector<Complex> want = x;
        invert ? plan.inverse(got) : plan.forward(got);
        reference.transform(want, invert);
        EXPECT_TRUE(same_bits(got, want))
            << "n=" << n << " input=" << static_cast<int>(kind)
            << " invert=" << invert;
      }
    }
  }
}

TEST(FftBitExactTest, RealTransformsMatchReferenceBits) {
  Rng rng(1202);
  for (std::size_t n = 4; n <= 32768; n <<= 1) {
    const RealFftPlan plan(n);
    const ReferenceRealPlan reference(n);
    std::vector<Complex> half(plan.bins());
    std::vector<Complex> scratch(plan.scratch_size());
    std::vector<double> back(n);
    for (const Input kind : kAllInputs) {
      const std::vector<double> x = real_input(kind, n, rng);
      plan.forward(x, half, scratch);
      const std::vector<Complex> want_half = reference.forward(x);
      EXPECT_TRUE(same_bits(half, want_half))
          << "forward n=" << n << " input=" << static_cast<int>(kind);

      plan.inverse(want_half, back, scratch);
      EXPECT_TRUE(same_bits(back, reference.inverse(want_half)))
          << "inverse n=" << n << " input=" << static_cast<int>(kind);
    }
  }
}

TEST(FftBitExactTest, OneShotRealRoundTripAndZeroPaddingMatchReferenceBits) {
  Rng rng(1203);
  for (const std::size_t n : {4u, 256u, 8192u, 32768u}) {
    const ReferenceRealPlan reference(n);
    const std::vector<double> x = real_input(Input::Random, n, rng);
    const std::vector<Complex> half = rfft(x);
    EXPECT_TRUE(same_bits(half, reference.forward(x))) << "rfft n=" << n;
    EXPECT_TRUE(same_bits(irfft(half), reference.inverse(half)))
        << "irfft n=" << n;

    // A short record is zero-padded up to the plan size.
    const std::vector<double> shorter(x.begin(), x.begin() + n / 2 + 1);
    EXPECT_TRUE(same_bits(rfft(shorter, n), reference.forward(shorter)))
        << "padded rfft n=" << n;
  }
}

// FNV-1a over the key-sorted (key, value bits) pairs of a feature frame.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t digest_frame(std::uint64_t h, const rules::FeatureFrame& frame) {
  std::vector<std::pair<std::string, double>> sorted(frame.all().begin(),
                                                     frame.all().end());
  std::sort(sorted.begin(), sorted.end());
  for (const auto& [key, value] : sorted) {
    h = fnv1a(h, key.data(), key.size());
    const auto bits = std::bit_cast<std::uint64_t>(value);
    h = fnv1a(h, &bits, sizeof bits);
  }
  return h;
}

TEST(FftBitExactTest, FeatureFrameDigestPinned) {
  // Every failure mode on a seeded chiller, through the DC's vibration and
  // current feature extraction at the DC's default rates and record sizes.
  // The pinned digest was recorded with the std::complex kernel above, on
  // x86-64 with GCC 12 and glibc 2.36. Any change to the FFT's bits moves
  // it; so does a change to plant synthesis. The normal and uniform streams
  // are defined in common/rng.hpp, so no standard library moves it, only a
  // libm whose sin, or whose log or sqrt in the polar draw, return other
  // bits.
  constexpr double kVibrationRate = 40960.0;
  constexpr double kCurrentRate = 4096.0;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::uint64_t seed = 0xD16E57;
  for (const domain::FailureMode mode : domain::all_failure_modes()) {
    plant::ChillerConfig cfg;
    cfg.seed = seed++;
    plant::ChillerSimulator sim(cfg);
    plant::FaultEvent fault;
    fault.mode = mode;
    fault.ramp = SimTime::from_seconds(60);
    fault.max_severity = 0.8;
    sim.faults().schedule(fault);
    sim.advance(SimTime::from_seconds(120));

    const rules::FeatureExtractor extractor(sim.signature());
    std::vector<double> current(32768);
    sim.acquire_current(kCurrentRate, current);
    std::vector<double> vibration(8192);
    for (const plant::MachinePoint point :
         {plant::MachinePoint::Motor, plant::MachinePoint::Gearbox,
          plant::MachinePoint::Compressor}) {
      sim.acquire_vibration(point, kVibrationRate, vibration);
      rules::FeatureFrame frame;
      extractor.extract_vibration(vibration, kVibrationRate, frame);
      if (point == plant::MachinePoint::Motor) {
        extractor.extract_current(current, kCurrentRate, sim.load(), frame);
      }
      ASSERT_GT(frame.size(), 0u);
      h = digest_frame(h, frame);
    }
  }
  EXPECT_EQ(h, 0xA11A35F77E1A9650ULL);
}

// --- Each kernel, not just the host's ---------------------------------------
//
// FftPlan runs the kernel CPUID picked; these pins run the complex and real
// transforms through the portable and the AVX loops in turn (the AVX leg
// skips on a host without AVX).

enum class Kernel { Portable, Avx };

const detail::FftKernel* kernel_for(Kernel kernel) {
  return kernel == Kernel::Portable ? &detail::portable_kernel()
                                    : detail::avx_kernel();
}

class FftKernelBitExactTest : public ::testing::TestWithParam<Kernel> {
 protected:
  void SetUp() override {
    if (kernel_for(GetParam()) == nullptr) {
      GTEST_SKIP() << "this host has no AVX";
    }
  }
  [[nodiscard]] const detail::FftKernel& kernel() const {
    return *kernel_for(GetParam());
  }
};

TEST_P(FftKernelBitExactTest, ComplexTransformsMatchReferenceBits) {
  Rng rng(1201);
  for (std::size_t n = 2; n <= 32768; n <<= 1) {
    const FftPlan plan(n, kernel());
    const ReferencePlan reference(n);
    for (const Input kind : kAllInputs) {
      const std::vector<Complex> x = complex_input(kind, n, rng);
      for (const bool invert : {false, true}) {
        std::vector<Complex> got = x;
        std::vector<Complex> want = x;
        invert ? plan.inverse(got) : plan.forward(got);
        reference.transform(want, invert);
        EXPECT_TRUE(same_bits(got, want))
            << "n=" << n << " input=" << static_cast<int>(kind)
            << " invert=" << invert;

        // The same transform of a signal written to the permuted entries.
        std::vector<Complex> permuted(n);
        for (std::size_t i = 0; i < n; ++i) {
          permuted[plan.bit_reversal()[i]] = x[i];
        }
        invert ? plan.inverse_permuted(permuted)
               : plan.forward_permuted(permuted);
        EXPECT_TRUE(same_bits(permuted, want))
            << "permuted n=" << n << " input=" << static_cast<int>(kind)
            << " invert=" << invert;
      }
    }
  }
}

TEST_P(FftKernelBitExactTest, RealTransformsMatchReferenceBits) {
  Rng rng(1202);
  for (std::size_t n = 4; n <= 32768; n <<= 1) {
    const RealFftPlan plan(n, kernel());
    const ReferenceRealPlan reference(n);
    std::vector<Complex> half(plan.bins());
    std::vector<Complex> scratch(plan.scratch_size());
    std::vector<double> back(n);
    for (const Input kind : kAllInputs) {
      const std::vector<double> x = real_input(kind, n, rng);
      plan.forward(x, half, scratch);
      const std::vector<Complex> want_half = reference.forward(x);
      EXPECT_TRUE(same_bits(half, want_half))
          << "forward n=" << n << " input=" << static_cast<int>(kind);

      plan.inverse(want_half, back, scratch);
      EXPECT_TRUE(same_bits(back, reference.inverse(want_half)))
          << "inverse n=" << n << " input=" << static_cast<int>(kind);
    }
  }
}

TEST_P(FftKernelBitExactTest, WindowFoldedIntoThePackMatchesAWindowedCopy) {
  // Full, odd-length and zero-padded records, each with a Hann window and
  // with signed zeros in both the samples and the window.
  Rng rng(1204);
  for (const std::size_t n : {std::size_t{4}, std::size_t{64},
                              std::size_t{8192}, std::size_t{32768}}) {
    const RealFftPlan plan(n, kernel());
    std::vector<Complex> half(plan.bins());
    std::vector<Complex> want(plan.bins());
    std::vector<Complex> scratch(plan.scratch_size());
    for (const std::size_t len : {n, n - 1, n / 2 + 1}) {
      std::vector<double> x = real_input(Input::Random, len, rng);
      x[0] = -0.0;
      std::vector<double> window = make_window(WindowKind::Hann, len);
      window[len - 1] = -0.0;
      std::vector<double> windowed(len);
      for (std::size_t i = 0; i < len; ++i) windowed[i] = x[i] * window[i];
      plan.forward(x, half, scratch, window);
      plan.forward(windowed, want, scratch);
      EXPECT_TRUE(same_bits(half, want)) << "n=" << n << " len=" << len;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, FftKernelBitExactTest,
                         ::testing::Values(Kernel::Portable, Kernel::Avx),
                         [](const ::testing::TestParamInfo<Kernel>& param) {
                           return param.param == Kernel::Portable
                                      ? std::string("Portable")
                                      : std::string("Avx");
                         });

// --- The envelope against the reference kernel -------------------------------
//
// A verbatim copy of analytic_envelope as it stood before the analytic
// spectrum was written to the bit-reversed entries, over ReferencePlan:
// forward real FFT, per-bin gate on the positive half, analytic-signal
// construction and a full complex inverse.

template <typename Keep>
std::vector<double> reference_envelope(std::span<const double> x,
                                       double sample_rate_hz,
                                       const Keep& keep) {
  const std::size_t n = next_power_of_two(std::max<std::size_t>(x.size(), 4));
  const double bin_hz = sample_rate_hz / static_cast<double>(n);

  const std::vector<Complex> half = ReferenceRealPlan(n).forward(x);

  std::vector<Complex> spec(n);
  spec[0] = keep(std::size_t{0}, bin_hz) ? half[0] : Complex{};
  for (std::size_t i = 1; i < n / 2; ++i) {
    spec[i] = keep(i, bin_hz) ? 2.0 * half[i] : Complex{};
  }
  spec[n / 2] = keep(n / 2, bin_hz) ? half[n / 2] : Complex{};
  for (std::size_t i = n / 2 + 1; i < n; ++i) spec[i] = Complex{};

  ReferencePlan(n).transform(spec, true);

  std::vector<double> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = std::abs(spec[i]);
  }
  return out;
}

std::vector<double> reference_envelope_bandpassed(std::span<const double> x,
                                                  double sample_rate_hz,
                                                  double lo_hz, double hi_hz) {
  return reference_envelope(
      x, sample_rate_hz, [lo_hz, hi_hz](std::size_t i, double bin_hz) {
        const double f = static_cast<double>(i) * bin_hz;
        return f >= lo_hz && f <= hi_hz;
      });
}

TEST(EnvelopeBitExactTest, MatchesTheReferenceKernelBitForBit) {
  constexpr double kRate = 40960.0;
  Rng rng(1205);
  // 8192 and 32768 points, and an odd-length record zero-padded to 1024.
  for (const std::size_t len : {std::size_t{8192}, std::size_t{32768},
                                std::size_t{1001}}) {
    std::vector<double> x = sine(len, 3100.0, kRate);
    for (double& v : x) v += rng.normal(0.0, 0.3);
    const auto all = [](std::size_t, double) { return true; };
    EXPECT_TRUE(same_bits(envelope(x), reference_envelope(x, 1.0, all)))
        << "envelope len=" << len;
    EXPECT_TRUE(same_bits(envelope_bandpassed(x, kRate, 2000.0, 8000.0),
                          reference_envelope_bandpassed(x, kRate, 2000.0,
                                                        8000.0)))
        << "band-passed len=" << len;
  }
}

TEST(EnvelopeBitExactTest, BandThatKeepsNoBinMatchesTheReference) {
  // A band narrower than one bin, between two bin centres: every bin is
  // gated off and the envelope is all zeros.
  constexpr double kRate = 40960.0;
  const std::vector<double> x = sine(8192, 1000.0, kRate);
  const double bin_hz = kRate / 8192.0;
  const double lo = 200.3 * bin_hz;
  const double hi = 200.6 * bin_hz;
  const std::vector<double> got = envelope_bandpassed(x, kRate, lo, hi);
  EXPECT_TRUE(
      same_bits(got, reference_envelope_bandpassed(x, kRate, lo, hi)));
  EXPECT_TRUE(std::all_of(got.begin(), got.end(),
                          [](double v) { return v == 0.0; }));
}

// --- Band reads on the half spectrum ---------------------------------------

TEST(HalfSpectrumTest, BandReadsMatchTheMagnitudeSpectrumBitForBit) {
  Rng rng(0xBA4D);
  std::vector<double> x(8192);
  for (double& v : x) v = rng.normal(0.0, 1.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] += std::sin(kTwoPi * 297.0 * static_cast<double>(i) / 40960.0);
  }
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  // 8192 points unpadded, as the DC's vibration frames are
  // (ExtractorConfig::fft_size equals DcConfig::window), and zero-padded to
  // 16384.
  for (const std::size_t fft_size : {std::size_t{8192}, std::size_t{16384}}) {
    SCOPED_TRACE(fft_size);
    SpectrumConfig cfg;
    cfg.fft_size = fft_size;
    const Spectrum full = amplitude_spectrum(x, 40960.0, cfg);
    const HalfSpectrum half = half_spectrum(x, 40960.0, cfg);
    ASSERT_EQ(half.bins(), full.bins());
    EXPECT_EQ(half.bin_hz, full.bin_hz);
    for (std::size_t i = 0; i < full.bins(); ++i) {
      ASSERT_EQ(bits(half.amplitude(i)), bits(full.amplitude[i])) << i;
    }
    // Bands inside, across the edges of and beyond the spectrum, empty ones
    // and a reversed one.
    for (int trial = 0; trial < 400; ++trial) {
      const double lo = rng.uniform(-500.0, 21000.0);
      const double hi = lo + rng.uniform(-50.0, 3000.0);
      EXPECT_EQ(bits(half.band_peak(lo, hi)), bits(full.band_peak(lo, hi)));
      EXPECT_EQ(bits(half.band_energy(lo, hi)),
                bits(full.band_energy(lo, hi)));
    }
    EXPECT_EQ(bits(order_amplitude(half, 29.6, 2.0, 0.05)),
              bits(order_amplitude(full, 29.6, 2.0, 0.05)));
  }
}

TEST(WaveformStatsTest, OnePassFieldsMatchTheStandaloneRoutines) {
  Rng rng(0x57A7);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{97},
                              std::size_t{8192}}) {
    std::vector<double> x(n);
    for (double& v : x) v = rng.normal(0.3, 2.0);
    const WaveformStats s = waveform_stats(x);
    const Moments m = moments(x);
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    EXPECT_EQ(bits(s.moments.mean), bits(m.mean));
    EXPECT_EQ(bits(s.moments.variance), bits(m.variance));
    EXPECT_EQ(bits(s.moments.skewness), bits(m.skewness));
    EXPECT_EQ(bits(s.moments.kurtosis), bits(m.kurtosis));
    EXPECT_EQ(bits(s.rms), bits(rms(x)));
    EXPECT_EQ(bits(s.crest_factor), bits(crest_factor(x)));
  }
  EXPECT_EQ(waveform_stats({}).rms, 0.0);
}

// --- Exact selection -----------------------------------------------------------

/// The value std::nth_element leaves at rank k of a copy of `v`.
double nth_reference(std::vector<double> v, std::size_t k) {
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

/// select_kth over the entries of `v`, read through an index as the sensor
/// screen reads its samples.
double select_in(const std::vector<double>& v, std::size_t k,
                 std::span<double> work) {
  return select_kth(
      v.size(), k, [&v](std::size_t i) { return v[i]; }, work);
}

/// select_kth against nth_element at a spread of ranks (the median among
/// them), compared with == (so +0 and -0 agree). The work buffer starts out
/// poisoned and longer than the input, as the screen's borrowed lane is.
void expect_selection_exact(const std::vector<double>& v,
                            const std::string& what) {
  SCOPED_TRACE(what + " n=" + std::to_string(v.size()));
  const std::size_t n = v.size();
  std::vector<double> work(n + 7, std::numeric_limits<double>::quiet_NaN());
  std::vector<std::size_t> ranks = {0, n / 4, (n - 1) / 2, n / 2, n - 1};
  if (n > 4) ranks.push_back(n / 2 - 1);
  for (const std::size_t k : ranks) {
    EXPECT_TRUE(select_in(v, k, work) == nth_reference(v, k)) << "rank " << k;
  }
  // The screen's form: absolute deviations computed on the fly.
  const double center = nth_reference(v, n / 2);
  const double mad = select_kth(
      n, n / 2, [&](std::size_t i) { return std::fabs(v[i] - center); },
      work);
  std::vector<double> dev = v;
  for (double& x : dev) x = std::fabs(x - center);
  EXPECT_TRUE(mad == nth_reference(dev, n / 2));
}

std::vector<double> absolute_deviations(std::vector<double> v) {
  const double median = nth_reference(v, v.size() / 2);
  for (double& x : v) x = std::fabs(x - median);
  return v;
}

/// A current-channel record: 60 Hz line at 4096 Hz with a harmonic and
/// a little noise, the periodic shape that slows nth_element down.
std::vector<double> line_current(std::size_t n, double noise, Rng& rng) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / 4096.0;
    x[i] = 140.0 * std::sin(kTwoPi * 60.0 * t) +
           6.0 * std::sin(kTwoPi * 180.0 * t + 0.3) +
           (noise > 0.0 ? rng.normal(0.0, noise) : 0.0);
  }
  return x;
}

TEST(SelectKthTest, PeriodicCurrentRecordsAndTheirDeviations) {
  Rng rng(0x5E1E);
  for (const std::size_t n : {std::size_t{4096}, std::size_t{32768}}) {
    for (const double noise : {0.0, 0.5}) {
      const std::vector<double> x = line_current(n, noise, rng);
      expect_selection_exact(x, "line current");
      expect_selection_exact(absolute_deviations(x), "line current |dev|");
    }
    // A pure tone whose period divides the record: every phase repeats.
    std::vector<double> tone(n);
    for (std::size_t i = 0; i < n; ++i) {
      tone[i] = std::sin(kTwoPi * static_cast<double>(i % 64) / 64.0);
    }
    expect_selection_exact(tone, "64-sample tone");
    expect_selection_exact(absolute_deviations(tone), "64-sample tone |dev|");
  }
}

TEST(SelectKthTest, SortedReversedConstantAndTwoValuedData) {
  for (const std::size_t n : {std::size_t{3000}, std::size_t{8192}}) {
    std::vector<double> up(n);
    for (std::size_t i = 0; i < n; ++i) up[i] = static_cast<double>(i);
    expect_selection_exact(up, "sorted");
    std::vector<double> down(up.rbegin(), up.rend());
    expect_selection_exact(down, "reversed");
    expect_selection_exact(std::vector<double>(n, 2.5), "constant");
    std::vector<double> runs(n);
    for (std::size_t i = 0; i < n; ++i) {
      runs[i] = static_cast<double>(i / 700);
    }
    expect_selection_exact(runs, "constant runs");
    std::vector<double> two(n);
    for (std::size_t i = 0; i < n; ++i) two[i] = (i % 3 == 0) ? -1.0 : 4.0;
    expect_selection_exact(two, "two-valued");
    std::vector<double> lopsided(n, 7.0);
    lopsided[n / 3] = -7.0;
    expect_selection_exact(lopsided, "one outlier");
  }
}

TEST(SelectKthTest, SignedZerosCompareEqual) {
  for (const std::size_t n : {std::size_t{5}, std::size_t{4000}}) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = i % 3 == 0 ? -0.0 : (i % 3 == 1 ? 0.0 : 1.0);
    }
    expect_selection_exact(v, "+-0 and 1");
    std::vector<double> zeros(n);
    for (std::size_t i = 0; i < n; ++i) zeros[i] = i % 2 == 0 ? -0.0 : 0.0;
    expect_selection_exact(zeros, "+-0 only");
  }
}

TEST(SelectKthTest, SmallSizesAndBothSidesOfEveryCutover) {
  Rng rng(0xC07);
  // 1-3 values; the nth_element cut-over; the sample reaching its full
  // 1024 values at n = 16384.
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, kSelectCutover - 1,
        kSelectCutover, kSelectCutover + 1, std::size_t{16383},
        std::size_t{16384}, std::size_t{16385}}) {
    std::vector<double> v(n);
    for (double& x : v) x = rng.normal(0.0, 1.0);
    expect_selection_exact(v, "gaussian");
    for (double& x : v) x = std::round(rng.uniform(0.0, 4.0));
    expect_selection_exact(v, "five values");
  }
}

TEST(SelectKthTest, BracketMissFallsBackToAFullSelection) {
  // One minimum at index 1, which the sample does not visit: the bracket
  // for rank 0 starts above it, and only the fallback finds it. Likewise a
  // lone maximum for rank n - 1.
  for (const std::size_t n : {std::size_t{4096}, std::size_t{32768}}) {
    std::vector<double> v(n, 5.0);
    v[1] = -1.0;
    v[2] = 9.0;
    std::vector<double> work(n);
    EXPECT_EQ(select_in(v, 0, work), -1.0);
    EXPECT_EQ(select_in(v, n - 1, work), 9.0);
    expect_selection_exact(v, "lone extremes");
  }
}

TEST(SelectKthTest, SeededDaqWindows) {
  plant::ChillerConfig cfg;
  cfg.seed = 0xDA0;
  plant::ChillerSimulator sim(cfg);
  plant::FaultEvent fault;
  fault.mode = domain::FailureMode::MotorBearingWear;
  fault.ramp = SimTime::from_seconds(600);
  sim.faults().schedule(fault);
  std::vector<double> current(32768);
  std::vector<double> vibration(8192);
  for (int test = 0; test < 3; ++test) {
    sim.advance(SimTime::from_seconds(300));
    sim.acquire_current(4096.0, current);
    expect_selection_exact(current, "current record");
    expect_selection_exact(absolute_deviations(current), "current |dev|");
    for (const plant::MachinePoint point :
         {plant::MachinePoint::Motor, plant::MachinePoint::Gearbox,
          plant::MachinePoint::Compressor}) {
      sim.acquire_vibration(point, 40960.0, vibration);
      expect_selection_exact(vibration, "vibration record");
      expect_selection_exact(absolute_deviations(vibration),
                             "vibration |dev|");
    }
  }
}

}  // namespace
}  // namespace mpros::dsp
