// DSP substrate tests: FFT correctness, spectra, statistics, cepstrum, DCT,
// envelope, filters.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <string>
#include <utility>

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
#include "mpros/dsp/spectrum.hpp"
#include "mpros/dsp/stats.hpp"
#include "mpros/dsp/stft.hpp"
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

TEST(StftTest, StationaryToneTrackIsFlat) {
  const std::vector<double> x = sine(16384, 512.0, 8192.0);
  const Spectrogram sg = stft(x, 8192.0);
  EXPECT_GT(sg.frames(), 20u);
  const auto track = sg.tone_track(512.0);
  for (const double a : track) EXPECT_NEAR(a, 1.0, 0.05);
  EXPECT_LT(sg.burstiness(), 0.1);
}

TEST(StftTest, BurstLocalizedInTime) {
  // Tone present only in the middle quarter of the record.
  std::vector<double> x(16384, 0.0);
  for (std::size_t i = 6144; i < 10240; ++i) {
    x[i] = std::sin(kTwoPi * 512.0 * static_cast<double>(i) / 8192.0);
  }
  const Spectrogram sg = stft(x, 8192.0);
  const auto track = sg.tone_track(512.0);
  // Energy concentrated in the middle frames.
  const std::size_t mid = track.size() / 2;
  EXPECT_GT(track[mid], 0.8);
  EXPECT_LT(track[1], 0.05);
  EXPECT_LT(track[track.size() - 2], 0.05);
  EXPECT_GT(sg.burstiness(), 0.5);
}

TEST(StftTest, FrameGeometry) {
  StftConfig cfg;
  cfg.segment_size = 256;
  cfg.hop = 128;
  const std::vector<double> x = sine(1024, 100.0, 1024.0);
  const Spectrogram sg = stft(x, 1024.0, cfg);
  EXPECT_EQ(sg.frames(), 1u + (1024u - 256u) / 128u);
  EXPECT_EQ(sg.bins(), 129u);
  EXPECT_DOUBLE_EQ(sg.bin_hz(), 4.0);
  EXPECT_DOUBLE_EQ(sg.frame_step_s(), 0.125);
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
  // it; so does a change to plant synthesis, or a libm or standard library
  // whose sin or normal_distribution return other bits.
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

}  // namespace
}  // namespace mpros::dsp
