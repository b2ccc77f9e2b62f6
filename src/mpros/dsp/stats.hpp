#pragma once
// Descriptive statistics of sample windows.
//
// These scalar condition indicators (RMS, crest factor, kurtosis, ...) are
// the classic first-line vibration features: the MUX cards in the paper carry
// hardware RMS detectors, and the WNN's feature vector includes peak
// amplitude and standard deviation (§6.2).

#include <cstddef>
#include <span>

namespace mpros::dsp {

struct Moments {
  double mean = 0.0;
  double variance = 0.0;  // population variance
  double stddev = 0.0;
  double skewness = 0.0;
  double kurtosis = 0.0;  // standardized 4th moment (3.0 for Gaussian)
};

/// One-pass mean; zero for an empty span.
[[nodiscard]] double mean(std::span<const double> x);

/// Root-mean-square; zero for an empty span.
[[nodiscard]] double rms(std::span<const double> x);

/// Largest absolute value; zero for an empty span.
[[nodiscard]] double peak_abs(std::span<const double> x);

/// Peak-to-peak range; zero for an empty span.
[[nodiscard]] double peak_to_peak(std::span<const double> x);

/// peak_abs / rms. A healthy sine is sqrt(2)≈1.414; impacting bearings push
/// this up sharply before RMS rises. Returns 0 when rms is 0.
[[nodiscard]] double crest_factor(std::span<const double> x);

/// Central moments through kurtosis; requires at least 2 samples for
/// variance, 3+ recommended for the higher moments.
[[nodiscard]] Moments moments(std::span<const double> x);

/// What a feature frame reads of a waveform's statistics, in two passes:
/// the sum, sum of squares and peak in one, the central moments in the
/// other. Each field is bit for bit the standalone routine's (moments, rms,
/// crest_factor), since every accumulator runs in the same index order.
struct WaveformStats {
  Moments moments;
  double rms = 0.0;
  double crest_factor = 0.0;
};
[[nodiscard]] WaveformStats waveform_stats(std::span<const double> x);

/// Zero-crossing count (sign changes), a cheap frequency proxy used by SBFR.
[[nodiscard]] std::size_t zero_crossings(std::span<const double> x);

}  // namespace mpros::dsp
