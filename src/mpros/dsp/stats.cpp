#include "mpros/dsp/stats.hpp"

#include <algorithm>
#include <cmath>

namespace mpros::dsp {
namespace {

/// Central moments about a known mean; `x` is not empty.
Moments central_moments(std::span<const double> x, double mean) {
  Moments m;
  m.mean = mean;
  double m2 = 0.0, m3 = 0.0, m4 = 0.0;
  for (double v : x) {
    const double d = v - m.mean;
    const double d2 = d * d;
    m2 += d2;
    m3 += d2 * d;
    m4 += d2 * d2;
  }
  const double n = static_cast<double>(x.size());
  m2 /= n;
  m3 /= n;
  m4 /= n;

  m.variance = m2;
  m.stddev = std::sqrt(m2);
  if (m2 > 0.0) {
    m.skewness = m3 / std::pow(m2, 1.5);
    m.kurtosis = m4 / (m2 * m2);
  }
  return m;
}

}  // namespace

double mean(std::span<const double> x) {
  if (x.empty()) return 0.0;
  double sum = 0.0;
  for (double v : x) sum += v;
  return sum / static_cast<double>(x.size());
}

double rms(std::span<const double> x) {
  if (x.empty()) return 0.0;
  double sum = 0.0;
  for (double v : x) sum += v * v;
  return std::sqrt(sum / static_cast<double>(x.size()));
}

double peak_abs(std::span<const double> x) {
  double peak = 0.0;
  for (double v : x) peak = std::max(peak, std::fabs(v));
  return peak;
}

double peak_to_peak(std::span<const double> x) {
  if (x.empty()) return 0.0;
  auto [lo, hi] = std::minmax_element(x.begin(), x.end());
  return *hi - *lo;
}

double crest_factor(std::span<const double> x) {
  const double r = rms(x);
  return r > 0.0 ? peak_abs(x) / r : 0.0;
}

Moments moments(std::span<const double> x) {
  if (x.empty()) return {};
  return central_moments(x, mean(x));
}

WaveformStats waveform_stats(std::span<const double> x) {
  WaveformStats s;
  if (x.empty()) return s;
  double sum = 0.0;
  double sum_sq = 0.0;
  double peak = 0.0;
  for (double v : x) {
    sum += v;
    sum_sq += v * v;
    peak = std::max(peak, std::fabs(v));
  }
  const double n = static_cast<double>(x.size());
  s.moments = central_moments(x, sum / n);
  s.rms = std::sqrt(sum_sq / n);
  s.crest_factor = s.rms > 0.0 ? peak / s.rms : 0.0;
  return s;
}

std::size_t zero_crossings(std::span<const double> x) {
  std::size_t count = 0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    if ((x[i - 1] < 0.0 && x[i] >= 0.0) || (x[i - 1] >= 0.0 && x[i] < 0.0)) {
      ++count;
    }
  }
  return count;
}

}  // namespace mpros::dsp
