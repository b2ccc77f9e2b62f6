#include "mpros/wavelet/features.hpp"

#include <algorithm>
#include <cmath>

#include "mpros/common/assert.hpp"
#include "mpros/dsp/scratch.hpp"

namespace mpros::wavelet {
namespace {

double sum_sq(std::span<const double> v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return s;
}

}  // namespace

std::vector<double> energy_map(const Decomposition& d) {
  std::vector<double> energies;
  energies.reserve(d.details.size() + 1);
  double total = 0.0;
  for (const auto& detail : d.details) {
    energies.push_back(sum_sq(detail));
    total += energies.back();
  }
  energies.push_back(sum_sq(d.approx));
  total += energies.back();

  if (total > 0.0) {
    for (double& e : energies) e /= total;
  }
  return energies;
}

double energy_entropy(const Decomposition& d) {
  const std::vector<double> map = energy_map(d);
  double h = 0.0;
  for (double p : map) {
    if (p > 1e-15) h -= p * std::log2(p);
  }
  return h;
}

std::vector<double> peak_map(const Decomposition& d) {
  std::vector<double> peaks;
  peaks.reserve(d.details.size());
  for (const auto& detail : d.details) {
    double peak = 0.0;
    for (double v : detail) peak = std::max(peak, std::fabs(v));
    peaks.push_back(peak);
  }
  return peaks;
}

std::vector<double> wavelet_feature_vector(std::span<const double> x, Family f,
                                           std::size_t levels) {
  std::vector<double> features(levels + 2);
  wavelet_feature_vector(x, f, levels, features);
  return features;
}

void wavelet_feature_vector(std::span<const double> x, Family f,
                            std::size_t levels, std::span<double> out) {
  MPROS_EXPECTS(out.size() == levels + 2);
  MPROS_EXPECTS(levels >= 1 && levels <= max_levels(x.size()));
  // The pyramid runs in place in the thread's wavelet lane and keeps only
  // each level's detail energy, so no decomposition is stored.
  std::span<double> approx = dsp::DspScratch::local().real_lane(
      dsp::DspScratch::Real::kWavelet, x.size());
  std::copy(x.begin(), x.end(), approx.begin());
  const std::span<double> energies = out.first(levels + 1);
  double total = 0.0;
  for (std::size_t i = 0; i < levels; ++i) {
    energies[i] = analyze_in_place(approx, f, {});
    total += energies[i];
    approx = approx.first(approx.size() / 2);
  }
  energies[levels] = sum_sq(approx);
  total += energies[levels];
  if (total > 0.0) {
    for (double& e : energies) e /= total;
  }

  double h = 0.0;
  for (double p : energies) {
    if (p > 1e-15) h -= p * std::log2(p);
  }
  out[levels + 1] = h;
}

}  // namespace mpros::wavelet
