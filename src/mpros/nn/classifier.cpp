#include "mpros/nn/classifier.hpp"

#include <algorithm>
#include <cmath>

#include "mpros/common/assert.hpp"
#include "mpros/dsp/cepstrum.hpp"
#include "mpros/dsp/dct.hpp"
#include "mpros/dsp/fft.hpp"
#include "mpros/dsp/scratch.hpp"
#include "mpros/dsp/spectrum.hpp"
#include "mpros/dsp/stats.hpp"
#include "mpros/wavelet/features.hpp"

namespace mpros::nn {

std::size_t wnn_label(std::optional<domain::FailureMode> mode) {
  if (!mode) return 0;
  return 1 + static_cast<std::size_t>(*mode);
}

std::optional<domain::FailureMode> wnn_mode(std::size_t label) {
  MPROS_EXPECTS(label < kWnnClassCount);
  if (label == 0) return std::nullopt;
  return static_cast<domain::FailureMode>(label - 1);
}

WnnClassifier::WnnClassifier(WnnConfig cfg, std::uint64_t seed)
    : cfg_(cfg), rng_(seed) {
  const std::size_t dim = feature_count();
  net_.add_wavelet(dim, cfg_.wavelons, rng_);
  net_.add_dense(cfg_.wavelons, kWnnClassCount, Activation::Linear, rng_);
}

std::size_t WnnClassifier::feature_count() const {
  // 4 statistics + 2 cepstral + dct + (wavelet levels + 1 approx + entropy)
  // + 3 context values.
  return 4 + 2 + cfg_.dct_coeffs + (cfg_.wavelet_levels + 2) + 3;
}

std::vector<double> WnnClassifier::features(std::span<const double> waveform,
                                            double sample_rate_hz,
                                            const WnnContext& ctx) const {
  MPROS_EXPECTS(waveform.size() >= (std::size_t{1} << cfg_.wavelet_levels));
  std::vector<double> f;
  f.reserve(feature_count());

  // Statistics: peak amplitude and standard deviation per §6.2, plus crest
  // and kurtosis which the same statistics pass yields for free.
  const dsp::Moments m = dsp::moments(waveform);
  f.push_back(dsp::peak_abs(waveform));
  f.push_back(m.stddev);
  f.push_back(dsp::crest_factor(waveform));
  f.push_back(m.kurtosis);

  // The cepstrum, and then the log spectrum, live in the thread's sample
  // arena (training sweeps thousands of windows through here; one reused
  // lane keeps that loop off the allocator).
  const std::span<double> ceps = dsp::DspScratch::local().real_lane(
      dsp::DspScratch::Real::kWnnSpectrum,
      dsp::next_power_of_two(std::max<std::size_t>(waveform.size(), 4)));

  // Cepstrum: dominant quefrency in the 2..200 ms band and its strength.
  dsp::real_cepstrum(waveform, ceps);
  const double q = dsp::dominant_quefrency(ceps, sample_rate_hz, 0.002, 0.2);
  f.push_back(q * 1000.0);  // ms
  double q_strength = 0.0;
  if (q > 0.0) {
    const auto bin = static_cast<std::size_t>(q * sample_rate_hz);
    if (bin < ceps.size()) q_strength = ceps[bin];
  }
  f.push_back(q_strength);

  // DCT coefficients of the log amplitude spectrum (spectral shape).
  const dsp::HalfSpectrum spec = dsp::half_spectrum(waveform, sample_rate_hz);
  const std::span<double> log_spec = ceps.first(spec.bins());  // same lane
  for (std::size_t i = 0; i < log_spec.size(); ++i) {
    log_spec[i] = std::log10(spec.amplitude(i) + 1e-9);
  }
  const std::vector<double> dct =
      dsp::dct2_truncated(log_spec, cfg_.dct_coeffs);
  f.insert(f.end(), dct.begin(), dct.end());

  // Wavelet map: per-scale relative energies + entropy, written in place.
  // Truncate the window to a multiple of 2^levels.
  const std::size_t block = std::size_t{1} << cfg_.wavelet_levels;
  const std::size_t usable = (waveform.size() / block) * block;
  f.resize(f.size() + cfg_.wavelet_levels + 2);
  wavelet::wavelet_feature_vector(
      waveform.subspan(0, usable), wavelet::Family::Db4, cfg_.wavelet_levels,
      std::span(f).last(cfg_.wavelet_levels + 2));

  // Context: temperature, speed, mass-proxy (load), per the paper's list.
  f.push_back(ctx.bearing_temp_c);
  f.push_back(ctx.shaft_hz);
  f.push_back(ctx.load_fraction);

  MPROS_ENSURES(f.size() == feature_count());
  return f;
}

TrainStats WnnClassifier::train(std::span<const LabelledWindow> windows) {
  MPROS_EXPECTS(!windows.empty());
  std::vector<Example> examples;
  examples.reserve(windows.size());
  for (const LabelledWindow& w : windows) {
    MPROS_EXPECTS(w.label < kWnnClassCount);
    examples.push_back(
        Example{features(w.waveform, w.sample_rate_hz, w.context), w.label});
  }
  const TrainStats stats = net_.train(examples, cfg_.train, rng_);
  trained_ = true;
  return stats;
}

std::vector<double> WnnClassifier::probabilities(
    std::span<const double> waveform, double sample_rate_hz,
    const WnnContext& ctx) {
  MPROS_EXPECTS(trained_);
  return net_.predict(features(waveform, sample_rate_hz, ctx));
}

std::vector<rules::Diagnosis> WnnClassifier::diagnose(
    std::span<const double> waveform, double sample_rate_hz,
    const WnnContext& ctx, const rules::BelievabilityTable& beliefs,
    double threshold) {
  const std::vector<double> p = probabilities(waveform, sample_rate_hz, ctx);
  std::vector<rules::Diagnosis> out;
  for (std::size_t label = 1; label < p.size(); ++label) {
    if (p[label] < threshold) continue;
    const domain::FailureMode mode = *wnn_mode(label);

    rules::Diagnosis d;
    d.mode = mode;
    // The network gives a class posterior, not a degradation level; treat
    // the posterior as a moderate-band severity proxy so strong detections
    // escalate (documented substitution; the DLI engine owns fine-grained
    // severity).
    d.severity = std::clamp(0.25 + 0.5 * p[label], 0.0, 0.9);
    d.gradient = rules::gradient_of(d.severity);
    d.belief = p[label] * beliefs.belief(mode);
    d.explanation = std::string("WNN classification: ") +
                    domain::condition_text(mode);
    d.recommendation = "Correlate with vibration expert system findings.";
    d.prognosis = rules::default_prognosis(d.severity);
    out.push_back(std::move(d));
  }
  std::sort(out.begin(), out.end(),
            [](const rules::Diagnosis& a, const rules::Diagnosis& b) {
              return a.belief > b.belief;
            });
  return out;
}

}  // namespace mpros::nn
