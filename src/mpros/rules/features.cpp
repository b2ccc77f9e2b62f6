#include "mpros/rules/features.hpp"

#include <algorithm>
#include <cmath>

#include "mpros/common/assert.hpp"
#include "mpros/dsp/envelope.hpp"
#include "mpros/dsp/fft.hpp"
#include "mpros/dsp/scratch.hpp"
#include "mpros/dsp/spectrum.hpp"
#include "mpros/dsp/stats.hpp"
#include "mpros/telemetry/metrics.hpp"

namespace mpros::rules {

telemetry::Counter& nonfinite_inputs() {
  static telemetry::Counter& c =
      telemetry::Registry::instance().counter("rules.nonfinite_inputs");
  return c;
}

void FeatureFrame::set(std::string_view key, double value) {
  if (!std::isfinite(value)) {
    nonfinite_inputs().inc();
    return;
  }
  if (const auto it = values_.find(key); it != values_.end()) {
    it->second = value;
  } else {
    values_.emplace(key, value);
  }
}

double FeatureFrame::get(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::optional<double> FeatureFrame::maybe(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

FeatureExtractor::FeatureExtractor(domain::MachineSignature signature,
                                   ExtractorConfig cfg)
    : signature_(signature), cfg_(cfg) {}

void FeatureExtractor::extract_vibration(std::span<const double> waveform,
                                         double sample_rate_hz,
                                         FeatureFrame& frame) const {
  MPROS_EXPECTS(waveform.size() >= 64);
  const double shaft = signature_.shaft_hz;

  // The transforms and band reads below are allocation-free once the plan
  // and window caches and the thread's sample arena are warm. Each band
  // read computes magnitudes for the bins it covers only; every read of
  // `spec` comes before the envelope, whose transforms reuse the lane it
  // views.
  dsp::SpectrumConfig scfg;
  scfg.fft_size =
      std::max(cfg_.fft_size, dsp::next_power_of_two(waveform.size()));
  const dsp::HalfSpectrum spec =
      dsp::half_spectrum(waveform, sample_rate_hz, scfg);

  const auto order = [&](double k) {
    return dsp::order_amplitude(spec, shaft, k, cfg_.order_tolerance);
  };

  // orders[k] is the amplitude at k x running speed; half orders apart.
  double orders[7] = {};
  for (int k = 1; k <= 6; ++k) orders[k] = order(static_cast<double>(k));
  const double half_orders[3] = {order(0.5), order(1.5), order(2.5)};

  frame.set(feat::kOrderHalf, half_orders[0]);
  frame.set(feat::kOrder1, orders[1]);
  frame.set(feat::kOrder2, orders[2]);
  frame.set(feat::kOrder3, orders[3]);
  frame.set(feat::kOrder4, orders[4]);

  double series = 0.0;
  for (int k = 1; k <= 6; ++k) series += orders[k] * orders[k];
  frame.set(feat::kHarmonicSeries, std::sqrt(series));

  double sub = 0.0;
  for (const double a : half_orders) sub += a * a;
  frame.set(feat::kSubharmonics, std::sqrt(sub));

  // Gear mesh and its +/- 1x-shaft sidebands (wear modulates the mesh tone).
  const double gmf = signature_.gear_mesh_hz();
  if (gmf < sample_rate_hz / 2.0) {
    frame.set(feat::kGearMesh,
              spec.band_peak(gmf - shaft * cfg_.order_tolerance,
                             gmf + shaft * cfg_.order_tolerance));
    const double sb_lo = spec.band_peak(gmf - shaft * 1.1, gmf - shaft * 0.9);
    const double sb_hi = spec.band_peak(gmf + shaft * 0.9, gmf + shaft * 1.1);
    frame.set(feat::kGearSidebands, std::sqrt(sb_lo * sb_lo + sb_hi * sb_hi));
  }

  // Compressor vane passing (on the high-speed shaft).
  const double vpf = signature_.vane_pass_hz();
  if (vpf < sample_rate_hz / 2.0) {
    frame.set(feat::kVanePass,
              spec.band_peak(vpf * (1.0 - cfg_.order_tolerance),
                             vpf * (1.0 + cfg_.order_tolerance)));
  }

  // Broadband high-frequency energy (cavitation raises the floor).
  frame.set(feat::kBroadbandHf,
            std::sqrt(spec.band_energy(
                std::min(5000.0, sample_rate_hz * 0.25),
                std::min(12000.0, sample_rate_hz * 0.45))));

  // Bearing tones via envelope demodulation of the resonance band.
  const double band_hi = std::min(cfg_.envelope_band_hi_hz,
                                  sample_rate_hz * 0.45);
  if (cfg_.envelope_band_lo_hz < band_hi) {
    const std::span<double> env = dsp::DspScratch::local().real_lane(
        dsp::DspScratch::Real::kEnvelope, waveform.size());
    dsp::envelope_bandpassed(waveform, sample_rate_hz,
                             cfg_.envelope_band_lo_hz, band_hi, env);
    // Remove the DC component of the envelope before the spectrum.
    const double env_mean = dsp::mean(env);
    for (double& v : env) v -= env_mean;
    const dsp::HalfSpectrum env_spec =
        dsp::half_spectrum(env, sample_rate_hz, scfg);

    // Motor bearings ride the motor shaft; the compressor's angular-contact
    // set rides the high-speed shaft after the speed increaser.
    const double hss = signature_.high_speed_shaft_hz();
    const auto env_order = [&](double base_hz, double k) {
      return dsp::order_amplitude(env_spec, base_hz, k, 0.08);
    };
    frame.set(feat::kBpfo, env_order(shaft, signature_.bearing.bpfo));
    frame.set(feat::kBpfi, env_order(shaft, signature_.bearing.bpfi));
    frame.set(feat::kBsf, env_order(hss, signature_.hss_bearing.bsf));
    frame.set(feat::kFtf, env_order(hss, signature_.hss_bearing.ftf));
  }

  const dsp::WaveformStats stats = dsp::waveform_stats(waveform);
  frame.set(feat::kOverallRms, stats.rms);
  frame.set(feat::kCrestFactor, stats.crest_factor);
  frame.set(feat::kKurtosis, stats.moments.kurtosis);
}

void FeatureExtractor::extract_current(std::span<const double> waveform,
                                       double sample_rate_hz,
                                       double load_fraction,
                                       FeatureFrame& frame) const {
  MPROS_EXPECTS(waveform.size() >= 64);
  const double line = signature_.line_hz;

  // Current-signature analysis needs sub-Hz resolution to resolve the
  // pole-pass sidebands around the line component, so the FFT length
  // follows the (long, low-rate) record rather than the vibration default.
  dsp::SpectrumConfig scfg;
  scfg.fft_size = dsp::next_power_of_two(waveform.size());
  const dsp::HalfSpectrum spec =
      dsp::half_spectrum(waveform, sample_rate_hz, scfg);

  const double fundamental = spec.band_peak(line * 0.98, line * 1.02);
  frame.set(feat::kCurrentRms, dsp::rms(waveform));
  frame.set(feat::kTwiceLine, spec.band_peak(line * 1.96, line * 2.04));

  // Broken rotor bars put sidebands at line +/- 2*slip*pole_pairs. Express
  // them relative to the fundamental in dB below carrier (positive = deeper
  // = healthier); rules alarm when the value drops.
  const double pole_pass =
      2.0 * signature_.slip_hz(std::clamp(load_fraction, 0.05, 1.0)) *
      signature_.pole_pairs;
  const double lo = spec.band_peak(line - pole_pass * 1.25,
                                   line - pole_pass * 0.75);
  const double hi = spec.band_peak(line + pole_pass * 0.75,
                                   line + pole_pass * 1.25);
  const double sideband = std::max(lo, hi);
  const double db_below =
      (fundamental > 0.0 && sideband > 0.0)
          ? 20.0 * std::log10(fundamental / sideband)
          : 80.0;  // no visible sideband: report a deep (healthy) floor
  frame.set(feat::kPolePassSidebands, db_below);
}

}  // namespace mpros::rules
