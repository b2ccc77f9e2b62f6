#include "mpros/plant/vibration.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "mpros/common/assert.hpp"
#include "mpros/common/units.hpp"

namespace mpros::plant {

using domain::FailureMode;

const char* to_string(MachinePoint p) {
  switch (p) {
    case MachinePoint::Motor: return "motor";
    case MachinePoint::Gearbox: return "gearbox";
    case MachinePoint::Compressor: return "compressor";
  }
  return "?";
}

namespace {

/// Transmission factor from a fault's origin point to the sensing point.
double attenuation(MachinePoint origin, MachinePoint sensor) {
  const int d = std::abs(static_cast<int>(origin) - static_cast<int>(sensor));
  switch (d) {
    case 0: return 1.0;
    case 1: return 0.35;
    default: return 0.12;
  }
}

MachinePoint origin_of(FailureMode m) {
  switch (m) {
    case FailureMode::MotorImbalance:
    case FailureMode::RotorBarDefect:
    case FailureMode::StatorWindingFault:
    case FailureMode::MotorBearingWear:
    case FailureMode::ShaftMisalignment:  // coupling on the motor output end
      return MachinePoint::Motor;
    case FailureMode::GearMeshWear:
      return MachinePoint::Gearbox;
    default:
      return MachinePoint::Compressor;
  }
}

/// A value per record of a render, by list position.
using PerRecord = std::array<double, kMachinePointCount>;

/// One additive tone and its amplitude at each record of a render; a record
/// whose amplitude is not positive leaves the tone out.
struct Tone {
  double freq_hz;
  double phase;
  bool gated;  ///< fault tone, subject to the transient burst envelope
  PerRecord amplitude;
};

/// Every tone acceleration() can add: five baseline tones, then at most
/// 1 + 3 + 9 + 3 + 1 + 1 + 1 fault tones.
constexpr std::size_t kMaxTones = 24;

/// Square burst gate: on for `duty` of each period, deterministic phase.
double burst_gate(double t, const TransientProfile& p) {
  if (p.duty >= 1.0) return 1.0;
  const double phase = t - std::floor(t / p.period_s) * p.period_s;
  return phase < p.duty * p.period_s ? 1.0 : 0.0;
}

/// Add `normal(0, sigma(i))` to each `out[i]`, drawn a block at a time:
/// the same words and the same bits as one normal() call per sample.
template <class Sigma>
void add_noise(Rng& rng, std::span<double> out, Sigma sigma) {
  std::array<double, 256> z{};
  for (std::size_t i0 = 0; i0 < out.size(); i0 += z.size()) {
    const std::size_t n = std::min(z.size(), out.size() - i0);
    rng.unit_normals(std::span(z).first(n));
    for (std::size_t k = 0; k < n; ++k) {
      out[i0 + k] += z[k] * sigma(i0 + k) + 0.0;
    }
  }
}

/// Bearing defects: repetitive impacts exciting a structural resonance,
/// added to the record at `point` with their timing jitter drawn from `rng`.
void add_bearing_impacts(Rng& rng, const domain::MachineSignature& signature,
                         MachinePoint point, const Severities& severities,
                         double t0_seconds, double sample_rate_hz,
                         std::span<double> out,
                         const TransientProfile& transient) {
  struct BearingSource {
    FailureMode mode;
    double order;
  };
  const BearingSource bearings[] = {
      {FailureMode::MotorBearingWear, signature.bearing.bpfo},
      {FailureMode::CompressorBearingWear, signature.hss_bearing.bsf},
  };
  const double dt = 1.0 / sample_rate_hz;
  const double resonance_hz = std::min(4200.0, sample_rate_hz * 0.4);
  for (const BearingSource& b : bearings) {
    const double s = severities[static_cast<std::size_t>(b.mode)] *
                     attenuation(origin_of(b.mode), point);
    if (s <= 0.0) continue;
    // Inner-race-style second tone for the motor bearing as wear spreads.
    const double rates[] = {b.order * (b.mode == FailureMode::MotorBearingWear
                                           ? signature.shaft_hz
                                           : signature.high_speed_shaft_hz()),
                            b.mode == FailureMode::MotorBearingWear
                                ? signature.bearing.bpfi * signature.shaft_hz
                                : signature.hss_bearing.ftf *
                                      signature.high_speed_shaft_hz()};
    const double weights[] = {1.0, 0.55};
    for (int r = 0; r < 2; ++r) {
      const double rate_hz = rates[r];
      if (rate_hz <= 0.0) continue;
      const double period_s = 1.0 / rate_hz;
      const double impact_amp = 0.9 * s * weights[r];
      // Ring-down time constant ~ 1.2 ms.
      const double tau = 1.2e-3;
      const double t_end =
          t0_seconds + static_cast<double>(out.size()) * dt;
      double impact_t = std::floor(t0_seconds / period_s) * period_s;
      for (; impact_t < t_end; impact_t += period_s) {
        // +/-2% timing jitter, characteristic of rolling-element slippage.
        const double jitter = rng.uniform(-0.02, 0.02) * period_s;
        const double center = impact_t + jitter;
        if (burst_gate(center, transient) == 0.0) continue;  // off-phase
        const auto first =
            static_cast<std::ptrdiff_t>((center - t0_seconds) * sample_rate_hz);
        const auto last = first + static_cast<std::ptrdiff_t>(
                                      6.0 * tau * sample_rate_hz);
        for (std::ptrdiff_t i = std::max<std::ptrdiff_t>(first, 0);
             i < std::min<std::ptrdiff_t>(
                     last, static_cast<std::ptrdiff_t>(out.size()));
             ++i) {
          const double t = t0_seconds + static_cast<double>(i) * dt - center;
          if (t < 0.0) continue;
          out[static_cast<std::size_t>(i)] +=
              impact_amp * std::exp(-t / tau) *
              std::sin(kTwoPi * resonance_hz * t);
        }
      }
    }
  }
}

}  // namespace

VibrationSynthesizer::VibrationSynthesizer(domain::MachineSignature signature,
                                           std::uint64_t seed)
    : signature_(signature), rng_(seed) {}

void VibrationSynthesizer::acceleration(MachinePoint point,
                                        const Severities& severities,
                                        double load_fraction,
                                        double t0_seconds,
                                        double sample_rate_hz,
                                        std::span<double> out,
                                        const TransientProfile& transient) {
  const PointRecord record{point, out};
  acceleration(std::span(&record, 1), severities, load_fraction, t0_seconds,
               sample_rate_hz, transient);
}

void VibrationSynthesizer::acceleration(std::span<const PointRecord> records,
                                        const Severities& severities,
                                        double load_fraction,
                                        double t0_seconds,
                                        double sample_rate_hz,
                                        const TransientProfile& transient) {
  MPROS_EXPECTS(!records.empty() && records.size() <= kMachinePointCount);
  const std::size_t n = records.front().out.size();
  for (const PointRecord& r : records) MPROS_EXPECTS(r.out.size() == n);
  MPROS_EXPECTS(sample_rate_hz > 0.0 && n > 0);
  MPROS_EXPECTS(transient.duty > 0.0 && transient.duty <= 1.0);
  MPROS_EXPECTS(transient.period_s > 0.0);
  const double shaft = signature_.shaft_hz;
  const double hss = signature_.high_speed_shaft_hz();
  const double gmf = signature_.gear_mesh_hz();
  const double vpf = signature_.vane_pass_hz();
  const double line = signature_.line_hz;

  // A fault mode's strength at each record: its severity times the
  // attenuation from the mode's origin to the record's point.
  const auto strength = [&](FailureMode m) {
    PerRecord s{};
    for (std::size_t k = 0; k < records.size(); ++k) {
      s[k] = severities[static_cast<std::size_t>(m)] *
             attenuation(origin_of(m), records[k].point);
    }
    return s;
  };
  // `coef * s / divisor` at each record whose strength s is positive, 0
  // (no tone) at the others.
  const auto scaled = [&](double coef, const PerRecord& s,
                          double divisor = 1.0) {
    PerRecord a{};
    for (std::size_t k = 0; k < records.size(); ++k) {
      if (s[k] > 0.0) a[k] = coef * s[k] / divisor;
    }
    return a;
  };
  // The same amplitude at every record.
  const auto everywhere = [&](double amp) {
    PerRecord a{};
    std::fill_n(a.begin(), records.size(), amp);
    return a;
  };

  std::array<Tone, kMaxTones> tones{};
  std::size_t tone_count = 0;
  bool adding_fault_tones = false;  // flipped after the baseline block
  const auto add_tone = [&](double freq, const PerRecord& amplitude,
                            double phase_salt) {
    if (freq >= sample_rate_hz / 2.0 ||
        std::all_of(amplitude.begin(), amplitude.begin() + records.size(),
                    [](double a) { return a <= 0.0; })) {
      return;
    }
    MPROS_ASSERT(tone_count < tones.size());
    // Deterministic per-tone phase: stable across acquisitions.
    const double phase =
        kTwoPi * (0.0001 * static_cast<double>(
                               splitmix64(static_cast<std::uint64_t>(
                                   freq * 1000.0 + phase_salt)) %
                               10000));
    tones[tone_count++] = Tone{freq, phase, adding_fault_tones, amplitude};
  };

  // Healthy baseline, mildly load-dependent.
  const double load = std::clamp(load_fraction, 0.0, 1.2);
  add_tone(shaft, everywhere(0.05 * (0.6 + 0.4 * load)), 1);
  add_tone(2.0 * shaft, everywhere(0.02), 2);
  add_tone(gmf, everywhere(0.03 * (0.5 + 0.5 * load)), 3);
  add_tone(vpf, everywhere(0.02 * load), 4);
  add_tone(hss, everywhere(0.015), 5);
  adding_fault_tones = true;  // everything below is a fault signature

  // Imbalance: 1x grows with severity and with the square of speed (fixed
  // speed here, so linear in severity).
  add_tone(shaft, scaled(0.45, strength(FailureMode::MotorImbalance)), 10);

  // Misalignment: strong 2x, some 3x, slight axial 1x rise.
  const PerRecord misalignment = strength(FailureMode::ShaftMisalignment);
  add_tone(2.0 * shaft, scaled(0.32, misalignment), 11);
  add_tone(3.0 * shaft, scaled(0.14, misalignment), 12);
  add_tone(shaft, scaled(0.05, misalignment), 13);

  // Looseness: half-order family plus a raised harmonic series; only
  // rattles under load (the rule gate exploits this).
  PerRecord looseness = strength(FailureMode::BearingHousingLooseness);
  for (double& s : looseness) s *= std::clamp(load / 0.5, 0.0, 1.0);
  for (const double k : {0.5, 1.5, 2.5}) {
    add_tone(k * shaft, scaled(0.16, looseness), 20);
  }
  for (int k = 1; k <= 6; ++k) {
    add_tone(k * shaft, scaled(0.10, looseness, k), 21);
  }

  // Gear wear: mesh tone + sidebands at +/- input shaft speed.
  const PerRecord gear = strength(FailureMode::GearMeshWear);
  add_tone(gmf, scaled(0.30, gear), 30);
  add_tone(gmf - shaft, scaled(0.14, gear), 31);
  add_tone(gmf + shaft, scaled(0.14, gear), 32);

  // Stator winding fault: 2x line-frequency magnetic vibration.
  add_tone(2.0 * line, scaled(0.25, strength(FailureMode::StatorWindingFault)),
           40);

  // Rotor bar: slight 1x modulation in vibration (the main signature is in
  // the current spectrum).
  add_tone(shaft, scaled(0.12, strength(FailureMode::RotorBarDefect)), 45);

  // Cavitation: strong vane pass plus broadband high-frequency noise
  // (handled in the noise pass below).
  const PerRecord cavitation = strength(FailureMode::PumpCavitation);
  add_tone(vpf, scaled(0.20, cavitation), 50);

  // Render tones one at a time over the whole record, in the order they
  // were added, so each sample sums the same terms in the same order;
  // fault tones ride the transient burst envelope. Each sample's sine is
  // taken once and added to every record the tone reaches.
  const double dt = 1.0 / sample_rate_hz;
  for (const PointRecord& r : records) {
    std::fill(r.out.begin(), r.out.end(), 0.0);
  }
  for (const Tone& tone : std::span(tones).first(tone_count)) {
    std::array<double*, kMachinePointCount> dst{};
    PerRecord amp{};
    std::size_t reached = 0;
    for (std::size_t k = 0; k < records.size(); ++k) {
      if (tone.amplitude[k] <= 0.0) continue;
      dst[reached] = records[k].out.data();
      amp[reached++] = tone.amplitude[k];
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double t = t0_seconds + static_cast<double>(i) * dt;
      const double g = tone.gated ? burst_gate(t, transient) : 1.0;
      if (g == 0.0) continue;
      const double wave = std::sin(kTwoPi * tone.freq_hz * t + tone.phase);
      for (std::size_t k = 0; k < reached; ++k) {
        dst[k][i] += g * amp[k] * wave;
      }
    }
  }

  // Record by record in list order, the seeded draws: broadband noise
  // (baseline + cavitation contribution; white, so it lands across the
  // band including the 5-12 kHz window the rules watch), then the bearing
  // impacts.
  for (std::size_t k = 0; k < records.size(); ++k) {
    add_noise(rng_, records[k].out, [&](std::size_t i) {
      const double t = t0_seconds + static_cast<double>(i) * dt;
      return 0.02 + 0.13 * cavitation[k] * burst_gate(t, transient);
    });
    add_bearing_impacts(rng_, signature_, records[k].point, severities,
                        t0_seconds, sample_rate_hz, records[k].out,
                        transient);
  }
}

void VibrationSynthesizer::motor_current(const Severities& severities,
                                         double load_fraction,
                                         double t0_seconds,
                                         double sample_rate_hz,
                                         std::span<double> out) {
  MPROS_EXPECTS(sample_rate_hz > 0.0 && !out.empty());
  const double line = signature_.line_hz;
  const double load = std::clamp(load_fraction, 0.05, 1.2);
  const auto sev = [&](FailureMode m) {
    return severities[static_cast<std::size_t>(m)];
  };

  // Fundamental amplitude tracks load; winding faults draw extra current;
  // condenser fouling raises compressor head and therefore current too.
  const double nominal_rms = 180.0;
  const double rms = nominal_rms *
                     (0.25 + 0.75 * load) *
                     (1.0 + 0.25 * sev(FailureMode::StatorWindingFault) +
                      0.18 * sev(FailureMode::CondenserFouling));
  const double fundamental = rms * std::sqrt(2.0);

  // Rotor bar sidebands at line +/- 2*slip*pole_pairs. Healthy machines sit
  // ~60 dB below the fundamental; a failed cage approaches ~22 dB.
  const double rotor = sev(FailureMode::RotorBarDefect);
  const double sideband_db = 60.0 - 38.0 * rotor;
  const double sideband_amp = fundamental * std::pow(10.0, -sideband_db / 20.0);
  const double pole_pass =
      2.0 * signature_.slip_hz(load) * signature_.pole_pairs;

  // Winding asymmetry adds a small third harmonic. A healthy winding's term
  // is ±0, and a sample is never -0.0 (each sideband is a nonzero amplitude
  // times the sine of a nonzero argument), so skipping it leaves every bit.
  const double third =
      fundamental * 0.04 * sev(FailureMode::StatorWindingFault);

  // One pass per term, in the order each sample sums them.
  const double dt = 1.0 / sample_rate_hz;
  const auto time = [&](std::size_t i) {
    return t0_seconds + static_cast<double>(i) * dt;
  };
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = fundamental * std::sin(kTwoPi * line * time(i));
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] += sideband_amp *
              std::sin(kTwoPi * (line - pole_pass) * time(i) + 0.7);
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] += sideband_amp *
              std::sin(kTwoPi * (line + pole_pass) * time(i) + 1.9);
  }
  if (third != 0.0) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] += third * std::sin(kTwoPi * 3.0 * line * time(i) + 0.3);
    }
  }
  const double noise_sigma = fundamental * 0.002;
  add_noise(rng_, out, [&](std::size_t) { return noise_sigma; });
}

}  // namespace mpros::plant
