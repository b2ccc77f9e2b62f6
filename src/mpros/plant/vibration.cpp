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

/// One additive tone.
struct Tone {
  double freq_hz;
  double amplitude;
  double phase;
  bool gated;  ///< fault tone, subject to the transient burst envelope
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
  MPROS_EXPECTS(sample_rate_hz > 0.0 && !out.empty());
  MPROS_EXPECTS(transient.duty > 0.0 && transient.duty <= 1.0);
  MPROS_EXPECTS(transient.period_s > 0.0);
  const double shaft = signature_.shaft_hz;
  const double hss = signature_.high_speed_shaft_hz();
  const double gmf = signature_.gear_mesh_hz();
  const double vpf = signature_.vane_pass_hz();
  const double line = signature_.line_hz;
  const auto sev = [&](FailureMode m) {
    return severities[static_cast<std::size_t>(m)];
  };
  const auto att = [&](FailureMode m) { return attenuation(origin_of(m), point); };

  std::array<Tone, kMaxTones> tones{};
  std::size_t tone_count = 0;
  bool adding_fault_tones = false;  // flipped after the baseline block
  const auto add_tone = [&](double freq, double amp, double phase_salt) {
    if (amp <= 0.0 || freq >= sample_rate_hz / 2.0) return;
    MPROS_ASSERT(tone_count < tones.size());
    // Deterministic per-tone phase: stable across acquisitions.
    const double phase =
        kTwoPi * (0.0001 * static_cast<double>(
                               splitmix64(static_cast<std::uint64_t>(
                                   freq * 1000.0 + phase_salt)) %
                               10000));
    tones[tone_count++] = Tone{freq, amp, phase, adding_fault_tones};
  };

  // Healthy baseline, mildly load-dependent.
  const double load = std::clamp(load_fraction, 0.0, 1.2);
  add_tone(shaft, 0.05 * (0.6 + 0.4 * load), 1);
  add_tone(2.0 * shaft, 0.02, 2);
  add_tone(gmf, 0.03 * (0.5 + 0.5 * load), 3);
  add_tone(vpf, 0.02 * load, 4);
  add_tone(hss, 0.015, 5);
  adding_fault_tones = true;  // everything below is a fault signature

  // Imbalance: 1x grows with severity and with the square of speed (fixed
  // speed here, so linear in severity).
  if (const double s = sev(FailureMode::MotorImbalance) *
                       att(FailureMode::MotorImbalance);
      s > 0.0) {
    add_tone(shaft, 0.45 * s, 10);
  }

  // Misalignment: strong 2x, some 3x, slight axial 1x rise.
  if (const double s = sev(FailureMode::ShaftMisalignment) *
                       att(FailureMode::ShaftMisalignment);
      s > 0.0) {
    add_tone(2.0 * shaft, 0.32 * s, 11);
    add_tone(3.0 * shaft, 0.14 * s, 12);
    add_tone(shaft, 0.05 * s, 13);
  }

  // Looseness: half-order family plus a raised harmonic series; only
  // rattles under load (the rule gate exploits this).
  if (const double s = sev(FailureMode::BearingHousingLooseness) *
                       att(FailureMode::BearingHousingLooseness) *
                       std::clamp(load / 0.5, 0.0, 1.0);
      s > 0.0) {
    for (const double k : {0.5, 1.5, 2.5}) add_tone(k * shaft, 0.16 * s, 20);
    for (int k = 1; k <= 6; ++k) {
      add_tone(k * shaft, 0.10 * s / static_cast<double>(k), 21);
    }
  }

  // Gear wear: mesh tone + sidebands at +/- input shaft speed.
  if (const double s =
          sev(FailureMode::GearMeshWear) * att(FailureMode::GearMeshWear);
      s > 0.0) {
    add_tone(gmf, 0.30 * s, 30);
    add_tone(gmf - shaft, 0.14 * s, 31);
    add_tone(gmf + shaft, 0.14 * s, 32);
  }

  // Stator winding fault: 2x line-frequency magnetic vibration.
  if (const double s = sev(FailureMode::StatorWindingFault) *
                       att(FailureMode::StatorWindingFault);
      s > 0.0) {
    add_tone(2.0 * line, 0.25 * s, 40);
  }

  // Rotor bar: slight 1x modulation in vibration (the main signature is in
  // the current spectrum).
  if (const double s =
          sev(FailureMode::RotorBarDefect) * att(FailureMode::RotorBarDefect);
      s > 0.0) {
    add_tone(shaft, 0.12 * s, 45);
  }

  // Cavitation: strong vane pass plus broadband high-frequency noise
  // (handled in the noise pass below).
  const double cavitation = sev(FailureMode::PumpCavitation) *
                            att(FailureMode::PumpCavitation);
  if (cavitation > 0.0) add_tone(vpf, 0.20 * cavitation, 50);

  // Render tones one at a time over the whole record, in the order they
  // were added, so each sample sums the same terms in the same order;
  // fault tones ride the transient burst envelope.
  const double dt = 1.0 / sample_rate_hz;
  std::fill(out.begin(), out.end(), 0.0);
  for (const Tone& tone : std::span(tones).first(tone_count)) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      const double t = t0_seconds + static_cast<double>(i) * dt;
      const double g = tone.gated ? burst_gate(t, transient) : 1.0;
      if (g == 0.0) continue;
      out[i] += g * tone.amplitude *
                std::sin(kTwoPi * tone.freq_hz * t + tone.phase);
    }
  }

  // Broadband noise: baseline + cavitation contribution (white, so it
  // lands across the band including the 5-12 kHz window the rules watch).
  add_noise(rng_, out, [&](std::size_t i) {
    const double t = t0_seconds + static_cast<double>(i) * dt;
    return 0.02 + 0.13 * cavitation * burst_gate(t, transient);
  });

  // Bearing defects: repetitive impacts exciting a structural resonance.
  struct BearingSource {
    FailureMode mode;
    double order;
  };
  const BearingSource bearings[] = {
      {FailureMode::MotorBearingWear, signature_.bearing.bpfo},
      {FailureMode::CompressorBearingWear, signature_.hss_bearing.bsf},
  };
  const double resonance_hz = std::min(4200.0, sample_rate_hz * 0.4);
  for (const BearingSource& b : bearings) {
    const double s = sev(b.mode) * att(b.mode);
    if (s <= 0.0) continue;
    // Inner-race-style second tone for the motor bearing as wear spreads.
    const double rates[] = {b.order * (b.mode == FailureMode::MotorBearingWear
                                           ? signature_.shaft_hz
                                           : signature_.high_speed_shaft_hz()),
                            b.mode == FailureMode::MotorBearingWear
                                ? signature_.bearing.bpfi * signature_.shaft_hz
                                : signature_.hss_bearing.ftf *
                                      signature_.high_speed_shaft_hz()};
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
        const double jitter = rng_.uniform(-0.02, 0.02) * period_s;
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
