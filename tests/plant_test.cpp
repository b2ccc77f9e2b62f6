// Plant simulator tests: fault injection, vibration signatures, process
// dynamics, the chiller composition, EMA traces, and the Fig 5 DAQ chain.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "mpros/common/assert.hpp"
#include "mpros/common/rng.hpp"
#include "mpros/common/units.hpp"
#include "mpros/dsp/spectrum.hpp"
#include "mpros/dsp/stats.hpp"
#include "mpros/plant/chiller.hpp"
#include "mpros/plant/daq.hpp"
#include "mpros/plant/ema.hpp"
#include "mpros/plant/faults.hpp"
#include "mpros/plant/process.hpp"
#include "mpros/plant/sensor_faults.hpp"
#include "mpros/plant/vibration.hpp"

namespace mpros::plant {
namespace {

using domain::FailureMode;

TEST(FaultInjectorTest, LinearRamp) {
  FaultInjector inj;
  inj.schedule({FailureMode::MotorImbalance, SimTime::from_days(10),
                SimTime::from_days(20), 1.0, GrowthProfile::Linear});
  EXPECT_DOUBLE_EQ(inj.severity_at(FailureMode::MotorImbalance,
                                   SimTime::from_days(5)), 0.0);
  EXPECT_DOUBLE_EQ(inj.severity_at(FailureMode::MotorImbalance,
                                   SimTime::from_days(20)), 0.5);
  EXPECT_DOUBLE_EQ(inj.severity_at(FailureMode::MotorImbalance,
                                   SimTime::from_days(40)), 1.0);
}

TEST(FaultInjectorTest, StepAndAcceleratingProfiles) {
  FaultInjector inj;
  inj.schedule({FailureMode::GearMeshWear, SimTime::from_days(1),
                SimTime::from_days(10), 0.8, GrowthProfile::Step});
  inj.schedule({FailureMode::OilDegradation, SimTime::from_days(0),
                SimTime::from_days(10), 1.0, GrowthProfile::Accelerating});
  EXPECT_DOUBLE_EQ(inj.severity_at(FailureMode::GearMeshWear,
                                   SimTime::from_days(1)), 0.8);
  // Accelerating: quadratic — halfway through the ramp only 25%.
  EXPECT_DOUBLE_EQ(inj.severity_at(FailureMode::OilDegradation,
                                   SimTime::from_days(5)), 0.25);
}

TEST(FaultInjectorTest, MultipleEventsTakeMax) {
  FaultInjector inj;
  inj.schedule({FailureMode::PumpCavitation, SimTime(0), SimTime(0), 0.3,
                GrowthProfile::Step});
  inj.schedule({FailureMode::PumpCavitation, SimTime(0), SimTime(0), 0.7,
                GrowthProfile::Step});
  EXPECT_DOUBLE_EQ(inj.severity_at(FailureMode::PumpCavitation, SimTime(0)),
                   0.7);
}

TEST(FaultInjectorTest, DominantModeIsGroundTruth) {
  FaultInjector inj;
  EXPECT_FALSE(inj.dominant_at(SimTime(0)).has_value());
  inj.schedule({FailureMode::RefrigerantLeak, SimTime(0), SimTime(0), 0.4,
                GrowthProfile::Step});
  inj.schedule({FailureMode::CondenserFouling, SimTime(0), SimTime(0), 0.9,
                GrowthProfile::Step});
  EXPECT_EQ(inj.dominant_at(SimTime(0)), FailureMode::CondenserFouling);
}

// --- Vibration synthesis ------------------------------------------------------

constexpr double kRate = 40960.0;
constexpr std::size_t kWindow = 8192;

std::vector<double> synth_window(FailureMode mode, double severity,
                                 MachinePoint point,
                                 double load = 0.85) {
  VibrationSynthesizer synth(domain::navy_chiller_signature(), 4242);
  Severities s{};
  s[static_cast<std::size_t>(mode)] = severity;
  std::vector<double> w(kWindow);
  synth.acceleration(point, s, load, 0.0, kRate, w);
  return w;
}

TEST(VibrationTest, HealthyBaselineHasExpectedTones) {
  VibrationSynthesizer synth(domain::navy_chiller_signature(), 1);
  std::vector<double> w(kWindow);
  synth.acceleration(MachinePoint::Motor, Severities{}, 0.85, 0.0, kRate, w);
  const auto spec = dsp::amplitude_spectrum(w, kRate);
  const double shaft = domain::navy_chiller_signature().shaft_hz;
  EXPECT_NEAR(dsp::order_amplitude(spec, shaft, 1.0), 0.05, 0.02);
  EXPECT_LT(dsp::order_amplitude(spec, shaft, 2.0), 0.04);
}

TEST(VibrationTest, ImbalanceRaisesOneTimes) {
  const auto w = synth_window(FailureMode::MotorImbalance, 0.9,
                              MachinePoint::Motor);
  const auto spec = dsp::amplitude_spectrum(w, kRate);
  const double shaft = domain::navy_chiller_signature().shaft_hz;
  EXPECT_GT(dsp::order_amplitude(spec, shaft, 1.0), 0.35);
}

TEST(VibrationTest, MisalignmentRaisesTwoTimes) {
  const auto w = synth_window(FailureMode::ShaftMisalignment, 0.9,
                              MachinePoint::Motor);
  const auto spec = dsp::amplitude_spectrum(w, kRate);
  const double shaft = domain::navy_chiller_signature().shaft_hz;
  EXPECT_GT(dsp::order_amplitude(spec, shaft, 2.0), 0.25);
  EXPECT_GT(dsp::order_amplitude(spec, shaft, 2.0),
            dsp::order_amplitude(spec, shaft, 1.0));
}

TEST(VibrationTest, SeverityScalesSignature) {
  const double shaft = domain::navy_chiller_signature().shaft_hz;
  const auto mild = synth_window(FailureMode::MotorImbalance, 0.3,
                                 MachinePoint::Motor);
  const auto severe = synth_window(FailureMode::MotorImbalance, 0.9,
                                   MachinePoint::Motor);
  EXPECT_GT(dsp::order_amplitude(dsp::amplitude_spectrum(severe, kRate),
                                 shaft, 1.0),
            dsp::order_amplitude(dsp::amplitude_spectrum(mild, kRate),
                                 shaft, 1.0) * 1.5);
}

TEST(VibrationTest, AttenuationAcrossMachinePoints) {
  const double shaft = domain::navy_chiller_signature().shaft_hz;
  const auto at_motor = synth_window(FailureMode::MotorImbalance, 0.9,
                                     MachinePoint::Motor);
  const auto at_comp = synth_window(FailureMode::MotorImbalance, 0.9,
                                    MachinePoint::Compressor);
  EXPECT_GT(dsp::order_amplitude(dsp::amplitude_spectrum(at_motor, kRate),
                                 shaft, 1.0),
            dsp::order_amplitude(dsp::amplitude_spectrum(at_comp, kRate),
                                 shaft, 1.0) * 2.0);
}

TEST(VibrationTest, BearingFaultIsImpulsive) {
  const auto healthy = synth_window(FailureMode::MotorBearingWear, 0.0,
                                    MachinePoint::Motor);
  const auto faulty = synth_window(FailureMode::MotorBearingWear, 0.9,
                                   MachinePoint::Motor);
  EXPECT_GT(dsp::moments(faulty).kurtosis, dsp::moments(healthy).kurtosis);
  EXPECT_GT(dsp::crest_factor(faulty), dsp::crest_factor(healthy));
}

TEST(VibrationTest, CavitationRaisesBroadbandNoise) {
  const auto healthy = synth_window(FailureMode::PumpCavitation, 0.0,
                                    MachinePoint::Compressor);
  const auto faulty = synth_window(FailureMode::PumpCavitation, 0.9,
                                   MachinePoint::Compressor);
  const auto hs = dsp::amplitude_spectrum(healthy, kRate);
  const auto fs = dsp::amplitude_spectrum(faulty, kRate);
  EXPECT_GT(fs.band_energy(6000.0, 12000.0),
            3.0 * hs.band_energy(6000.0, 12000.0));
}

TEST(VibrationTest, PhaseContinuousAcrossAcquisitions) {
  // Two acquisitions at consecutive t0 must join smoothly (tones are
  // functions of absolute time).
  VibrationSynthesizer synth(domain::navy_chiller_signature(), 5);
  Severities s{};
  std::vector<double> a(1024), b(1024), joint(2048);
  synth.acceleration(MachinePoint::Motor, s, 0.8, 0.0, kRate, joint);
  VibrationSynthesizer synth2(domain::navy_chiller_signature(), 5);
  synth2.acceleration(MachinePoint::Motor, s, 0.8, 0.0, kRate, a);
  synth2.acceleration(MachinePoint::Motor, s, 0.8, 1024.0 / kRate, kRate, b);
  // Tones agree (noise differs): compare spectra of the tone-dominated low
  // band instead of samples.
  const auto sj = dsp::amplitude_spectrum(joint, kRate);
  const double shaft = domain::navy_chiller_signature().shaft_hz;
  EXPECT_NEAR(dsp::order_amplitude(sj, shaft, 1.0), 0.05, 0.02);
}

TEST(VibrationTest, RotorBarSidebandsInCurrent) {
  // Sub-Hz resolution is required to separate the ~1.4 Hz pole-pass
  // sidebands from the 60 Hz carrier: 8 s at 4096 Hz gives 0.125 Hz bins.
  constexpr double kCurrentRate = 4096.0;
  constexpr std::size_t kCurrentWindow = 32768;
  VibrationSynthesizer synth(domain::navy_chiller_signature(), 6);
  Severities healthy{}, faulty{};
  faulty[static_cast<std::size_t>(FailureMode::RotorBarDefect)] = 0.9;
  std::vector<double> hw(kCurrentWindow), fw(kCurrentWindow);
  synth.motor_current(healthy, 0.85, 0.0, kCurrentRate, hw);
  synth.motor_current(faulty, 0.85, 0.0, kCurrentRate, fw);

  const auto sig = domain::navy_chiller_signature();
  const double pole_pass = 2.0 * sig.slip_hz(0.85) * sig.pole_pairs;
  const auto hs = dsp::amplitude_spectrum(hw, kCurrentRate);
  const auto fs = dsp::amplitude_spectrum(fw, kCurrentRate);
  const double h_sb = hs.band_peak(60.0 - pole_pass * 1.2,
                                   60.0 - pole_pass * 0.8);
  const double f_sb = fs.band_peak(60.0 - pole_pass * 1.2,
                                   60.0 - pole_pass * 0.8);
  EXPECT_GT(f_sb, 5.0 * h_sb);
}

// motor_current as it was before it skipped a zero third harmonic, verbatim
// but for the synthesizer's members, which come in as arguments.
void reference_motor_current(const domain::MachineSignature& signature,
                             Rng& rng, const Severities& severities,
                             double load_fraction, double t0_seconds,
                             double sample_rate_hz, std::span<double> out) {
  const double line = signature.line_hz;
  const double load = std::clamp(load_fraction, 0.05, 1.2);
  const auto sev = [&](FailureMode m) {
    return severities[static_cast<std::size_t>(m)];
  };
  const double nominal_rms = 180.0;
  const double rms = nominal_rms *
                     (0.25 + 0.75 * load) *
                     (1.0 + 0.25 * sev(FailureMode::StatorWindingFault) +
                      0.18 * sev(FailureMode::CondenserFouling));
  const double fundamental = rms * std::sqrt(2.0);
  const double rotor = sev(FailureMode::RotorBarDefect);
  const double sideband_db = 60.0 - 38.0 * rotor;
  const double sideband_amp = fundamental * std::pow(10.0, -sideband_db / 20.0);
  const double pole_pass =
      2.0 * signature.slip_hz(load) * signature.pole_pairs;
  const double dt = 1.0 / sample_rate_hz;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double t = t0_seconds + static_cast<double>(i) * dt;
    double v = fundamental * std::sin(kTwoPi * line * t);
    v += sideband_amp * std::sin(kTwoPi * (line - pole_pass) * t + 0.7);
    v += sideband_amp * std::sin(kTwoPi * (line + pole_pass) * t + 1.9);
    v += fundamental * 0.04 * sev(FailureMode::StatorWindingFault) *
         std::sin(kTwoPi * 3.0 * line * t + 0.3);
    out[i] = v + rng.normal(0.0, fundamental * 0.002);
  }
}

TEST(VibrationTest, MotorCurrentMatchesReferenceBitForBit) {
  // Skipping the third harmonic of a healthy winding must leave every
  // sample's bits and the noise stream as they were, with or without a
  // stator fault, across two acquisitions on one synthesizer.
  constexpr double kCurrentRate = 4096.0;
  const auto sig = domain::navy_chiller_signature();
  for (const std::uint64_t seed : {6ULL, 91ULL}) {
    for (const double stator : {0.0, 0.3}) {
      Severities s{};
      s[static_cast<std::size_t>(FailureMode::StatorWindingFault)] = stator;
      s[static_cast<std::size_t>(FailureMode::RotorBarDefect)] = 0.4;
      VibrationSynthesizer synth(sig, seed);
      Rng rng(seed);
      for (const double t0 : {0.0, 8.0}) {
        std::vector<double> got(32768), want(32768);
        synth.motor_current(s, 0.85, t0, kCurrentRate, got);
        reference_motor_current(sig, rng, s, 0.85, t0, kCurrentRate, want);
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(double)),
                  0)
            << "seed " << seed << " stator " << stator << " t0 " << t0;
      }
    }
  }
}

// acceleration() as it was when it rendered sample by sample, with its
// helpers, verbatim but for the synthesizer's members, which come in as
// arguments.
namespace sample_major {

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

/// Square burst gate: on for `duty` of each period, deterministic phase.
double burst_gate(double t, const TransientProfile& p) {
  if (p.duty >= 1.0) return 1.0;
  const double phase = t - std::floor(t / p.period_s) * p.period_s;
  return phase < p.duty * p.period_s ? 1.0 : 0.0;
}

void acceleration(const domain::MachineSignature& signature_, Rng& rng_,
                  MachinePoint point, const Severities& severities,
                  double load_fraction, double t0_seconds,
                  double sample_rate_hz, std::span<double> out,
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

  std::vector<Tone> tones;
  bool adding_fault_tones = false;  // flipped after the baseline block
  const auto add_tone = [&](double freq, double amp, double phase_salt) {
    if (amp <= 0.0 || freq >= sample_rate_hz / 2.0) return;
    // Deterministic per-tone phase: stable across acquisitions.
    const double phase =
        kTwoPi * (0.0001 * static_cast<double>(
                               splitmix64(static_cast<std::uint64_t>(
                                   freq * 1000.0 + phase_salt)) %
                               10000));
    tones.push_back(Tone{freq, amp, phase, adding_fault_tones});
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

  // Render tones; fault tones ride the transient burst envelope.
  const double dt = 1.0 / sample_rate_hz;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double t = t0_seconds + static_cast<double>(i) * dt;
    const double gate = burst_gate(t, transient);
    double v = 0.0;
    for (const Tone& tone : tones) {
      const double g = tone.gated ? gate : 1.0;
      if (g == 0.0) continue;
      v += g * tone.amplitude *
           std::sin(kTwoPi * tone.freq_hz * t + tone.phase);
    }
    out[i] = v;
  }

  // Broadband noise: baseline + cavitation contribution (white, so it
  // lands across the band including the 5-12 kHz window the rules watch).
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double t = t0_seconds + static_cast<double>(i) * dt;
    const double noise_sigma =
        0.02 + 0.13 * cavitation * burst_gate(t, transient);
    out[i] += rng_.normal(0.0, noise_sigma);
  }

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

}  // namespace sample_major

TEST(VibrationTest, AccelerationMatchesReferenceBitForBit) {
  // Tone-major rendering and block noise draws must leave every sample's
  // bits and the noise stream as they were: each fault mode alone at each
  // point, all of them at once (every tone slot), steady and burst-gated,
  // across two acquisitions on one synthesizer.
  const auto sig = domain::navy_chiller_signature();
  std::vector<Severities> cases;
  for (const FailureMode m : domain::all_failure_modes()) {
    Severities s{};
    s[static_cast<std::size_t>(m)] = 0.7;
    cases.push_back(s);
  }
  Severities all{};
  all.fill(1.0);
  cases.push_back(all);
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (std::size_t p = 0; p < kMachinePointCount; ++p) {
      const auto point = static_cast<MachinePoint>(p);
      for (const double duty : {1.0, 0.25}) {
        const TransientProfile transient{duty, 0.05};
        const std::uint64_t seed = 100 + c;
        VibrationSynthesizer synth(sig, seed);
        Rng rng(seed);
        // A DC window, then a record that ends mid noise block.
        double t0 = 3.0;
        for (const std::size_t size : {kWindow, std::size_t{1000}}) {
          std::vector<double> got(size), want(size);
          synth.acceleration(point, cases[c], 0.9, t0, kRate, got, transient);
          sample_major::acceleration(sig, rng, point, cases[c], 0.9, t0,
                                     kRate, want, transient);
          EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                got.size() * sizeof(double)),
                    0)
              << "case " << c << " point " << p << " duty " << duty
              << " t0 " << t0;
          t0 += static_cast<double>(size) / kRate;
        }
      }
    }
  }
}

TEST(VibrationTest, ThreePointRecordsMatchSinglePointCallsBitForBit) {
  // A joint render must leave each record's bits, and the seeded stream,
  // as one single-point call per point on a twin synthesizer would: each
  // fault mode alone, all of them at once, and all of them at a severity
  // so small that the compressor's attenuated tones underflow to 0 (it
  // skips them) while the motor's do not; steady and burst-gated; two
  // tests back to back, then one single-point call on each synthesizer.
  const double tiny = 1e-323;
  ASSERT_EQ(tiny * 0.12, 0.0);      // compressor: motor-origin strength
  ASSERT_GT(0.45 * tiny, 0.0);      // motor: its imbalance tone
  const auto sig = domain::navy_chiller_signature();
  std::vector<Severities> cases;
  for (const FailureMode m : domain::all_failure_modes()) {
    Severities s{};
    s[static_cast<std::size_t>(m)] = 0.7;
    cases.push_back(s);
  }
  Severities all{};
  all.fill(1.0);
  cases.push_back(all);
  all.fill(tiny);
  cases.push_back(all);
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (const double duty : {1.0, 0.25}) {
      const TransientProfile transient{duty, 0.05};
      const std::uint64_t seed = 300 + c;
      VibrationSynthesizer joint(sig, seed);
      VibrationSynthesizer single(sig, seed);
      std::vector<double> got(kMachinePointCount * kWindow);
      std::vector<double> want(got.size());
      double t0 = 3.0;
      for (int test = 0; test < 2; ++test) {
        const std::span<double> g(got);
        const PointRecord records[] = {
            {MachinePoint::Motor, g.first(kWindow)},
            {MachinePoint::Gearbox, g.subspan(kWindow, kWindow)},
            {MachinePoint::Compressor, g.last(kWindow)},
        };
        joint.acceleration(records, cases[c], 0.9, t0, kRate, transient);
        for (std::size_t p = 0; p < kMachinePointCount; ++p) {
          single.acceleration(static_cast<MachinePoint>(p), cases[c], 0.9,
                              t0, kRate,
                              std::span(want).subspan(p * kWindow, kWindow),
                              transient);
        }
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(double)),
                  0)
            << "case " << c << " duty " << duty << " test " << test;
        t0 += static_cast<double>(kWindow) / kRate;
      }
      std::vector<double> after_joint(1000), after_single(1000);
      joint.acceleration(MachinePoint::Gearbox, cases[c], 0.9, t0, kRate,
                         after_joint, transient);
      single.acceleration(MachinePoint::Gearbox, cases[c], 0.9, t0, kRate,
                          after_single, transient);
      EXPECT_EQ(std::memcmp(after_joint.data(), after_single.data(),
                            after_joint.size() * sizeof(double)),
                0)
          << "case " << c << " duty " << duty << ": streams out of step";
    }
  }
}

// --- Process model -------------------------------------------------------------

TEST(ProcessModelTest, RelaxesTowardFaultTargets) {
  ProcessModel pm(domain::navy_chiller_nominals(), 1,
                  SimTime::from_seconds(60.0));
  Severities s{};
  s[static_cast<std::size_t>(FailureMode::RefrigerantLeak)] = 1.0;
  for (int i = 0; i < 60; ++i) {
    pm.advance(SimTime::from_seconds(30.0), 0.8, s);
  }
  const auto state = pm.state();
  const auto nom = domain::navy_chiller_nominals();
  EXPECT_LT(state.at("process.evap_pressure_kpa"),
            nom.evap_pressure_kpa - 70.0);
  EXPECT_GT(state.at("process.superheat_c"), nom.superheat_c + 8.0);
}

TEST(ProcessModelTest, FirstOrderLagIsGradual) {
  ProcessModel pm(domain::navy_chiller_nominals(), 2,
                  SimTime::from_seconds(300.0));
  Severities s{};
  s[static_cast<std::size_t>(FailureMode::CondenserFouling)] = 1.0;
  pm.advance(SimTime::from_seconds(30.0), 0.8, s);
  const double after_30s = pm.state().at("process.cond_pressure_kpa");
  const auto nom = domain::navy_chiller_nominals();
  // One tenth of a time constant: far from the +340 kPa target.
  EXPECT_LT(after_30s, nom.cond_pressure_kpa + 120.0);
  EXPECT_GT(after_30s, nom.cond_pressure_kpa);
}

TEST(ProcessModelTest, SnapshotHasAllKeysAndNoise) {
  ProcessModel pm(domain::navy_chiller_nominals(), 3);
  pm.advance(SimTime::from_seconds(10.0), 0.8, Severities{});
  const auto a = pm.snapshot();
  const auto b = pm.snapshot();
  EXPECT_EQ(a.size(), 11u);
  EXPECT_TRUE(a.contains("process.load"));
  // Noise differs between snapshots of the same state.
  EXPECT_NE(a.at("process.oil_temp_c"), b.at("process.oil_temp_c"));
}

TEST(ProcessModelTest, LoadShapesOperatingPoint) {
  ProcessModel pm(domain::navy_chiller_nominals(), 4,
                  SimTime::from_seconds(10.0));
  for (int i = 0; i < 50; ++i) {
    pm.advance(SimTime::from_seconds(10.0), 1.0, Severities{});
  }
  const double full_load_current = pm.state().at("process.motor_current_a");
  for (int i = 0; i < 200; ++i) {
    pm.advance(SimTime::from_seconds(10.0), 0.3, Severities{});
  }
  EXPECT_LT(pm.state().at("process.motor_current_a"), full_load_current);
}

// --- Chiller composition ---------------------------------------------------------

TEST(ChillerSimulatorTest, TruthTracksInjectedFaults) {
  ChillerSimulator chiller;
  chiller.faults().schedule({FailureMode::GearMeshWear,
                             SimTime::from_hours(1.0), SimTime(0), 0.8,
                             GrowthProfile::Step});
  chiller.advance(SimTime::from_hours(0.5));
  EXPECT_FALSE(chiller.faults().dominant_at(chiller.now()).has_value());
  chiller.advance(SimTime::from_hours(1.0));
  EXPECT_EQ(chiller.faults().dominant_at(chiller.now()),
            FailureMode::GearMeshWear);
  EXPECT_DOUBLE_EQ(
      chiller.truth()[static_cast<std::size_t>(FailureMode::GearMeshWear)],
      0.8);
}

TEST(ChillerSimulatorTest, AcquisitionReflectsFaultState) {
  ChillerSimulator chiller;
  chiller.faults().schedule({FailureMode::MotorImbalance, SimTime(0),
                             SimTime(0), 0.9, GrowthProfile::Step});
  chiller.advance(SimTime::from_seconds(1.0));
  std::vector<double> w(kWindow);
  chiller.acquire_vibration(MachinePoint::Motor, kRate, w);
  const auto spec = dsp::amplitude_spectrum(w, kRate);
  EXPECT_GT(dsp::order_amplitude(spec, chiller.signature().shaft_hz, 1.0),
            0.3);
}

TEST(ChillerSimulatorTest, ThreePointAcquisitionMatchesSinglePointCalls) {
  // The DC's one call fills the Motor, Gearbox and Compressor records with
  // the bits of three single-point calls, each corrupted on its own
  // channel: a spiking gearbox accelerometer moves the gearbox record
  // alone. The seeded stream stays in step for the next acquisition.
  const auto make = [](bool spiking) {
    auto chiller = std::make_unique<ChillerSimulator>();
    chiller->faults().schedule({FailureMode::MotorBearingWear, SimTime(0),
                                SimTime(0), 0.6, GrowthProfile::Step});
    chiller->faults().schedule({FailureMode::PumpCavitation, SimTime(0),
                                SimTime(0), 0.5, GrowthProfile::Step});
    if (spiking) {
      SensorFaultEvent spike;
      spike.channel = vibration_channel(MachinePoint::Gearbox);
      spike.type = SensorFaultType::Spike;
      spike.to = SimTime::from_hours(1.0);
      spike.level = 3.0;
      spike.spike_fraction = 0.01;
      chiller->sensor_faults().schedule(spike);
    }
    chiller->advance(SimTime::from_seconds(60.0));
    return chiller;
  };
  const auto joint = make(true);
  const auto single = make(true);
  const auto clean = make(false);

  std::vector<double> got(kMachinePointCount * kWindow);
  std::vector<double> want(got.size());
  std::vector<double> unspiked(got.size());
  joint->acquire_vibration(kRate, got);
  for (std::size_t p = 0; p < kMachinePointCount; ++p) {
    single->acquire_vibration(static_cast<MachinePoint>(p), kRate,
                              std::span(want).subspan(p * kWindow, kWindow));
  }
  clean->acquire_vibration(kRate, unspiked);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0);
  for (std::size_t p = 0; p < kMachinePointCount; ++p) {
    const bool same = std::memcmp(got.data() + p * kWindow,
                                  unspiked.data() + p * kWindow,
                                  kWindow * sizeof(double)) == 0;
    EXPECT_EQ(same, static_cast<MachinePoint>(p) != MachinePoint::Gearbox)
        << to_string(static_cast<MachinePoint>(p));
  }

  std::vector<double> joint_current(4096), single_current(4096);
  joint->acquire_current(4096.0, joint_current);
  single->acquire_current(4096.0, single_current);
  EXPECT_EQ(std::memcmp(joint_current.data(), single_current.data(),
                        joint_current.size() * sizeof(double)),
            0);
}

// --- EMA -----------------------------------------------------------------------

TEST(EmaSimulatorTest, HealthyTraceHasNoSpikes) {
  EmaSimulator ema;
  const auto trace = ema.generate(10000, 0.0);
  EXPECT_EQ(ema.injected_spikes(), 0u);
}

TEST(EmaSimulatorTest, SpikeRateScalesWithStiction) {
  EmaSimulator ema;
  const auto mild_trace = ema.generate(50000, 0.3);
  const std::size_t low = ema.injected_spikes();
  const auto severe_trace = ema.generate(50000, 1.0);
  const std::size_t high = ema.injected_spikes();
  ASSERT_EQ(mild_trace.size(), severe_trace.size());
  EXPECT_GT(high, low);
  EXPECT_GT(low, 0u);
}

TEST(EmaSimulatorTest, CommandedMovesChangeCpos) {
  EmaSimulator ema;
  const auto trace = ema.generate(20000, 0.0, /*move_rate=*/0.01);
  EXPECT_GT(trace.back().cpos, 0.0);
}

// --- DAQ chain (Fig 5, E8 substrate) ----------------------------------------------

SignalSource tone_source(double freq, double amp) {
  return [freq, amp](std::size_t channel, double t0, double rate,
                     std::span<double> out) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      const double t = t0 + static_cast<double>(i) / rate;
      out[i] = amp * std::sin(kTwoPi * freq * t) +
               0.001 * static_cast<double>(channel);
    }
  };
}

TEST(DaqTest, ThirtyTwoChannelsViaTwoMuxCards) {
  DaqChain daq(DaqConfig{}, tone_source(100.0, 1.0));
  EXPECT_EQ(daq.channel_count(), 32u);
}

TEST(DaqTest, BankAcquisitionTimesAccountForSettle) {
  DaqConfig cfg;
  DaqChain daq(cfg, tone_source(100.0, 1.0));
  const auto acq = daq.acquire_bank(0, 0, 4096, 40960.0, SimTime(0));
  EXPECT_EQ(acq.waveforms.size(), 4u);
  EXPECT_EQ(acq.channels, (std::vector<std::size_t>{0, 1, 2, 3}));
  const double expected_s = cfg.mux_settle.seconds() + 4096.0 / 40960.0;
  EXPECT_NEAR((acq.finished - acq.started).seconds(), expected_s, 1e-9);
}

TEST(DaqTest, SampleRateClampedToCardMaximum) {
  DaqConfig cfg;
  cfg.max_sample_rate_hz = 51200.0;
  DaqChain daq(cfg, tone_source(100.0, 1.0));
  const auto acq = daq.acquire_bank(0, 0, 5120, 1e6, SimTime(0));
  // Record length reflects the clamped rate: 5120 / 51200 = 0.1 s.
  EXPECT_NEAR((acq.finished - acq.started).seconds() -
                  cfg.mux_settle.seconds(),
              0.1, 1e-9);
}

TEST(DaqTest, FullScanCoversEveryChannelSequentially) {
  DaqChain daq(DaqConfig{}, tone_source(100.0, 1.0));
  const auto scan = daq.scan_all(1024, 40960.0, SimTime(0));
  EXPECT_EQ(scan.waveforms.size(), 32u);
  EXPECT_EQ(scan.total_samples, 32u * 1024u);
  for (const auto& w : scan.waveforms) EXPECT_EQ(w.size(), 1024u);
  // 8 banks in sequence.
  const double expected =
      8.0 * (DaqConfig{}.mux_settle.seconds() + 1024.0 / 40960.0);
  EXPECT_NEAR(scan.duration.seconds(), expected, 1e-9);
}

TEST(DaqTest, RmsAlarmFiresOnlyAboveThreshold) {
  // Channel tone RMS = 1/sqrt(2) ≈ 0.707.
  DaqChain daq(DaqConfig{}, tone_source(100.0, 1.0));
  daq.set_alarm_threshold(3, 0.5);
  daq.set_alarm_threshold(4, 0.9);  // above the actual RMS: stays quiet
  const auto alarms = daq.poll_alarms(SimTime(0), SimTime::from_seconds(1.0));
  ASSERT_EQ(alarms.size(), 1u);
  EXPECT_EQ(alarms[0].channel, 3u);
  EXPECT_GT(alarms[0].rms, 0.5);
}

TEST(DaqTest, AlarmLatchesUntilRearm) {
  DaqChain daq(DaqConfig{}, tone_source(100.0, 1.0));
  daq.set_alarm_threshold(0, 0.5);
  EXPECT_EQ(daq.poll_alarms(SimTime(0), SimTime::from_seconds(1.0)).size(),
            1u);
  EXPECT_TRUE(daq.poll_alarms(SimTime::from_seconds(1.0),
                              SimTime::from_seconds(1.0)).empty());
  daq.rearm_alarms();
  EXPECT_EQ(daq.poll_alarms(SimTime::from_seconds(2.0),
                            SimTime::from_seconds(1.0)).size(),
            1u);
}

TEST(DaqTest, AlarmDetectionLatencyIsSmall) {
  // Alarm RMS time constant 50 ms: a sudden full-scale tone must be flagged
  // within a few time constants.
  DaqChain daq(DaqConfig{}, tone_source(500.0, 2.0));
  daq.set_alarm_threshold(0, 1.0);
  const auto alarms = daq.poll_alarms(SimTime(0), SimTime::from_seconds(1.0));
  ASSERT_EQ(alarms.size(), 1u);
  EXPECT_LT(alarms[0].at.seconds(), 0.25);
}

// --- Sensor-fault injection --------------------------------------------------

TEST(SensorFaultInjectorTest, CorruptionConfinedToScheduledWindow) {
  SensorFaultInjector inj(42);
  inj.schedule({"vib.motor", SensorFaultType::StuckAt,
                SimTime::from_seconds(10), SimTime::from_seconds(20), 3.3});

  EXPECT_FALSE(inj.active("vib.motor", SimTime::from_seconds(5)));
  EXPECT_TRUE(inj.active("vib.motor", SimTime::from_seconds(15)));
  EXPECT_FALSE(inj.active("vib.gearbox", SimTime::from_seconds(15)));

  std::vector<double> before(64);
  for (std::size_t i = 0; i < before.size(); ++i) {
    before[i] = 0.01 * static_cast<double>(i);
  }
  std::vector<double> w = before;
  inj.corrupt_window("vib.motor", SimTime::from_seconds(5), w);
  EXPECT_EQ(w, before);  // outside the window: untouched
  inj.corrupt_window("vib.motor", SimTime::from_seconds(15), w);
  for (const double s : w) EXPECT_DOUBLE_EQ(s, 3.3);  // stuck-at level
}

TEST(SensorFaultInjectorTest, EveryFaultTypeCorruptsAsDocumented) {
  SensorFaultInjector inj(7);
  const SimTime t = SimTime::from_seconds(50);
  inj.schedule({"a", SensorFaultType::Dropout, SimTime(0),
                SimTime::from_seconds(100)});
  inj.schedule({"b", SensorFaultType::OutOfRange, SimTime(0),
                SimTime::from_seconds(100), 500.0});
  inj.schedule({"c", SensorFaultType::Spike, SimTime(0),
                SimTime::from_seconds(100), 200.0, 0.05});

  EXPECT_TRUE(std::isnan(inj.corrupt_value("a", t, 1.0)));
  EXPECT_DOUBLE_EQ(inj.corrupt_value("b", t, 40.0), 540.0);

  std::vector<double> w(4096, 0.0);
  inj.corrupt_window("c", t, w);
  std::size_t spikes = 0;
  for (const double s : w) {
    if (s != 0.0) {
      ++spikes;
      EXPECT_DOUBLE_EQ(std::fabs(s), 200.0);
    }
  }
  // ~5% of samples hit, binomial scatter allowed.
  EXPECT_NEAR(static_cast<double>(spikes) / static_cast<double>(w.size()),
              0.05, 0.02);
}

TEST(SensorFaultInjectorTest, CorruptionIsDeterministicPureFunction) {
  // Same (channel, time, seed) must corrupt identically regardless of call
  // order or history — acquisition order can differ across runs.
  const auto corrupt = [](bool warm_up) {
    SensorFaultInjector inj(99);
    inj.schedule({"c", SensorFaultType::Spike, SimTime(0),
                  SimTime::from_seconds(100), 150.0, 0.01});
    if (warm_up) {
      std::vector<double> other(256, 0.0);
      inj.corrupt_window("c", SimTime::from_seconds(10), other);
    }
    std::vector<double> w(1024, 1.0);
    inj.corrupt_window("c", SimTime::from_seconds(42), w);
    return w;
  };
  EXPECT_EQ(corrupt(false), corrupt(true));
}

TEST(SensorFaultInjectorTest, ChillerAppliesScheduledCorruption) {
  ChillerConfig cfg;
  cfg.seed = 0xFA;
  ChillerSimulator chiller(cfg);
  chiller.sensor_faults().schedule({"process.bearing_temp_c",
                                    SensorFaultType::Dropout, SimTime(0),
                                    SimTime::from_hours(1.0)});
  chiller.advance(SimTime::from_seconds(60));
  const ProcessSnapshot snap = chiller.process_snapshot();
  ASSERT_TRUE(snap.contains("process.bearing_temp_c"));
  EXPECT_TRUE(std::isnan(snap.at("process.bearing_temp_c")));
  EXPECT_TRUE(std::isfinite(snap.at("process.oil_temp_c")));
}

}  // namespace
}  // namespace mpros::plant
