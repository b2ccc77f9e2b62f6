#pragma once
// Vibration and motor-current waveform synthesis.
//
// Substitutes for the paper's shipboard accelerometer data: each failure
// mode contributes its textbook spectral signature, scaled by severity, on
// top of a healthy baseline. The DLI rulebase's warn/alarm levels
// (rules/dli_rules.cpp) are calibrated against these baselines:
//
//   baseline 1x 0.05 g, 2x 0.02 g, gear mesh 0.03 g, vane pass 0.02 g,
//   broadband noise sigma 0.02 g.
//
//   MotorImbalance          1x -> 0.05 + 0.45 s
//   ShaftMisalignment       2x -> 0.02 + 0.32 s, 3x -> 0.14 s
//   BearingHousingLooseness 0.5x/1.5x/2.5x subharmonics + raised 1x..6x
//   Motor/CompressorBearing impulse train at BPFO/BSF exciting a 4.2 kHz
//                           resonance (envelope tones, crest, kurtosis)
//   GearMeshWear            mesh tone + 1x-shaft sidebands
//   PumpCavitation          broadband high-frequency noise + vane pass
//   RotorBarDefect          (current) pole-pass sidebands around 60 Hz
//   StatorWindingFault      (vibration) 2x line tone; (current) elevated rms
//
// Sensor-point attenuation: each fault originates at a machine point; other
// points see it attenuated, like a real machinery train.
//
// A record is rendered one term at a time: each tone (or current term) is
// added over the whole record in a fixed order, so every sample sums the
// same terms in the same order as a per-sample loop would, and libm's sin
// sees one steady argument pattern at a time. The noise pass then draws
// the record's normals a block at a time (Rng::unit_normals), the same
// words and bits as one normal() per sample, and the bearing impacts come
// last with their timing jitter.
//
// A vibration test's accelerometer records share their start time, rate,
// load and severities, so a tone has the same frequency, phase and sine at
// every point; only its attenuated amplitude differs. acceleration() takes
// a list of points and renders their records in one pass: each tone's
// sample and burst gate once, added to each record in that record's tone
// order. Noise and impacts then run record by record in list order, so the
// seeded stream draws what one single-point call per record would. The
// single-point call is the one-record list.

#include <array>
#include <span>

#include "mpros/common/rng.hpp"
#include "mpros/domain/equipment.hpp"
#include "mpros/domain/failure_modes.hpp"

namespace mpros::plant {

/// Accelerometer mounting points on the drive line.
enum class MachinePoint : std::uint8_t { Motor = 0, Gearbox, Compressor };
inline constexpr std::size_t kMachinePointCount = 3;

[[nodiscard]] const char* to_string(MachinePoint p);

using Severities = std::array<double, domain::kFailureModeCount>;

/// Transitory-fault gating: fault signatures appear only in bursts covering
/// `duty` of each `period_s` window (1.0 = steady-state). Models the
/// intermittent phenomena the paper says the WNN exists for ("drawing
/// conclusions from transitory phenomena rather than steady state data",
/// §1.1/§6.2) — e.g. load-dependent rubs, passing defects, chatter.
struct TransientProfile {
  double duty = 1.0;
  double period_s = 0.05;
};

/// One record of a joint render: the accelerometer point it samples and
/// the samples it receives.
struct PointRecord {
  MachinePoint point;
  std::span<double> out;
};

class VibrationSynthesizer {
 public:
  VibrationSynthesizer(domain::MachineSignature signature, std::uint64_t seed);

  /// Synthesize acceleration samples (in g) at `sample_rate_hz` for each of
  /// `records` (at most kMachinePointCount, all one size), starting at
  /// absolute phase time `t0_seconds` (keeps tones phase-continuous across
  /// acquisitions). Every record's bits, and the seeded stream after the
  /// call, are those of one single-point call per record in list order.
  void acceleration(std::span<const PointRecord> records,
                    const Severities& severities, double load_fraction,
                    double t0_seconds, double sample_rate_hz,
                    const TransientProfile& transient = TransientProfile{});

  /// The one-record render: `out.size()` samples for the accelerometer at
  /// `point`.
  void acceleration(MachinePoint point, const Severities& severities,
                    double load_fraction, double t0_seconds,
                    double sample_rate_hz, std::span<double> out,
                    const TransientProfile& transient = TransientProfile{});

  /// Synthesize motor supply current samples (in A).
  void motor_current(const Severities& severities, double load_fraction,
                     double t0_seconds, double sample_rate_hz,
                     std::span<double> out);

  [[nodiscard]] const domain::MachineSignature& signature() const {
    return signature_;
  }

 private:
  domain::MachineSignature signature_;
  Rng rng_;
};

}  // namespace mpros::plant
