#pragma once
// The assembled centrifugal chiller simulator.
//
// Composes the fault injector, process model and vibration synthesizer into
// one machine a Data Concentrator can instrument: advance simulated time,
// pull accelerometer windows, motor-current windows, and process snapshots,
// all consistent with the currently injected fault severities.

#include <span>
#include <vector>

#include "mpros/common/clock.hpp"
#include "mpros/plant/faults.hpp"
#include "mpros/plant/process.hpp"
#include "mpros/plant/sensor_faults.hpp"
#include "mpros/plant/vibration.hpp"

namespace mpros::plant {

struct ChillerConfig {
  domain::MachineSignature signature = domain::navy_chiller_signature();
  domain::ProcessNominals nominals = domain::navy_chiller_nominals();
  double load_fraction = 0.8;
  std::uint64_t seed = 0xC411E7;
};

class ChillerSimulator {
 public:
  explicit ChillerSimulator(ChillerConfig cfg = ChillerConfig());

  /// Fault schedule (mutable: scenarios add events any time).
  [[nodiscard]] FaultInjector& faults() { return faults_; }
  [[nodiscard]] const FaultInjector& faults() const { return faults_; }

  /// Instrumentation faults (the sensor lies, the machine is fine).
  /// Acquisitions and snapshots are corrupted after synthesis.
  [[nodiscard]] SensorFaultInjector& sensor_faults() { return sensor_faults_; }
  [[nodiscard]] const SensorFaultInjector& sensor_faults() const {
    return sensor_faults_;
  }

  void set_load(double fraction) { cfg_.load_fraction = fraction; }
  [[nodiscard]] double load() const { return cfg_.load_fraction; }

  /// Schedule a load setpoint at an absolute time; between setpoints the
  /// load ramps linearly (models startup/pull-down transients — the
  /// paper's §3.3 milestone simulated "Carrier Chiller startup"). Setpoints
  /// must be added in time order; advance() applies them.
  void schedule_load(SimTime at, double fraction);

  /// Advance simulated time (steps the process model).
  void advance(SimTime dt);
  [[nodiscard]] SimTime now() const { return clock_.now(); }

  /// Acquire an accelerometer window at `point` (amplitudes in g), starting
  /// at the current simulated time.
  void acquire_vibration(MachinePoint point, double sample_rate_hz,
                         std::span<double> out);

  /// Acquire one vibration test's records at the current simulated time:
  /// the Motor, Gearbox and Compressor windows back to back in `records`
  /// (kMachinePointCount equal parts). One joint render: the same samples
  /// and seeded draws as one single-point call per point in that order.
  void acquire_vibration(double sample_rate_hz, std::span<double> records);

  /// Acquire with an explicit record start time (the DAQ chain schedules
  /// bank acquisitions at sub-step offsets). Fault severities are evaluated
  /// at the simulator's current time.
  void acquire_vibration_at(MachinePoint point, double t0_seconds,
                            double sample_rate_hz, std::span<double> out);

  /// Acquire a motor-current window (amperes).
  void acquire_current(double sample_rate_hz, std::span<double> out);

  /// Noisy process-variable snapshot (keys = rules::feat process names).
  [[nodiscard]] ProcessSnapshot process_snapshot();

  /// Current ground-truth severities (for scoring).
  [[nodiscard]] Severities truth() const { return faults_.all_at(now()); }

  [[nodiscard]] const domain::MachineSignature& signature() const {
    return cfg_.signature;
  }

 private:
  [[nodiscard]] double scheduled_load(SimTime t) const;

  ChillerConfig cfg_;
  struct LoadSetpoint {
    SimTime at;
    double fraction;
  };
  std::vector<LoadSetpoint> load_schedule_;
  SimClock clock_;
  FaultInjector faults_;
  SensorFaultInjector sensor_faults_;
  ProcessModel process_;
  VibrationSynthesizer vibration_;
};

}  // namespace mpros::plant
