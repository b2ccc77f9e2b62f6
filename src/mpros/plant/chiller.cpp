#include "mpros/plant/chiller.hpp"

#include <algorithm>
#include <array>

#include "mpros/common/assert.hpp"

namespace mpros::plant {

ChillerSimulator::ChillerSimulator(ChillerConfig cfg)
    : cfg_(cfg),
      sensor_faults_(splitmix64(cfg.seed ^ 0x33)),
      process_(cfg.nominals, splitmix64(cfg.seed ^ 0x11)),
      vibration_(cfg.signature, splitmix64(cfg.seed ^ 0x22)) {}

void ChillerSimulator::schedule_load(SimTime at, double fraction) {
  MPROS_EXPECTS(fraction >= 0.0 && fraction <= 1.2);
  MPROS_EXPECTS(load_schedule_.empty() || load_schedule_.back().at < at);
  load_schedule_.push_back(LoadSetpoint{at, fraction});
}

double ChillerSimulator::scheduled_load(SimTime t) const {
  if (load_schedule_.empty() || t < load_schedule_.front().at) {
    return cfg_.load_fraction;
  }
  for (std::size_t i = 1; i < load_schedule_.size(); ++i) {
    if (t < load_schedule_[i].at) {
      const LoadSetpoint& a = load_schedule_[i - 1];
      const LoadSetpoint& b = load_schedule_[i];
      const double frac =
          static_cast<double>((t - a.at).micros()) /
          static_cast<double>((b.at - a.at).micros());
      return a.fraction + frac * (b.fraction - a.fraction);
    }
  }
  return load_schedule_.back().fraction;
}

void ChillerSimulator::advance(SimTime dt) {
  clock_.advance(dt);
  if (!load_schedule_.empty()) {
    cfg_.load_fraction = scheduled_load(clock_.now());
  }
  process_.advance(dt, cfg_.load_fraction, faults_.all_at(clock_.now()));
}

void ChillerSimulator::acquire_vibration(MachinePoint point,
                                         double sample_rate_hz,
                                         std::span<double> out) {
  acquire_vibration_at(point, clock_.now().seconds(), sample_rate_hz, out);
}

void ChillerSimulator::acquire_vibration(double sample_rate_hz,
                                         std::span<double> records) {
  MPROS_EXPECTS(records.size() % kMachinePointCount == 0);
  const std::size_t n = records.size() / kMachinePointCount;
  const std::array<PointRecord, kMachinePointCount> parts{{
      {MachinePoint::Motor, records.first(n)},
      {MachinePoint::Gearbox, records.subspan(n, n)},
      {MachinePoint::Compressor, records.last(n)},
  }};
  vibration_.acceleration(parts, faults_.all_at(clock_.now()),
                          cfg_.load_fraction, clock_.now().seconds(),
                          sample_rate_hz);
  for (const PointRecord& r : parts) {
    sensor_faults_.corrupt_window(domain::name(vibration_channel(r.point)),
                                  clock_.now(), r.out);
  }
}

void ChillerSimulator::acquire_vibration_at(MachinePoint point,
                                            double t0_seconds,
                                            double sample_rate_hz,
                                            std::span<double> out) {
  vibration_.acceleration(point, faults_.all_at(clock_.now()),
                          cfg_.load_fraction, t0_seconds, sample_rate_hz,
                          out);
  sensor_faults_.corrupt_window(domain::name(vibration_channel(point)),
                                clock_.now(), out);
}

void ChillerSimulator::acquire_current(double sample_rate_hz,
                                       std::span<double> out) {
  vibration_.motor_current(faults_.all_at(clock_.now()), cfg_.load_fraction,
                           clock_.now().seconds(), sample_rate_hz, out);
  sensor_faults_.corrupt_window(domain::name(domain::Channel::CurrentMotor),
                                clock_.now(), out);
}

domain::ProcessValues ChillerSimulator::process_snapshot() {
  domain::ProcessValues snap = process_.snapshot();
  for (std::size_t i = 0; i < domain::kProcessCount; ++i) {
    const domain::Channel c = domain::process_channel(i);
    snap.set(c, sensor_faults_.corrupt_value(domain::name(c), clock_.now(),
                                             snap[c]));
  }
  return snap;
}

}  // namespace mpros::plant
