#include "mpros/plant/process.hpp"

#include <algorithm>
#include <cmath>

#include "mpros/common/assert.hpp"

namespace mpros::plant {

using domain::FailureMode;

ProcessModel::ProcessModel(domain::ProcessNominals nominals,
                           std::uint64_t seed, SimTime time_constant)
    : nom_(nominals), rng_(seed), tau_(time_constant) {
  MPROS_EXPECTS(time_constant.micros() > 0);
  state_ = targets(0.8, Severities{});
}

ProcessModel::Values ProcessModel::targets(double load,
                                           const Severities& severities) const {
  using enum domain::Channel;
  const auto sev = [&](FailureMode m) {
    return severities[static_cast<std::size_t>(m)];
  };
  const double l = std::clamp(load, 0.0, 1.2);

  Values t{};
  const auto at = [&t](domain::Channel c) -> double& {
    return t[domain::process_slot(c)];
  };
  at(Load) = l;
  // Load raises evaporator duty (lower pressure at high load) and
  // condensing pressure.
  at(EvapPressure) = nom_.evap_pressure_kpa + 18.0 * (0.8 - l);
  at(CondPressure) = nom_.cond_pressure_kpa + 90.0 * (l - 0.8);
  at(ChwSupplyTemp) = nom_.chilled_water_supply_c + 0.4 * (l - 0.8);
  at(Superheat) = nom_.superheat_c;
  at(OilPressure) = nom_.oil_pressure_kpa;
  at(OilTemp) = nom_.oil_temperature_c + 4.0 * (l - 0.8);
  at(WindingTemp) = nom_.motor_winding_temp_c + 22.0 * (l - 0.8);
  at(BearingTemp) = nom_.bearing_temp_c + 6.0 * (l - 0.8);
  at(CondApproach) = 4.0 + 1.0 * (l - 0.8);
  at(MotorCurrent) = nom_.motor_current_a * (0.25 + 0.75 * l);

  // Fault signatures on the process side.
  const double leak = sev(FailureMode::RefrigerantLeak);
  at(EvapPressure) -= 95.0 * leak;
  at(Superheat) += 11.0 * leak;
  at(ChwSupplyTemp) += 5.0 * leak;

  const double fouling = sev(FailureMode::CondenserFouling);
  at(CondPressure) += 340.0 * fouling;
  at(CondApproach) += 10.0 * fouling;
  at(MotorCurrent) *= 1.0 + 0.20 * fouling;

  const double oil = sev(FailureMode::OilDegradation);
  at(OilTemp) += 26.0 * oil;
  at(OilPressure) -= 115.0 * oil;
  at(BearingTemp) += 12.0 * oil;

  const double winding = sev(FailureMode::StatorWindingFault);
  at(WindingTemp) += 48.0 * winding;
  at(MotorCurrent) *= 1.0 + 0.28 * winding;

  at(BearingTemp) += 24.0 * sev(FailureMode::MotorBearingWear);
  at(BearingTemp) += 28.0 * sev(FailureMode::CompressorBearingWear);
  at(OilTemp) += 6.0 * sev(FailureMode::CompressorBearingWear);

  // Cavitation depresses suction slightly.
  at(EvapPressure) -= 30.0 * sev(FailureMode::PumpCavitation);

  // Heavy mechanical faults bleed a little energy into bearings.
  at(BearingTemp) += 5.0 * sev(FailureMode::ShaftMisalignment);
  at(BearingTemp) += 4.0 * sev(FailureMode::GearMeshWear);

  return t;
}

void ProcessModel::advance(SimTime dt, double load_fraction,
                           const Severities& severities) {
  MPROS_EXPECTS(dt.micros() >= 0);
  const Values goal = targets(load_fraction, severities);

  // First-order relaxation: alpha = 1 - exp(-dt/tau). The load follows its
  // setpoint at once.
  const double alpha =
      1.0 - std::exp(-static_cast<double>(dt.micros()) /
                     static_cast<double>(tau_.micros()));
  for (std::size_t i = 0; i < state_.size(); ++i) {
    state_[i] += alpha * (goal[i] - state_[i]);
  }
  const std::size_t load = domain::process_slot(domain::Channel::Load);
  state_[load] = goal[load];
}

domain::ProcessValues ProcessModel::state() const {
  domain::ProcessValues s;
  for (std::size_t i = 0; i < state_.size(); ++i) {
    s.set(domain::process_channel(i), state_[i]);
  }
  return s;
}

domain::ProcessValues ProcessModel::snapshot() {
  using enum domain::Channel;
  domain::ProcessValues s = state();
  // Instrument-grade noise per variable class, drawn in this order.
  const auto noise = [&](domain::Channel c, double sigma) {
    s.set(c, s[c] + rng_.normal(0.0, sigma));
  };
  noise(EvapPressure, 1.5);
  noise(CondPressure, 3.0);
  noise(ChwSupplyTemp, 0.05);
  noise(Superheat, 0.1);
  noise(OilPressure, 2.0);
  noise(OilTemp, 0.2);
  noise(WindingTemp, 0.4);
  noise(BearingTemp, 0.25);
  noise(CondApproach, 0.1);
  noise(MotorCurrent, 0.8);
  return s;
}

}  // namespace mpros::plant
