#pragma once
// Quasi-static chiller process model.
//
// "Slower changing parameters such as temperatures and pressures must also
// be monitored, but at a lower frequency and can be treated as scalars"
// (§2). The model drives each process variable toward a target determined
// by load and active fault severities, with first-order lag and sensor
// noise — enough dynamics to exercise trending, SBFR threshold machines,
// and the fuzzy rulebase.

#include <array>

#include "mpros/common/clock.hpp"
#include "mpros/common/rng.hpp"
#include "mpros/domain/channels.hpp"
#include "mpros/domain/equipment.hpp"
#include "mpros/domain/failure_modes.hpp"

namespace mpros::plant {

using Severities = std::array<double, domain::kFailureModeCount>;

class ProcessModel {
 public:
  ProcessModel(domain::ProcessNominals nominals, std::uint64_t seed,
               SimTime time_constant = SimTime::from_seconds(120.0));

  /// Advance the state by dt toward the fault/load-determined targets.
  void advance(SimTime dt, double load_fraction, const Severities& severities);

  /// Current (noisy) reading of every process value, the load included.
  [[nodiscard]] domain::ProcessValues snapshot();

  /// Noise-free internal state (for tests).
  [[nodiscard]] domain::ProcessValues state() const;

 private:
  /// Every process value, by domain::process_slot().
  using Values = std::array<double, domain::kProcessCount>;
  [[nodiscard]] Values targets(double load, const Severities& severities) const;

  domain::ProcessNominals nom_;
  Rng rng_;
  SimTime tau_;
  Values state_{};
};

}  // namespace mpros::plant
