#pragma once
// Fuzzy diagnostics for the chiller's non-vibrational signals.
//
// Stands in for the Georgia Tech fuzzy system (paper §1.1 item 4): it
// "draws diagnostic and prognostic conclusions from non-vibrational data".
// One Mamdani engine per process-observable failure mode maps temperatures,
// pressures, superheat and current onto a 0..1 severity, which is then
// packaged with the same gradient/prognosis mapping the DLI substitute uses.

#include <string>
#include <vector>

#include "mpros/domain/channels.hpp"
#include "mpros/domain/equipment.hpp"
#include "mpros/domain/failure_modes.hpp"
#include "mpros/fuzzy/engine.hpp"
#include "mpros/rules/engine.hpp"

namespace mpros::fuzzy {

class FuzzyDiagnoser {
 public:
  explicit FuzzyDiagnoser(
      const domain::ProcessNominals& nominals = domain::navy_chiller_nominals());

  /// Evaluate all process-mode engines. Fired modes (severity above
  /// `fire_threshold`) return as rules::Diagnosis so downstream protocol
  /// packaging is shared with the vibration expert system.
  [[nodiscard]] std::vector<rules::Diagnosis> evaluate(
      const domain::ProcessValues& snapshot,
      const rules::BelievabilityTable& beliefs) const;

  /// Crisp severity for one mode (0 if the mode has no engine).
  [[nodiscard]] double severity(domain::FailureMode mode,
                                const domain::ProcessValues& snapshot) const;

  /// Modes this diagnoser covers.
  [[nodiscard]] std::vector<domain::FailureMode> covered_modes() const;

  static constexpr double kFireThreshold = 0.20;

 private:
  struct ModeEngine {
    domain::FailureMode mode;
    MamdaniEngine engine;
    std::string recommendation;
  };
  std::vector<ModeEngine> engines_;
};

}  // namespace mpros::fuzzy
