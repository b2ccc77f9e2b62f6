#pragma once
// The centrifugal-chiller vibration/process rulebase.
//
// One frame-based rule per FMEA failure mode, encoding textbook vibration
// signatures plus the process-parameter gating the paper highlights (§6.1).
// Warn/alarm levels are calibrated against the plant simulator's healthy
// baselines (see src/mpros/plant/vibration.cpp); E6 measures the resulting
// expert-system agreement with injected ground truth.

#include <vector>

#include "mpros/domain/equipment.hpp"
#include "mpros/rules/engine.hpp"

namespace mpros::rules {

/// Build the full 12-mode rulebase for the chilled-water drive line.
[[nodiscard]] std::vector<Rule> chiller_rulebase(
    const domain::MachineSignature& signature = domain::navy_chiller_signature(),
    const domain::ProcessNominals& nominals = domain::navy_chiller_nominals());

/// Whether `rule` diagnoses from the motor current record: one of its
/// required clauses reads an `electrical.*` feature. Such a rule can fire
/// on a current record alone; any other needs the accelerometer.
[[nodiscard]] bool reads_current(const Rule& rule);

}  // namespace mpros::rules
