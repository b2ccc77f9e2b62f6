#include "mpros/domain/failure_modes.hpp"

#include <algorithm>

#include "mpros/common/assert.hpp"

namespace mpros::domain {
namespace {

constexpr std::array<FailureMode, kFailureModeCount> kAllModes = {
    FailureMode::MotorImbalance,        FailureMode::ShaftMisalignment,
    FailureMode::BearingHousingLooseness, FailureMode::RotorBarDefect,
    FailureMode::StatorWindingFault,    FailureMode::MotorBearingWear,
    FailureMode::CompressorBearingWear, FailureMode::OilDegradation,
    FailureMode::GearMeshWear,          FailureMode::PumpCavitation,
    FailureMode::RefrigerantLeak,       FailureMode::CondenserFouling,
};

constexpr std::array<FailureMode, 3> kRotorModes = {
    FailureMode::MotorImbalance, FailureMode::ShaftMisalignment,
    FailureMode::BearingHousingLooseness};
constexpr std::array<FailureMode, 2> kElectricalModes = {
    FailureMode::RotorBarDefect, FailureMode::StatorWindingFault};
constexpr std::array<FailureMode, 3> kBearingModes = {
    FailureMode::MotorBearingWear, FailureMode::CompressorBearingWear,
    FailureMode::OilDegradation};
constexpr std::array<FailureMode, 1> kGearModes = {FailureMode::GearMeshWear};
constexpr std::array<FailureMode, 3> kProcessModes = {
    FailureMode::PumpCavitation, FailureMode::RefrigerantLeak,
    FailureMode::CondenserFouling};

}  // namespace

const char* to_string(FailureMode m) {
  switch (m) {
    case FailureMode::MotorImbalance: return "MotorImbalance";
    case FailureMode::ShaftMisalignment: return "ShaftMisalignment";
    case FailureMode::BearingHousingLooseness: return "BearingHousingLooseness";
    case FailureMode::RotorBarDefect: return "RotorBarDefect";
    case FailureMode::StatorWindingFault: return "StatorWindingFault";
    case FailureMode::MotorBearingWear: return "MotorBearingWear";
    case FailureMode::CompressorBearingWear: return "CompressorBearingWear";
    case FailureMode::OilDegradation: return "OilDegradation";
    case FailureMode::GearMeshWear: return "GearMeshWear";
    case FailureMode::PumpCavitation: return "PumpCavitation";
    case FailureMode::RefrigerantLeak: return "RefrigerantLeak";
    case FailureMode::CondenserFouling: return "CondenserFouling";
  }
  return "?";
}

const char* to_string(LogicalGroup g) {
  switch (g) {
    case LogicalGroup::RotorDynamics: return "RotorDynamics";
    case LogicalGroup::Electrical: return "Electrical";
    case LogicalGroup::Bearing: return "Bearing";
    case LogicalGroup::GearTrain: return "GearTrain";
    case LogicalGroup::Process: return "Process";
  }
  return "?";
}

LogicalGroup logical_group(FailureMode m) {
  switch (m) {
    case FailureMode::MotorImbalance:
    case FailureMode::ShaftMisalignment:
    case FailureMode::BearingHousingLooseness:
      return LogicalGroup::RotorDynamics;
    case FailureMode::RotorBarDefect:
    case FailureMode::StatorWindingFault:
      return LogicalGroup::Electrical;
    case FailureMode::MotorBearingWear:
    case FailureMode::CompressorBearingWear:
    case FailureMode::OilDegradation:
      return LogicalGroup::Bearing;
    case FailureMode::GearMeshWear:
      return LogicalGroup::GearTrain;
    case FailureMode::PumpCavitation:
    case FailureMode::RefrigerantLeak:
    case FailureMode::CondenserFouling:
      return LogicalGroup::Process;
  }
  return LogicalGroup::Process;
}

std::span<const FailureMode> all_failure_modes() { return kAllModes; }

std::span<const FailureMode> modes_in_group(LogicalGroup g) {
  switch (g) {
    case LogicalGroup::RotorDynamics: return kRotorModes;
    case LogicalGroup::Electrical: return kElectricalModes;
    case LogicalGroup::Bearing: return kBearingModes;
    case LogicalGroup::GearTrain: return kGearModes;
    case LogicalGroup::Process: return kProcessModes;
  }
  return {};
}

ConditionId condition_id(FailureMode m) {
  return ConditionId(static_cast<std::uint64_t>(m) + 1);
}

FailureMode failure_mode(ConditionId id) {
  MPROS_EXPECTS(id.valid() && id.value() <= kFailureModeCount);
  return static_cast<FailureMode>(id.value() - 1);
}

const std::string& condition_text(FailureMode m) {
  // Enum order, then the text for an out-of-range value. Static strings
  // let a row renderer append a text without copying it, even one longer
  // than the small-string buffer.
  static const std::string kTexts[kFailureModeCount + 1] = {
      "motor imbalance",
      "shaft misalignment",
      "pump bearing housing looseness",
      "motor rotor bar problem",
      "stator winding fault",
      "motor bearing wear",
      "compressor bearing wear",
      "lubricating oil degradation",
      "gear mesh wear",
      "pump cavitation",
      "refrigerant leak",
      "condenser fouling",
      "?"};
  return kTexts[std::min(static_cast<std::size_t>(m), kFailureModeCount)];
}

const char* to_string(SensorFaultKind k) {
  switch (k) {
    case SensorFaultKind::Flatline: return "Flatline";
    case SensorFaultKind::Dropout: return "Dropout";
    case SensorFaultKind::OutOfRange: return "OutOfRange";
    case SensorFaultKind::Spike: return "Spike";
  }
  return "?";
}

ConditionId sensor_fault_condition(SensorFaultKind k) {
  return ConditionId(kSensorFaultConditionBase +
                     static_cast<std::uint64_t>(k));
}

bool is_sensor_fault_condition(ConditionId id) {
  return id.value() >= kSensorFaultConditionBase &&
         id.value() < kSensorFaultConditionBase + kSensorFaultKindCount;
}

SensorFaultKind sensor_fault_kind(ConditionId id) {
  MPROS_EXPECTS(is_sensor_fault_condition(id));
  return static_cast<SensorFaultKind>(id.value() - kSensorFaultConditionBase);
}

const std::string& sensor_fault_condition_text(SensorFaultKind k) {
  // Enum order, then the text for an out-of-range value.
  static const std::string kTexts[kSensorFaultKindCount + 1] = {
      "sensor flatline (stuck-at)", "sensor dropout (non-finite data)",
      "sensor reading out of range", "sensor spike train", "?"};
  return kTexts[std::min(static_cast<std::size_t>(k), kSensorFaultKindCount)];
}

}  // namespace mpros::domain
