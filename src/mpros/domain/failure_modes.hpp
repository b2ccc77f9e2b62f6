#pragma once
// The failure-mode catalog for the centrifugal chilled-water system.
//
// The paper's FMEA "selected 12 candidate failure modes" (§3.3) without
// listing them; we reconstruct twelve classic centrifugal-chiller modes that
// cover every analyzer in the prototype (vibration, electrical, process).
//
// Logical groups implement §5.3: Dempster-Shafer runs per group because
// failures *within* a group "might be mistaken for one another" and must
// share probability mass, while failures in different groups can coexist
// independently (no mutual exclusivity across groups).

#include <array>
#include <span>
#include <string>

#include "mpros/common/ids.hpp"

namespace mpros::domain {

enum class FailureMode : std::uint8_t {
  // Rotor-dynamics group
  MotorImbalance = 0,
  ShaftMisalignment,
  BearingHousingLooseness,  // the paper's "pump bearing housing looseness"
  // Electrical group
  RotorBarDefect,  // the paper's "motor rotor bar problem"
  StatorWindingFault,
  // Bearing / lubrication group
  MotorBearingWear,
  CompressorBearingWear,
  OilDegradation,
  // Gear-train group
  GearMeshWear,
  // Process / fluid group
  PumpCavitation,
  RefrigerantLeak,
  CondenserFouling,
};

inline constexpr std::size_t kFailureModeCount = 12;

enum class LogicalGroup : std::uint8_t {
  RotorDynamics = 0,
  Electrical,
  Bearing,
  GearTrain,
  Process,
};

inline constexpr std::size_t kLogicalGroupCount = 5;

[[nodiscard]] const char* to_string(FailureMode m);
[[nodiscard]] const char* to_string(LogicalGroup g);

/// The heuristic grouping of §5.3.
[[nodiscard]] LogicalGroup logical_group(FailureMode m);

/// All modes, in enum order.
[[nodiscard]] std::span<const FailureMode> all_failure_modes();

/// Modes belonging to one group, in enum order.
[[nodiscard]] std::span<const FailureMode> modes_in_group(LogicalGroup g);

/// Stable ConditionId for a mode (enum value + 1; 0 stays invalid).
[[nodiscard]] ConditionId condition_id(FailureMode m);

/// Inverse of condition_id; aborts on out-of-range ids.
[[nodiscard]] FailureMode failure_mode(ConditionId id);

/// Human-readable machine-condition text per the report protocol (§7.2),
/// e.g. "motor imbalance". A static string: callers need not copy it.
[[nodiscard]] const std::string& condition_text(FailureMode m);

// ---------------------------------------------------------------------------
// Sensor-fault conditions.
//
// A DC that concludes "the accelerometer is lying" must not phrase that as a
// machinery failure — feeding it to Dempster-Shafer would steal probability
// mass from real modes. Sensor faults get their own ConditionId range,
// disjoint from the machinery catalog, so every consumer (PDME fusion,
// browser, report codec) can route them without ambiguity.

enum class SensorFaultKind : std::uint8_t {
  Flatline = 0,  ///< stuck-at: variance collapsed to nothing
  Dropout,       ///< non-finite samples (open circuit / dead channel)
  OutOfRange,    ///< readings outside physical plausibility
  Spike,         ///< implausible isolated impulses (loose connector)
};

inline constexpr std::size_t kSensorFaultKindCount = 4;

/// First ConditionId of the sensor-fault range; machinery modes occupy
/// 1..kFailureModeCount, leaving room for catalog growth below this.
inline constexpr std::uint64_t kSensorFaultConditionBase = 100;

[[nodiscard]] const char* to_string(SensorFaultKind k);

/// Stable ConditionId for a sensor-fault kind (base + enum value).
[[nodiscard]] ConditionId sensor_fault_condition(SensorFaultKind k);

/// True when `id` lies in the sensor-fault range.
[[nodiscard]] bool is_sensor_fault_condition(ConditionId id);

/// Inverse of sensor_fault_condition; aborts on out-of-range ids.
[[nodiscard]] SensorFaultKind sensor_fault_kind(ConditionId id);

/// Report-protocol text, e.g. "sensor flatline (stuck-at)"; a static
/// string, like condition_text().
[[nodiscard]] const std::string& sensor_fault_condition_text(
    SensorFaultKind k);

}  // namespace mpros::domain
