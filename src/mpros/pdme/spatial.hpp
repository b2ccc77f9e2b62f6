#pragma once
// Spatial knowledge fusion (paper §10.1).
//
// "Second, spatial reasoning using the object-oriented ship model could
// lead us to fuse information about spatially related components. Examples
// of spatial relations are proximity (for example, a device is vibrating
// because a component next to it is broken and vibrating wildly) and flow.
// Flows ... one component passing fouled fluids on to other components
// downstream."
//
// The SpatialReasoner post-processes fused conclusions against the OOSM's
// Proximity and FlowTo graphs:
//  - proximity discounting: a weak vibration diagnosis on machine A is
//    discounted when a proximate machine B carries a strong, well-supported
//    rotor-dynamics conclusion (A is probably just shaking in sympathy);
//  - flow suspicion: a confirmed fluid-borne fault raises advisory
//    suspicion on components downstream of the source.

#include <vector>

#include "mpros/pdme/pdme.hpp"

namespace mpros::pdme {

/// A maintenance item after spatial post-processing.
struct SpatialItem {
  MaintenanceItem item;
  bool discounted = false;     ///< proximity discount applied
  ObjectId attributed_to;      ///< the proximate culprit, when discounted
};

/// Advisory flow-based suspicion (not a §7 report — a watch item).
struct FlowSuspicion {
  ObjectId source;               ///< machine with the confirmed fault
  domain::FailureMode source_mode{};
  ObjectId downstream;           ///< component receiving the fluid
  double suspicion = 0.0;
};

class SpatialReasoner {
 public:
  /// Re-rank the PDME's prioritized list with proximity discounting.
  [[nodiscard]] std::vector<SpatialItem> refine(
      const PdmeExecutive& pdme) const;

  /// Fluid-borne faults (oil degradation, refrigerant leak, condenser
  /// fouling) propagated along FlowTo edges.
  [[nodiscard]] std::vector<FlowSuspicion> flow_suspicions(
      const PdmeExecutive& pdme) const;

 private:
  [[nodiscard]] static bool vibration_transmissible(domain::FailureMode mode);
  [[nodiscard]] static bool fluid_borne(domain::FailureMode mode);
};

}  // namespace mpros::pdme
