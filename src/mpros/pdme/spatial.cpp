#include "mpros/pdme/spatial.hpp"

#include <algorithm>

namespace mpros::pdme {

using domain::FailureMode;

namespace {

/// Neighbour belief from which it counts as the "wildly vibrating"
/// culprit (and a fluid-borne fault as confirmed).
constexpr double kCulpritBelief = 0.80;
/// Own belief below which a diagnosis is weak enough to discount.
constexpr double kWeakBelief = 0.50;
/// Multiplier applied to a discounted item's priority.
constexpr double kDiscountFactor = 0.35;
/// Advisory suspicion assigned to downstream components, per unit of the
/// source's belief.
constexpr double kDownstreamSuspicion = 0.30;

}  // namespace

bool SpatialReasoner::vibration_transmissible(FailureMode mode) {
  // Faults whose symptom is broadband/structural vibration that a healthy
  // neighbour could pick up through the skid.
  switch (mode) {
    case FailureMode::MotorImbalance:
    case FailureMode::ShaftMisalignment:
    case FailureMode::BearingHousingLooseness:
      return true;
    default:
      return false;
  }
}

bool SpatialReasoner::fluid_borne(FailureMode mode) {
  switch (mode) {
    case FailureMode::OilDegradation:   // contaminated oil reaches bearings
    case FailureMode::RefrigerantLeak:  // inventory loss starves the loop
    case FailureMode::CondenserFouling: // fouled water-side chemistry
      return true;
    default:
      return false;
  }
}

std::vector<SpatialItem> SpatialReasoner::refine(
    const PdmeExecutive& pdme) const {
  const oosm::ObjectModel& model = pdme.model();
  const std::vector<MaintenanceItem>& items = pdme.prioritized_list();

  std::vector<SpatialItem> out;
  out.reserve(items.size());
  for (const MaintenanceItem& item : items) {
    SpatialItem s{item, false, ObjectId{}};

    if (vibration_transmissible(item.mode) &&
        item.fused_belief < kWeakBelief &&
        model.exists(item.machine)) {
      // Look for a strongly implicated proximate culprit with a
      // transmissible fault of its own.
      for (const ObjectId neighbour :
           model.related(item.machine, oosm::Relation::Proximity)) {
        for (const MaintenanceItem& other : pdme.prioritized_list(neighbour)) {
          if (vibration_transmissible(other.mode) &&
              other.fused_belief >= kCulpritBelief) {
            s.discounted = true;
            s.attributed_to = neighbour;
            s.item.priority *= kDiscountFactor;
            break;
          }
        }
        if (s.discounted) break;
      }
    }
    out.push_back(s);
  }

  std::sort(out.begin(), out.end(),
            [](const SpatialItem& a, const SpatialItem& b) {
              return a.item.priority > b.item.priority;
            });
  return out;
}

std::vector<FlowSuspicion> SpatialReasoner::flow_suspicions(
    const PdmeExecutive& pdme) const {
  const oosm::ObjectModel& model = pdme.model();
  std::vector<FlowSuspicion> out;

  for (const MaintenanceItem& item : pdme.prioritized_list()) {
    if (!fluid_borne(item.mode)) continue;
    if (item.fused_belief < kCulpritBelief) continue;
    if (!model.exists(item.machine)) continue;

    for (const ObjectId downstream : model.downstream_of(item.machine)) {
      FlowSuspicion s;
      s.source = item.machine;
      s.source_mode = item.mode;
      s.downstream = downstream;
      s.suspicion = kDownstreamSuspicion * item.fused_belief;
      out.push_back(s);
    }
  }
  return out;
}

}  // namespace mpros::pdme
