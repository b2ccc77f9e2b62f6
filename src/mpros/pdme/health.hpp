#pragma once
// Multi-level health rollup (paper §10.1).
//
// "First, multi-level data is represented [in] the object-oriented ship
// model. We are not currently exploiting this fully. For example, we could
// reason about the health of a system based on the health of a constituent
// part. Currently, only the parts are tracked."
//
// HealthRollup assigns every OOSM object a health index in [0,1]
// (1 = healthy): a leaf's own health comes from the fused beliefs against
// it; a composite's health is the product of its own health and a weighted
// penalty from its PartOf children, so a failing motor degrades its
// chiller, its deck's plant availability, and ultimately the ship.

#include <map>
#include <string>
#include <vector>

#include "mpros/pdme/pdme.hpp"

namespace mpros::pdme {

struct HealthEntry {
  ObjectId object;
  double own = 1.0;     ///< from conclusions against this object directly
  double rolled = 1.0;  ///< own combined with descendants
};

/// Own health is Π (1 - belief * max(0.1, severity)) over the fused
/// conclusions against the object, each term capped at 0.99. A composite
/// multiplies that by 0.7 x its worst child + 0.3 x its children's mean.
class HealthRollup {
 public:
  /// Compute health for every object in the model. Objects outside any
  /// PartOf tree still get their own-health entry.
  [[nodiscard]] std::map<ObjectId, HealthEntry> compute(
      const PdmeExecutive& pdme) const;

  /// Rolled-up health of one object (1.0 if unknown to the model).
  [[nodiscard]] double health_of(const PdmeExecutive& pdme,
                                 ObjectId object) const;

  /// Text tree of the ship's health, worst subsystems first per level.
  [[nodiscard]] std::string render_tree(const PdmeExecutive& pdme,
                                        ObjectId root) const;

 private:
  double rolled_health(const oosm::ObjectModel& model,
                       const std::map<ObjectId, double>& own,
                       std::map<ObjectId, double>& memo, ObjectId id) const;
};

}  // namespace mpros::pdme
