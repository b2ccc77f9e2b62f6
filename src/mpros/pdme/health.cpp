#include "mpros/pdme/health.hpp"

#include <algorithm>
#include <cstdio>

namespace mpros::pdme {

namespace {

/// Weight of the worst child vs the mean of the children when rolling up
/// (1 = min-only: a chain is as healthy as its sickest link).
constexpr double kWorstChildWeight = 0.7;

std::map<ObjectId, double> own_health(const PdmeExecutive& pdme,
                                      const oosm::ObjectModel& model) {
  std::map<ObjectId, double> own;
  for (const ObjectId id : model.equipment_objects()) {
    double h = 1.0;
    for (const MaintenanceItem& item : pdme.prioritized_list(id)) {
      h *= 1.0 - std::clamp(
                     item.fused_belief * std::max(0.1, item.max_severity),
                     0.0, 0.99);
    }
    own[id] = h;
  }
  return own;
}

}  // namespace

double HealthRollup::rolled_health(const oosm::ObjectModel& model,
                                   const std::map<ObjectId, double>& own,
                                   std::map<ObjectId, double>& memo,
                                   ObjectId id) const {
  const auto cached = memo.find(id);
  if (cached != memo.end()) return cached->second;

  const auto own_it = own.find(id);
  double h = own_it != own.end() ? own_it->second : 1.0;

  const std::vector<ObjectId> children =
      model.related_to(id, oosm::Relation::PartOf);
  if (!children.empty()) {
    double worst = 1.0;
    double sum = 0.0;
    std::size_t counted = 0;
    for (const ObjectId child : children) {
      if (!own.contains(child)) continue;  // report objects etc.
      const double ch = rolled_health(model, own, memo, child);
      worst = std::min(worst, ch);
      sum += ch;
      ++counted;
    }
    if (counted > 0) {
      const double mean = sum / static_cast<double>(counted);
      const double children_health =
          kWorstChildWeight * worst + (1.0 - kWorstChildWeight) * mean;
      h *= children_health;
    }
  }
  memo[id] = h;
  return h;
}

std::map<ObjectId, HealthEntry> HealthRollup::compute(
    const PdmeExecutive& pdme) const {
  const oosm::ObjectModel& model = pdme.model();
  const std::map<ObjectId, double> own = own_health(pdme, model);

  std::map<ObjectId, double> memo;
  std::map<ObjectId, HealthEntry> out;
  for (const auto& [id, own_h] : own) {
    HealthEntry e;
    e.object = id;
    e.own = own_h;
    e.rolled = rolled_health(model, own, memo, id);
    out[id] = e;
  }
  return out;
}

double HealthRollup::health_of(const PdmeExecutive& pdme,
                               ObjectId object) const {
  const auto all = compute(pdme);
  const auto it = all.find(object);
  return it == all.end() ? 1.0 : it->second.rolled;
}

namespace {

void render_node(const oosm::ObjectModel& model,
                 const std::map<ObjectId, HealthEntry>& health, ObjectId id,
                 int depth, std::string& out) {
  const auto it = health.find(id);
  const double rolled = it != health.end() ? it->second.rolled : 1.0;
  const double own = it != health.end() ? it->second.own : 1.0;

  char line[192];
  std::snprintf(line, sizeof line, "%*s%-32s health %.3f (own %.3f)\n",
                depth * 2, "", model.name(id).c_str(), rolled, own);
  out += line;

  // Children, worst first.
  std::vector<ObjectId> children =
      model.related_to(id, oosm::Relation::PartOf);
  std::sort(children.begin(), children.end(),
            [&](ObjectId a, ObjectId b) {
              const auto ha = health.find(a), hb = health.find(b);
              const double va = ha != health.end() ? ha->second.rolled : 1.0;
              const double vb = hb != health.end() ? hb->second.rolled : 1.0;
              return va < vb;
            });
  for (const ObjectId child : children) {
    if (model.kind(child) == domain::EquipmentKind::Report) continue;
    render_node(model, health, child, depth + 1, out);
  }
}

}  // namespace

std::string HealthRollup::render_tree(const PdmeExecutive& pdme,
                                      ObjectId root) const {
  const auto health = compute(pdme);
  std::string out = "=== System health rollup ===\n";
  render_node(pdme.model(), health, root, 0, out);
  return out;
}

}  // namespace mpros::pdme
