// Shipboard-deployment rehearsal (paper §4.9): "power supply and
// communications are stable in our labs but may not be the same on board
// the ships. Simulating the range of problems that may arise will let us
// improve robustness to the point of long-term unattended operation."
//
// This scenario runs a fleet with a developing fault, snapshots the OOSM to
// its relational store mid-mission (§4.6 background persistence), then
// simulates a PDME power loss: a brand-new executive is stood up over the
// reloaded model and rebuilds its fused state from the persisted report
// objects — the maintenance picture survives the outage.
//
//   ./build/examples/shipboard_deployment

#include <cstdio>

#include "mpros/mpros/mpros.hpp"

int main() {
  using namespace mpros;
  using domain::FailureMode;

  ShipSystemConfig cfg;
  cfg.plant_count = 2;
  cfg.network.drop_probability = 0.10;  // shipboard comms are not lab comms
  cfg.network.jitter = SimTime::from_seconds(10.0);
  ShipSystem ship(cfg);

  ship.chiller(0).faults().schedule({FailureMode::GearMeshWear,
                                     SimTime::from_hours(0.2),
                                     SimTime::from_hours(1.5), 0.85,
                                     plant::GrowthProfile::Accelerating});

  std::printf("Mission start: 2 plants, gear wear developing on plant 1.\n");
  ship.run_until(SimTime::from_hours(2.0));

  const ObjectId gearbox = ship.plant_objects(0).gearbox;
  const auto before = ship.pdme().prioritized_list(gearbox);
  std::printf("Before outage: %zu fused conclusion(s) on %s\n",
              before.size(), ship.model().name(gearbox).c_str());
  for (const auto& item : before) {
    std::printf("  %-24s bel=%.3f sev=%.2f\n",
                domain::condition_text(item.mode).c_str(), item.fused_belief,
                item.max_severity);
  }

  // §4.6: persistence "entirely managed in the background" — a journal
  // attached to the running ship writes the whole model (machines,
  // relationships, accumulated report objects) and would mirror every later
  // change; here it detaches right away.
  db::Database store;
  { oosm::DurableModelJournal journal(ship.model(), store); }
  std::printf("\nOOSM snapshot: %zu objects across tables {%s}\n",
              ship.model().object_count(),
              [&store] {
                std::string names;
                for (const auto& n : store.table_names()) {
                  if (!names.empty()) names += ", ";
                  names += n;
                }
                return names;
              }()
                  .c_str());

  // --- PDME power loss: everything volatile is gone. -----------------------
  std::printf("\n*** PDME power loss. Restarting from the snapshot... ***\n\n");
  oosm::ObjectModel restored = oosm::Persistence::load(store);
  pdme::PdmeExecutive recovered(restored);
  const std::size_t refused = recovered.rebuild_from_model();

  const auto after = recovered.prioritized_list(gearbox);
  std::printf("Recovered %zu reports from the persisted model.\n", refused);
  std::printf("After restart: %zu fused conclusion(s) on %s\n", after.size(),
              restored.name(gearbox).c_str());
  for (const auto& item : after) {
    std::printf("  %-24s bel=%.3f sev=%.2f\n",
                domain::condition_text(item.mode).c_str(), item.fused_belief,
                item.max_severity);
  }

  const bool match =
      !before.empty() && !after.empty() &&
      before.front().mode == after.front().mode &&
      std::abs(before.front().fused_belief - after.front().fused_belief) <
          1e-9;
  std::printf("\nMaintenance picture %s the outage.\n",
              match ? "SURVIVED" : "did NOT survive");
  return match ? 0 : 1;
}
