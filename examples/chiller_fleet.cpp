// Fleet scenario: four chiller plants, staggered faults of different kinds,
// a lossy ship network, and the PDME's fleet-wide prioritized maintenance
// list plus the ICAS CSV export.
//
//   ./build/examples/chiller_fleet [hours]

#include <cstdio>
#include <cstdlib>

#include "mpros/mpros/mpros.hpp"
#include "mpros/pdme/health.hpp"
#include "mpros/pdme/spatial.hpp"

int main(int argc, char** argv) {
  using namespace mpros;
  using domain::FailureMode;

  double hours = 4.0;
  if (argc > 1) hours = std::atof(argv[1]);

  ShipSystemConfig cfg;
  cfg.plant_count = 4;
  cfg.network.drop_probability = 0.05;
  cfg.network.duplicate_probability = 0.02;
  cfg.network.jitter = SimTime::from_seconds(5.0);
  cfg.enable_fleet_analyzer = true;  // §5.7 PDME-resident comparisons
  cfg.pdme.auto_retest = true;       // §6.3 "closer look" commands
  ShipSystem ship(cfg);

  // Plant 1: imbalance developing over two hours.
  ship.chiller(0).faults().schedule({FailureMode::MotorImbalance,
                                     SimTime::from_hours(0.2),
                                     SimTime::from_hours(2.0), 0.9,
                                     plant::GrowthProfile::Linear});
  // Plant 2: refrigerant leak (process-side fault, caught by fuzzy logic).
  ship.chiller(1).faults().schedule({FailureMode::RefrigerantLeak,
                                     SimTime::from_hours(0.5),
                                     SimTime::from_hours(1.0), 0.95,
                                     plant::GrowthProfile::Linear});
  // Plant 3: gear wear, accelerating profile.
  ship.chiller(2).faults().schedule({FailureMode::GearMeshWear,
                                     SimTime::from_hours(1.0),
                                     SimTime::from_hours(2.0), 0.8,
                                     plant::GrowthProfile::Accelerating});
  // Plant 4 stays healthy as the control.

  std::printf("Running %zu plants for %.1f simulated hours...\n\n",
              ship.plant_count(), hours);
  ship.run_until(SimTime::from_hours(hours));

  const auto stats = ship.fleet_stats();
  std::printf("Fleet: %llu samples processed, %llu reports emitted, "
              "%llu fused at PDME (net: %llu dropped, %llu duplicated)\n\n",
              static_cast<unsigned long long>(stats.samples_processed),
              static_cast<unsigned long long>(stats.reports_emitted),
              static_cast<unsigned long long>(stats.reports_fused),
              static_cast<unsigned long long>(stats.network.dropped),
              static_cast<unsigned long long>(stats.network.duplicated));

  std::printf("%s\n", pdme::render_summary(ship.pdme(), ship.model()).c_str());

  // §10.1 multi-level health: roll part-level conclusions up to the ship.
  const pdme::HealthRollup rollup;
  std::printf("%s\n",
              rollup.render_tree(ship.pdme(), ship.ship().ship).c_str());

  // §10.1 spatial reasoning: discount sympathetic vibration, trace flows.
  const pdme::SpatialReasoner spatial;
  const auto suspicions = spatial.flow_suspicions(ship.pdme());
  if (!suspicions.empty()) {
    std::printf("--- Flow-based watch items ---\n");
    for (const auto& s : suspicions) {
      std::printf("  %s (%s) -> watch %s (suspicion %.2f)\n",
                  ship.model().name(s.source).c_str(),
                  domain::condition_text(s.source_mode).c_str(),
                  ship.model().name(s.downstream).c_str(), s.suspicion);
    }
    std::printf("\n");
  }
  if (ship.pdme().snapshot().retests_commanded > 0) {
    std::printf("PDME commanded %llu closer-look vibration tests.\n\n",
                static_cast<unsigned long long>(
                    ship.pdme().snapshot().retests_commanded));
  }

  std::printf("--- ICAS export ---\n%s\n",
              pdme::export_icas_csv(ship.pdme(), ship.model()).c_str());
  return 0;
}
