// mpros_sim — command-line MPROS scenario runner.
//
// Assembles a fleet, injects faults, runs simulated time, and prints any of
// the PDME's views. Everything the examples demonstrate, scriptable:
//
//   mpros_sim --plants 4 --hours 6
//             --fault 0:MotorImbalance:0.5:2.0:0.9
//             --fault 1:RefrigerantLeak:1.0:1.0:1.0
//             --net-drop 0.05 --net-jitter-s 10
//             --fleet-analyzer --auto-retest
//             --show summary,health,machine:0,icas,mimosa
//
// --fault plant:Mode:onset_h:ramp_h:severity   (repeatable)
// --show  comma list of: summary, health, flows, icas, mimosa, telemetry,
//         machine:<plant> (Fig 2 browser for that plant's motor), stats
//
//   mpros_sim --list-modes     # print the FMEA failure-mode catalog
//   mpros_sim --validate       # run the §9 seeded-fault study (slow)
//   mpros_sim --record run.mfr # journal the run into a flight recording
//   mpros_sim --replay run.mfr # re-fuse a recording (same as mpros_replay)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "fault_arg.hpp"
#include "mpros/mpros/mpros.hpp"

namespace {

using namespace mpros;
using tools::split;

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "mpros_sim: %s\n(see the header of tools/mpros_sim.cpp for usage)\n",
               message.c_str());
  std::exit(2);
}

tools::FaultArg parse_fault(const std::string& spec) {
  std::string error;
  const auto f = tools::parse_fault_arg(spec, "plant", error);
  if (!f) usage_error(error);
  return *f;
}

int run_validation_study() {
  std::printf("Running the §9 seeded-fault study (12 run-to-failure "
              "scenarios, ~3 min)...\n");
  const auto summary = run_validation(standard_study());
  std::printf("%s", render(summary).c_str());
  return summary.detection_rate > 0.99 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t plants = 2;
  double hours = 2.0;
  std::vector<tools::FaultArg> faults;
  ShipSystemConfig cfg;
  std::vector<std::string> shows = {"summary"};
  std::uint64_t seed = 0x5417;
  std::string record_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--plants") {
      plants = static_cast<std::size_t>(std::atoi(next().c_str()));
    } else if (arg == "--hours") {
      hours = std::atof(next().c_str());
    } else if (arg == "--fault") {
      faults.push_back(parse_fault(next()));
    } else if (arg == "--net-drop") {
      cfg.network.drop_probability = std::atof(next().c_str());
    } else if (arg == "--net-dup") {
      cfg.network.duplicate_probability = std::atof(next().c_str());
    } else if (arg == "--net-jitter-s") {
      cfg.network.jitter = SimTime::from_seconds(std::atof(next().c_str()));
    } else if (arg == "--load") {
      cfg.initial_load = std::atof(next().c_str());
    } else if (arg == "--seed") {
      seed = static_cast<std::uint64_t>(std::atoll(next().c_str()));
    } else if (arg == "--wnn") {
      cfg.use_wnn = true;
    } else if (arg == "--fleet-analyzer") {
      cfg.enable_fleet_analyzer = true;
    } else if (arg == "--auto-retest") {
      cfg.pdme.auto_retest = true;
    } else if (arg == "--vib-period-s") {
      cfg.dc_template.vibration_period =
          SimTime::from_seconds(std::atof(next().c_str()));
    } else if (arg == "--show") {
      shows = split(next(), ',');
    } else if (arg == "--record") {
      record_path = next();
      cfg.enable_flight_recorder = true;
    } else if (arg == "--replay") {
      const auto result = replay_file(next());
      if (!result.has_value()) {
        std::fprintf(stderr, "mpros_sim: cannot replay that recording\n");
        return 1;
      }
      std::printf("%s\n", result->summary.c_str());
      return 0;
    } else if (arg == "--list-modes") {
      for (const auto mode : domain::all_failure_modes()) {
        std::printf("%-26s (%s, group %s)\n", domain::to_string(mode),
                    domain::condition_text(mode).c_str(),
                    domain::to_string(domain::logical_group(mode)));
      }
      return 0;
    } else if (arg == "--validate") {
      return run_validation_study();
    } else if (arg == "--help" || arg == "-h") {
      std::printf("see the header comment of tools/mpros_sim.cpp\n");
      return 0;
    } else {
      usage_error("unknown argument '" + arg + "'");
    }
  }

  cfg.plant_count = plants;
  cfg.seed = seed;
  ShipSystem ship(cfg);

  for (const tools::FaultArg& f : faults) {
    if (f.target >= ship.plant_count()) {
      usage_error("--fault names plant " + std::to_string(f.target) +
                  " but only " + std::to_string(ship.plant_count()) +
                  " exist");
    }
    ship.chiller(f.target).faults().schedule(f.event);
  }

  std::printf("mpros_sim: %zu plant(s), %.2f simulated hour(s), %zu fault(s)\n\n",
              ship.plant_count(), hours, faults.size());
  ship.run_until(SimTime::from_hours(hours));

  for (const std::string& show : shows) {
    if (show == "summary") {
      std::printf("%s\n",
                  pdme::render_summary(ship.pdme(), ship.model()).c_str());
    } else if (show == "health") {
      const pdme::HealthRollup rollup;
      std::printf("%s\n",
                  rollup.render_tree(ship.pdme(), ship.ship().ship).c_str());
    } else if (show == "flows") {
      const pdme::SpatialReasoner spatial;
      for (const auto& s : spatial.flow_suspicions(ship.pdme())) {
        std::printf("flow watch: %s (%s) -> %s (%.2f)\n",
                    ship.model().name(s.source).c_str(),
                    domain::condition_text(s.source_mode).c_str(),
                    ship.model().name(s.downstream).c_str(), s.suspicion);
      }
      std::printf("\n");
    } else if (show == "icas") {
      std::printf("%s\n",
                  pdme::export_icas_csv(ship.pdme(), ship.model()).c_str());
    } else if (show == "mimosa") {
      std::printf("%s\n",
                  pdme::export_mimosa(ship.pdme(), ship.model()).c_str());
    } else if (show == "stats") {
      const auto stats = ship.fleet_stats();
      const auto pstats = ship.pdme().snapshot();
      auto& reg = telemetry::Registry::instance();
      std::printf("samples=%llu reports=%llu fused=%llu dropped=%llu "
                  "duplicated=%llu retests=%llu\n",
                  static_cast<unsigned long long>(stats.samples_processed),
                  static_cast<unsigned long long>(stats.reports_emitted),
                  static_cast<unsigned long long>(stats.reports_fused),
                  static_cast<unsigned long long>(stats.network.dropped),
                  static_cast<unsigned long long>(stats.network.duplicated),
                  static_cast<unsigned long long>(pstats.retests_commanded));
      std::printf("supervisor: wedges=%llu restarts=%llu; config: "
                  "commands=%llu acks=%llu applied=%llu rejected=%llu\n\n",
                  static_cast<unsigned long long>(
                      reg.counter("dc.wedges_detected").value()),
                  static_cast<unsigned long long>(
                      reg.counter("mpros.supervisor_restarts").value()),
                  static_cast<unsigned long long>(pstats.commands_sent),
                  static_cast<unsigned long long>(pstats.command_acks),
                  static_cast<unsigned long long>(
                      reg.counter("dc.config_applied").value()),
                  static_cast<unsigned long long>(
                      reg.counter("dc.config_rejected").value()));
    } else if (show == "telemetry") {
      std::printf("%s\n", ShipSystem::telemetry_text().c_str());
    } else if (show.rfind("machine:", 0) == 0) {
      const auto plant = static_cast<std::size_t>(
          std::atoi(show.substr(std::strlen("machine:")).c_str()));
      if (plant >= ship.plant_count()) usage_error("bad machine index");
      std::printf("%s\n",
                  pdme::render_machine(ship.pdme(), ship.model(),
                                       ship.plant_objects(plant).motor)
                      .c_str());
    } else {
      usage_error("unknown --show item '" + show + "'");
    }
  }

  if (!record_path.empty()) {
    if (!ship.flight_recorder()->dump(record_path)) {
      std::fprintf(stderr, "mpros_sim: cannot write '%s'\n",
                   record_path.c_str());
      return 1;
    }
    std::printf("flight recording written to %s (%llu frame(s), replay "
                "with mpros_replay)\n",
                record_path.c_str(),
                static_cast<unsigned long long>(
                    ship.flight_recorder()->recorded()));
  }
  return 0;
}
