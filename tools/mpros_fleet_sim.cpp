// mpros_fleet_sim — command-line fleet-tier scenario runner.
//
// Assembles N full ShipSystems with their uplinks, the hostile ship-to-
// shore link, and the shore FleetServer; runs simulated time; prints the
// shore operator's fleet view (liveness, comparative outliers, the
// cross-fleet maintenance list).
//
//   mpros_fleet_sim --ships 8 --hours 4
//                   --fault 0:MotorImbalance:0.5:0.5:0.9
//                   --shore-drop 0.15 --shore-dup 0.05
//                   --outage 1800:3600
//
// --ships N            hulls in the fleet (default 4)
// --plants N           chiller plants per hull (default 1)
// --hours H            simulated duration (default 2)
// --fault ship:Mode:onset_h:ramp_h:severity   (repeatable; plant 0)
// --shore-drop P       shore-link drop probability (default 0.1)
// --shore-dup P        shore-link duplication probability (default 0.02)
// --outage FROM:TO     hard shore partition window, seconds (repeatable)
// --seed N             scenario seed
// --stats              also print server/uplink counters

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "fault_arg.hpp"
#include "mpros/fleet/fleet_sim.hpp"

namespace {

using namespace mpros;
using namespace mpros::fleet;
using tools::split;

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "mpros_fleet_sim: %s\n(see the header of "
               "tools/mpros_fleet_sim.cpp for usage)\n",
               message.c_str());
  std::exit(2);
}

tools::FaultArg parse_fault(const std::string& spec) {
  std::string error;
  const auto f = tools::parse_fault_arg(spec, "ship", error);
  if (!f) usage_error(error);
  return *f;
}

}  // namespace

int main(int argc, char** argv) {
  FleetSimConfig cfg;
  cfg.ship_count = 4;
  cfg.ship_template.plant_count = 1;
  cfg.shore.drop_probability = 0.1;
  cfg.shore.duplicate_probability = 0.02;
  double hours = 2.0;
  bool show_stats = false;
  std::vector<tools::FaultArg> faults;
  std::vector<net::Outage> outages;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--ships") {
      cfg.ship_count = static_cast<std::size_t>(std::atoi(next().c_str()));
    } else if (arg == "--plants") {
      cfg.ship_template.plant_count =
          static_cast<std::size_t>(std::atoi(next().c_str()));
    } else if (arg == "--hours") {
      hours = std::atof(next().c_str());
    } else if (arg == "--fault") {
      faults.push_back(parse_fault(next()));
    } else if (arg == "--shore-drop") {
      cfg.shore.drop_probability = std::atof(next().c_str());
    } else if (arg == "--shore-dup") {
      cfg.shore.duplicate_probability = std::atof(next().c_str());
    } else if (arg == "--outage") {
      const auto parts = split(next(), ':');
      if (parts.size() != 2) usage_error("--outage expects FROM:TO seconds");
      outages.push_back({"fleet",
                         SimTime::from_seconds(std::atof(parts[0].c_str())),
                         SimTime::from_seconds(std::atof(parts[1].c_str())),
                         1.0});
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(next().c_str(), nullptr, 0);
    } else if (arg == "--stats") {
      show_stats = true;
    } else {
      usage_error("unknown argument '" + arg + "'");
    }
  }
  if (cfg.ship_count == 0) usage_error("--ships must be >= 1");

  FleetSim fleet(cfg);
  for (const net::Outage& outage : outages) {
    fleet.shore().schedule_outage(outage);
  }
  for (const tools::FaultArg& f : faults) {
    if (f.target >= fleet.ship_count()) {
      usage_error("--fault ship index out of range");
    }
    fleet.ship(f.target).chiller(0).faults().schedule(f.event);
  }

  fleet.run_until(SimTime::from_hours(hours));

  std::printf("%s", fleet.server().render_fleet_view().c_str());

  if (show_stats) {
    const FleetServer::Stats s = fleet.server().stats_snapshot();
    const net::NetworkStats shore = fleet.shore().stats();
    std::printf(
        "\n--- shore-link stats ---\n"
        "sent %llu, delivered %llu, dropped %llu, duplicated %llu\n"
        "summaries applied %llu (stale %llu, duplicates %llu, "
        "malformed %llu)\n"
        "acks sent %llu, gaps detected %llu, liveness transitions %llu\n",
        static_cast<unsigned long long>(shore.sent),
        static_cast<unsigned long long>(shore.delivered),
        static_cast<unsigned long long>(shore.dropped),
        static_cast<unsigned long long>(shore.duplicated),
        static_cast<unsigned long long>(s.summaries_applied),
        static_cast<unsigned long long>(s.summaries_stale),
        static_cast<unsigned long long>(s.duplicates_dropped),
        static_cast<unsigned long long>(s.malformed_dropped),
        static_cast<unsigned long long>(s.acks_sent),
        static_cast<unsigned long long>(s.gaps_detected),
        static_cast<unsigned long long>(s.liveness_transitions));
    for (std::size_t k = 0; k < fleet.ship_count(); ++k) {
      const auto up = fleet.ship(k).uplink()->snapshot();
      std::printf("hull %zu uplink: enveloped %llu, retransmits %llu, "
                  "acked %llu, max-backoff %llu\n",
                  k + 1, static_cast<unsigned long long>(up.enveloped),
                  static_cast<unsigned long long>(up.retransmits),
                  static_cast<unsigned long long>(up.acked),
                  static_cast<unsigned long long>(up.max_backoff_hits));
    }
    for (std::size_t k = 0; k < fleet.ship_count(); ++k) {
      const auto ps = fleet.ship(k).pdme().snapshot();
      std::printf("hull %zu pdme: commands %llu, command acks %llu\n",
                  k + 1, static_cast<unsigned long long>(ps.commands_sent),
                  static_cast<unsigned long long>(ps.command_acks));
    }
    auto& reg = telemetry::Registry::instance();
    std::printf("supervisor: wedges %llu, restarts %llu; config: "
                "applied %llu, rejected %llu, shore downlinks %llu\n",
                static_cast<unsigned long long>(
                    reg.counter("dc.wedges_detected").value()),
                static_cast<unsigned long long>(
                    reg.counter("mpros.supervisor_restarts").value()),
                static_cast<unsigned long long>(
                    reg.counter("dc.config_applied").value()),
                static_cast<unsigned long long>(
                    reg.counter("dc.config_rejected").value()),
                static_cast<unsigned long long>(s.commands_sent));
  }
  return 0;
}
