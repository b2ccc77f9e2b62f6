#pragma once
// FleetSim: the assembled two-tier deployment — N full ShipSystems, each
// with its uplink enabled, one hostile ship-to-shore SimNetwork, and the
// FleetServer fusing the hulls' summaries on shore. The shipboard networks
// stay private per hull (a ship's DC traffic never leaves the hull); only
// the compact FleetSummary digests cross the shore link.

#include <memory>
#include <string>
#include <vector>

#include "mpros/fleet/fleet_server.hpp"
#include "mpros/mpros/ship_system.hpp"
#include "mpros/net/network.hpp"

namespace mpros::fleet {

struct FleetSimConfig {
  std::size_t ship_count = 4;
  /// Per-hull template; uplink.{enabled, ship, name, endpoint} are
  /// overridden per hull, and worker_threads 0 becomes 1: hulls advance one
  /// after another, so each hull's DCs run on the driver thread.
  ShipSystemConfig ship_template;
  /// The ship-to-shore link: slower and lossier than any shipboard LAN.
  net::NetworkConfig shore;
  FleetServerConfig server;
  std::uint64_t seed = 0xF1EE7;
};

class FleetSim {
 public:
  explicit FleetSim(FleetSimConfig cfg = {});

  [[nodiscard]] std::size_t ship_count() const { return ships_.size(); }
  [[nodiscard]] ShipSystem& ship(std::size_t index);
  [[nodiscard]] FleetServer& server() { return server_; }
  [[nodiscard]] net::SimNetwork& shore() { return shore_; }

  /// Advance every hull to `t`, move their sealed uplink datagrams onto
  /// the shore network, deliver what is due, and run the server's merge
  /// barrier (liveness + comparative baseline + snapshot publish). Returns
  /// the number of shore datagrams delivered.
  std::size_t advance_to(SimTime t);
  std::size_t run_until(SimTime end, SimTime step = SimTime::from_seconds(60));

  [[nodiscard]] SimTime now() const { return now_; }

 private:
  FleetSimConfig cfg_;
  net::SimNetwork shore_;
  FleetServer server_;
  std::vector<std::unique_ptr<ShipSystem>> ships_;
  SimTime now_;
};

}  // namespace mpros::fleet
