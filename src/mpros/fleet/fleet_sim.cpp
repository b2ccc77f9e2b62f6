#include "mpros/fleet/fleet_sim.hpp"

#include <algorithm>
#include <cstdio>

#include "mpros/common/assert.hpp"
#include "mpros/common/rng.hpp"

namespace mpros::fleet {

FleetSim::FleetSim(FleetSimConfig cfg)
    : cfg_(std::move(cfg)), shore_(cfg_.shore), server_(cfg_.server) {
  MPROS_EXPECTS(cfg_.ship_count >= 1);
  // The shore watchdog must pace itself by the cadence hulls actually hold.
  MPROS_EXPECTS(cfg_.server.summary_interval.micros() ==
                cfg_.ship_template.uplink.summary_period.micros());
  server_.attach_to_network(shore_, "fleet");

  for (std::size_t k = 0; k < cfg_.ship_count; ++k) {
    ShipSystemConfig ship_cfg = cfg_.ship_template;
    ship_cfg.uplink.enabled = true;
    ship_cfg.uplink.ship = ShipId(k + 1);
    char name[32];
    std::snprintf(name, sizeof name, "Hull-%02zu", k + 1);
    ship_cfg.uplink.name = name;
    ship_cfg.uplink.endpoint.clear();  // "hull-<k+1>"
    ship_cfg.seed = splitmix64(cfg_.seed ^ ((k + 1) * 0x9E3779B9));
    if (ship_cfg.worker_threads == 0) {
      // advance_to() steps hulls serially, so a hull's pool would only
      // ever run while the driver waits on it: one worker is the driver.
      ship_cfg.worker_threads = 1;
    }
    ships_.push_back(std::make_unique<ShipSystem>(ship_cfg));

    ShipSystem* ship_ptr = ships_.back().get();
    shore_.register_endpoint(
        ship_ptr->uplink_endpoint(),
        [ship_ptr](const net::Message& msg) {
          ship_ptr->handle_uplink_wire(msg);
        });
    server_.expect_ship(ShipId(k + 1), name, SimTime(0));
  }
}

ShipSystem& FleetSim::ship(std::size_t index) {
  MPROS_EXPECTS(index < ships_.size());
  return *ships_[index];
}

std::size_t FleetSim::advance_to(SimTime t) {
  MPROS_EXPECTS(t >= now_);
  // Hull order is fixed, so the shore send schedule — and with it the
  // seeded loss/duplication trace — is deterministic run to run.
  for (auto& ship : ships_) {
    ship->advance_to(t);
    for (ShipSystem::UplinkDatagram& dgram : ship->drain_uplink()) {
      shore_.send(ship->uplink_endpoint(), "fleet", std::move(dgram.payload),
                  dgram.at);
    }
  }
  now_ = t;
  const std::size_t delivered = shore_.advance_to(now_);
  server_.publish(now_);
  return delivered;
}

std::size_t FleetSim::run_until(SimTime end, SimTime step) {
  MPROS_EXPECTS(step.micros() > 0);
  std::size_t delivered = 0;
  while (now_ < end) {
    delivered += advance_to(std::min(end, now_ + step));
  }
  return delivered;
}

}  // namespace mpros::fleet
