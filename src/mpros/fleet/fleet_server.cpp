#include "mpros/fleet/fleet_server.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "mpros/common/assert.hpp"
#include "mpros/common/log.hpp"
#include "mpros/telemetry/metrics.hpp"

namespace mpros::fleet {

namespace {

struct FleetMetrics {
  telemetry::Counter& summaries_applied;
  telemetry::Counter& summaries_stale;
  telemetry::Counter& duplicates_dropped;
  telemetry::Counter& malformed_dropped;
  telemetry::Counter& heartbeats;
  telemetry::Counter& publishes;
  telemetry::Gauge& ships_alive;
  telemetry::Gauge& ships_lost;
  telemetry::Gauge& outliers;

  static FleetMetrics& instance() {
    static auto& reg = telemetry::Registry::instance();
    static FleetMetrics m{
        reg.counter("fleet.summaries_applied"),
        reg.counter("fleet.summaries_stale"),
        reg.counter("fleet.duplicates_dropped"),
        reg.counter("fleet.malformed_dropped"),
        reg.counter("fleet.heartbeats"),
        reg.counter("fleet.publishes"),
        reg.gauge("fleet.ships_alive"),
        reg.gauge("fleet.ships_lost"),
        reg.gauge("fleet.outliers"),
    };
    return m;
  }
};

double median(std::vector<double> v) {
  MPROS_EXPECTS(!v.empty());
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  double m = v[mid];
  if (v.size() % 2 == 0) {
    std::nth_element(v.begin(),
                     v.begin() + static_cast<std::ptrdiff_t>(mid) - 1,
                     v.begin() + static_cast<std::ptrdiff_t>(mid));
    m = (m + v[mid - 1]) / 2.0;
  }
  return m;
}

/// Robust population stats for one comparison group (the resident
/// fleet-comparative math from §5.7, run shore-side across hulls).
struct RobustStats {
  double med = 1.0;
  double mad = 0.0;
};

/// Robust z-score (deviation / median absolute deviation) below the class
/// median before a machine or hull is flagged as a fleet outlier.
constexpr double kZThreshold = 3.0;
static_assert(kZThreshold > 0.0);
/// Floor on the absolute health gap, so a uniformly healthy class with a
/// microscopic MAD does not false-alarm.
constexpr double kMinHealthDelta = 0.08;

RobustStats robust_stats(const std::vector<double>& values) {
  RobustStats out;
  out.med = median(values);
  std::vector<double> abs_dev;
  abs_dev.reserve(values.size());
  for (const double v : values) abs_dev.push_back(std::fabs(v - out.med));
  // Floor the MAD so a uniformly healthy population (MAD ~ 0) does not turn
  // measurement noise into sigma-shattering z-scores.
  out.mad = std::max(median(abs_dev), kMinHealthDelta / kZThreshold);
  return out;
}

void append(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min<std::size_t>(static_cast<std::size_t>(n),
                                                   sizeof buf - 1));
}

}  // namespace

const char* to_string(ShipLiveness liveness) {
  switch (liveness) {
    case ShipLiveness::Alive: return "Alive";
    case ShipLiveness::Stale: return "Stale";
    case ShipLiveness::Lost: return "Lost";
  }
  return "?";
}

FleetServer::FleetServer(FleetServerConfig cfg) : cfg_(cfg) {
  MPROS_EXPECTS(cfg.summary_interval.micros() > 0);
  MPROS_EXPECTS(cfg.stale_after_missed >= 1);
  MPROS_EXPECTS(cfg.lost_after_missed > cfg.stale_after_missed);
  // Readers must never observe a null view, even before the first publish.
  published_ = std::make_shared<const FleetSnapshot>();
}

void FleetServer::expect_ship(ShipId ship, std::string name, SimTime since) {
  std::lock_guard lock(mu_);
  ShipState& s = ships_[ship.value()];
  if (s.name.empty()) s.name = std::move(name);
  s.since = std::max(s.since, since);
  s.last_heard = std::max(s.last_heard, since);
}

void FleetServer::note_ship_alive_locked(ShipState& state, SimTime at) {
  state.last_heard = std::max(state.last_heard, at);
  if (state.liveness != ShipLiveness::Alive) {
    MPROS_LOG_INFO("fleet", "ship %s recovered (%s -> Alive)",
                   state.name.c_str(), to_string(state.liveness));
    state.liveness = ShipLiveness::Alive;
    ++stats_.liveness_transitions;
  }
}

net::AckMessage FleetServer::accept(const net::FleetSummaryEnvelope& env,
                                    SimTime at) {
  MPROS_EXPECTS(env.sequence >= 1);
  FleetMetrics& metrics = FleetMetrics::instance();
  std::lock_guard lock(mu_);
  ShipState& state = ships_[env.ship.value()];
  note_ship_alive_locked(state, at);

  const DcId stream(env.ship.value());
  if (receiver_.is_duplicate(stream, env.sequence)) {
    ++stats_.duplicates_dropped;
    metrics.duplicates_dropped.inc();
    return receiver_.make_ack(stream);
  }
  const net::ReliableReceiver::Outcome outcome =
      receiver_.on_envelope(stream, env.sequence);
  stats_.gaps_detected += outcome.new_gaps;

  // Latest-sequence-wins: a retransmitted or reordered older summary heals
  // the stream (acked above) but never regresses the hull's current view —
  // the merged state is a function of the summary set, not arrival order.
  if (env.sequence > state.applied_sequence) {
    state.applied_sequence = env.sequence;
    state.latest = env.summary;
    state.has_summary = true;
    if (!env.summary.ship_name.empty()) state.name = env.summary.ship_name;
    ++stats_.summaries_applied;
    metrics.summaries_applied.inc();
  } else {
    ++stats_.summaries_stale;
    metrics.summaries_stale.inc();
  }
  return outcome.ack;
}

void FleetServer::accept(const net::HeartbeatMessage& hb, SimTime at) {
  FleetMetrics& metrics = FleetMetrics::instance();
  std::lock_guard lock(mu_);
  // The heartbeat's DcId field carries the hull's stream id (see
  // fleet_summary.hpp): same beacon type, one tier up.
  ShipState& state = ships_[hb.dc.value()];
  note_ship_alive_locked(state, at);
  ++state.heartbeats;
  ++stats_.heartbeats;
  metrics.heartbeats.inc();
  stats_.gaps_detected += receiver_.on_advertised(hb.dc, hb.last_sequence);
}

void FleetServer::attach_to_network(net::SimNetwork& network,
                                    const std::string& endpoint_name) {
  {
    std::lock_guard lock(mu_);
    network_ = &network;
    endpoint_name_ = endpoint_name;
  }
  network.register_endpoint(endpoint_name, [this](const net::Message& message) {
    FleetMetrics& metrics = FleetMetrics::instance();
    // The ship-to-shore link is the most hostile hop in the system: decode
    // fail-soft, count what does not parse, never abort shore-side.
    const auto type = net::try_peek_type(message.payload);
    if (!type.has_value()) {
      std::lock_guard lock(mu_);
      ++stats_.malformed_dropped;
      metrics.malformed_dropped.inc();
      return;
    }
    switch (*type) {
      case net::MessageType::FleetSummaryEnvelopeMsg: {
        const auto env = net::try_unwrap_fleet_envelope(message.payload);
        if (!env.has_value()) {
          std::lock_guard lock(mu_);
          ++stats_.malformed_dropped;
          metrics.malformed_dropped.inc();
          return;
        }
        // Duplicates are re-acked too — the retransmission may mean our
        // previous ack was the datagram that got lost.
        const net::AckMessage ack = accept(*env, message.delivered_at);
        std::lock_guard lock(mu_);
        ships_[env->ship.value()].endpoint = message.from;
        if (network_ != nullptr) {
          network_->send(endpoint_name_, message.from, net::wrap(ack),
                         message.delivered_at);
          ++stats_.acks_sent;
        }
        break;
      }
      case net::MessageType::Heartbeat: {
        const auto hb = net::try_unwrap_heartbeat(message.payload);
        if (!hb.has_value()) {
          std::lock_guard lock(mu_);
          ++stats_.malformed_dropped;
          metrics.malformed_dropped.inc();
          return;
        }
        accept(*hb, message.delivered_at);
        {
          std::lock_guard lock(mu_);
          ships_[hb->dc.value()].endpoint = message.from;
        }
        break;
      }
      default: {
        // Shipboard traffic does not belong on the shore uplink.
        std::lock_guard lock(mu_);
        ++stats_.malformed_dropped;
        metrics.malformed_dropped.inc();
        break;
      }
    }
  });
}

bool FleetServer::send_command(ShipId ship, const net::CommandMessage& cmd,
                               SimTime at) {
  std::lock_guard lock(mu_);
  if (network_ == nullptr) return false;
  const auto it = ships_.find(ship.value());
  const std::string endpoint =
      (it != ships_.end() && !it->second.endpoint.empty())
          ? it->second.endpoint
          : "hull-" + std::to_string(ship.value());
  network_->send(endpoint_name_, endpoint, net::wrap(cmd), at);
  ++stats_.commands_sent;
  static telemetry::Counter& commands =
      telemetry::Registry::instance().counter("fleet.commands_sent");
  commands.inc();
  return true;
}

void FleetServer::update_liveness_locked(SimTime now) {
  for (auto& [ship, s] : ships_) {
    const SimTime silent = now - s.last_heard;
    const auto missed = static_cast<std::size_t>(
        silent.micros() / cfg_.summary_interval.micros());
    ShipLiveness verdict = ShipLiveness::Alive;
    if (missed >= cfg_.lost_after_missed) {
      verdict = ShipLiveness::Lost;
    } else if (missed >= cfg_.stale_after_missed) {
      verdict = ShipLiveness::Stale;
    }
    // Watchdog only degrades; note_ship_alive_locked handles recovery.
    if (verdict > s.liveness) {
      MPROS_LOG_WARN("fleet",
                     "ship %s (id %llu) %s -> %s: silent %.0f s (%zu intervals)",
                     s.name.c_str(), static_cast<unsigned long long>(ship),
                     to_string(s.liveness), to_string(verdict),
                     silent.seconds(), missed);
      s.liveness = verdict;
      ++stats_.liveness_transitions;
    }
  }
}

std::shared_ptr<const FleetSnapshot> FleetServer::build_snapshot_locked(
    SimTime now) const {
  auto snap = std::make_shared<FleetSnapshot>();
  snap->epoch = epoch_;
  snap->as_of = now;
  snap->ships_expected = ships_.size();
  snap->ships.reserve(ships_.size());

  // Pass 1: per-hull rows and the flat machine list.
  for (const auto& [id, s] : ships_) {
    ShipStatus row;
    row.ship = ShipId(id);
    row.name = s.name;
    row.liveness = s.liveness;
    row.last_sequence = s.applied_sequence;
    row.has_summary = s.has_summary;
    switch (s.liveness) {
      case ShipLiveness::Alive: ++snap->ships_alive; break;
      case ShipLiveness::Stale: ++snap->ships_stale; break;
      case ShipLiveness::Lost: ++snap->ships_lost; break;
    }
    if (s.has_summary) {
      const net::FleetSummary& sum = s.latest;
      row.last_summary_time = sum.timestamp;
      row.dcs_alive = sum.dcs_alive;
      row.dcs_stale = sum.dcs_stale;
      row.dcs_lost = sum.dcs_lost;
      row.quarantine_active = sum.quarantine_active;
      row.quarantine_total = sum.quarantine_total;
      snap->quarantine_active += sum.quarantine_active;
      snap->quarantine_total += sum.quarantine_total;
      double health_sum = 0.0;
      for (const net::MachineHealthSummary& m : sum.machines) {
        health_sum += m.health;
        FleetMaintenanceItem item;
        item.ship = row.ship;
        item.ship_name = s.name;
        item.machine = m.machine;
        item.machine_name = m.name;
        item.klass = m.klass;
        item.health = m.health;
        item.has_diagnosis = m.has_diagnosis;
        item.mode = m.top_mode;
        item.belief = m.top_belief;
        item.severity = m.top_severity;
        item.priority = m.priority;
        item.report_count = m.report_count;
        item.has_median_ttf = m.has_median_ttf;
        item.median_ttf = m.median_ttf;
        snap->items.push_back(std::move(item));
      }
      if (!sum.machines.empty()) {
        row.mean_health =
            health_sum / static_cast<double>(sum.machines.size());
      }
    }
    snap->ships.push_back(std::move(row));
  }

  // Pass 2: fleet-comparative baseline per sister-machine class. This is
  // the diagnosis no single hull can make — a machine unremarkable aboard
  // may still be the sickest of its class fleet-wide.
  std::map<std::string, std::vector<std::size_t>> by_klass;  // item indices
  for (std::size_t i = 0; i < snap->items.size(); ++i) {
    by_klass[snap->items[i].klass].push_back(i);
  }
  for (const auto& [klass, members] : by_klass) {
    if (members.size() < cfg_.min_fleet) continue;
    std::vector<double> values;
    values.reserve(members.size());
    for (const std::size_t i : members) {
      values.push_back(snap->items[i].health);
    }
    const RobustStats st = robust_stats(values);
    for (const std::size_t i : members) {
      FleetMaintenanceItem& item = snap->items[i];
      const double delta = item.health - st.med;
      item.fleet_z = delta / st.mad;
      // Only sicker-than-fleet flags; a machine healthier than its sisters
      // is good news, not a maintenance item.
      if (delta <= -kMinHealthDelta && item.fleet_z <= -kZThreshold) {
        item.fleet_outlier = true;
        FleetOutlier out;
        out.klass = klass;
        out.ship = item.ship;
        out.ship_name = item.ship_name;
        out.machine = item.machine;
        out.machine_name = item.machine_name;
        out.health = item.health;
        out.fleet_median = st.med;
        out.robust_z = item.fleet_z;
        snap->outliers.push_back(std::move(out));
      }
    }
  }

  // Pass 3: hull-level divergence from the fleet baseline.
  std::vector<double> hull_health;
  for (const ShipStatus& row : snap->ships) {
    if (row.has_summary) hull_health.push_back(row.mean_health);
  }
  if (hull_health.size() >= cfg_.min_fleet) {
    const RobustStats st = robust_stats(hull_health);
    for (ShipStatus& row : snap->ships) {
      if (!row.has_summary) continue;
      const double delta = row.mean_health - st.med;
      row.fleet_z = delta / st.mad;
      row.outlier_hull =
          delta <= -kMinHealthDelta && row.fleet_z <= -kZThreshold;
    }
  }

  // Worst first; (ship, machine) tie-break keeps the order deterministic
  // when priorities collide (e.g. a healthy fleet of all-zero priorities).
  std::sort(snap->items.begin(), snap->items.end(),
            [](const FleetMaintenanceItem& a, const FleetMaintenanceItem& b) {
              if (a.priority != b.priority) return a.priority > b.priority;
              if (a.health != b.health) return a.health < b.health;
              if (a.ship.value() != b.ship.value()) {
                return a.ship.value() < b.ship.value();
              }
              return a.machine.value() < b.machine.value();
            });
  std::sort(snap->outliers.begin(), snap->outliers.end(),
            [](const FleetOutlier& a, const FleetOutlier& b) {
              if (a.robust_z != b.robust_z) return a.robust_z < b.robust_z;
              if (a.ship.value() != b.ship.value()) {
                return a.ship.value() < b.ship.value();
              }
              return a.machine.value() < b.machine.value();
            });
  return snap;
}

void FleetServer::publish(SimTime now) {
  FleetMetrics& metrics = FleetMetrics::instance();
  std::shared_ptr<const FleetSnapshot> snap;
  {
    std::lock_guard lock(mu_);
    update_liveness_locked(now);
    ++epoch_;
    ++stats_.publishes;
    snap = build_snapshot_locked(now);
  }
  metrics.publishes.inc();
  metrics.ships_alive.set(static_cast<double>(snap->ships_alive));
  metrics.ships_lost.set(static_cast<double>(snap->ships_lost));
  metrics.outliers.set(static_cast<double>(snap->outliers.size()));
  // The merge barrier's single visible effect: one pointer swap readers
  // pick up wholesale. No reader ever sees a half-built view. The epoch
  // gate is stored second, so a reader that observes the new epoch is
  // guaranteed at least this snapshot from the pointer copy. The old view
  // is released outside the lock.
  const std::uint64_t epoch = snap->epoch;
  {
    std::lock_guard lock(published_mu_);
    published_.swap(snap);
  }
  published_epoch_.store(epoch, std::memory_order_release);
}

ShipLiveness FleetServer::ship_liveness(ShipId ship) const {
  std::lock_guard lock(mu_);
  const auto it = ships_.find(ship.value());
  return it == ships_.end() ? ShipLiveness::Alive : it->second.liveness;
}

std::string FleetServer::render(const FleetSnapshot& snap,
                                std::size_t max_items) {
  // No epoch, no duplicate/stale counters: everything rendered is a
  // function of the applied summary set and the watchdog clock, so the
  // same set yields the same bytes regardless of arrival order.
  std::string out;
  out += "=== Fleet status";
  append(out, " (as of %.0f s) ===\n", snap.as_of.seconds());
  append(out, "ships: %zu expected, %zu alive, %zu stale, %zu lost\n",
         snap.ships_expected, snap.ships_alive, snap.ships_stale,
         snap.ships_lost);
  append(out, "quarantine: %u active channels, %llu reports filed\n",
         snap.quarantine_active,
         static_cast<unsigned long long>(snap.quarantine_total));
  for (const ShipStatus& s : snap.ships) {
    append(out, "  [%llu] %-18s %-5s",
           static_cast<unsigned long long>(s.ship.value()), s.name.c_str(),
           to_string(s.liveness));
    if (s.has_summary) {
      append(out, " health=%.3f dcs=%u/%u/%u q=%u", s.mean_health, s.dcs_alive,
             s.dcs_stale, s.dcs_lost, s.quarantine_active);
      if (s.outlier_hull) append(out, " FLEET-OUTLIER z=%.2f", s.fleet_z);
    } else {
      out += " (no summary)";
    }
    out += "\n";
  }
  if (!snap.outliers.empty()) {
    out += "--- Fleet outliers (sister-machine baseline) ---\n";
    for (const FleetOutlier& o : snap.outliers) {
      append(out, "  %s: %s/%s health=%.3f vs fleet median %.3f (z=%.2f)\n",
             o.klass.c_str(), o.ship_name.c_str(), o.machine_name.c_str(),
             o.health, o.fleet_median, o.robust_z);
    }
  }
  out += "--- Cross-fleet maintenance priorities ---\n";
  std::size_t shown = 0;
  for (const FleetMaintenanceItem& item : snap.items) {
    if (shown >= max_items) break;
    if (!item.has_diagnosis && !item.fleet_outlier) continue;
    append(out, "  %2zu. %s/%s [%s] health=%.3f", ++shown,
           item.ship_name.c_str(), item.machine_name.c_str(),
           item.klass.c_str(), item.health);
    if (item.has_diagnosis) {
      append(out, " %s belief=%.2f sev=%.2f prio=%.3f (%u rpts)",
             domain::to_string(item.mode), item.belief, item.severity,
             item.priority, item.report_count);
    }
    if (item.has_median_ttf) {
      append(out, " ttf=%.1fh", item.median_ttf.hours());
    }
    if (item.fleet_outlier) append(out, " FLEET-OUTLIER z=%.2f", item.fleet_z);
    out += "\n";
  }
  if (shown == 0) out += "  (none)\n";
  return out;
}

std::string FleetServer::render_fleet_view(std::size_t max_items) const {
  return render(*snapshot(), max_items);
}

net::ReliableReceiver::Stats FleetServer::receiver_stats() const {
  std::lock_guard lock(mu_);
  return receiver_.snapshot();
}

std::uint64_t FleetServer::cumulative(ShipId ship) const {
  std::lock_guard lock(mu_);
  return receiver_.cumulative(DcId(ship.value()));
}

FleetServer::Stats FleetServer::stats_snapshot() const {
  std::lock_guard lock(mu_);
  return stats_;
}

}  // namespace mpros::fleet
