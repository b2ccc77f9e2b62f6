#pragma once
// The shore-side fleet tier: hierarchical fusion across hundreds of ships.
//
// The paper's architecture ends at one PDME per hull; its fleet-comparative
// analyzer (§5.7) only pays off when sister machines are compared *across*
// hulls — the fleet-level CBM layer the prognostics literature frames above
// per-asset health (Taheri & Kolmanovsky, arXiv:1912.02708). The
// FleetServer ingests compact FleetSummary digests from N ships over the
// reliable ship-to-shore link, supervises per-ship liveness with the PR 3
// watchdog idiom (Alive -> Stale -> Lost on missed summary intervals), runs
// the comparative baseline across sister machine classes fleet-wide, and
// serves a prioritized cross-fleet maintenance view.
//
// Read path — the millions-of-users story: every query reads an immutable
// FleetSnapshot published by copy-on-write at the server's merge barrier
// (publish()). Ingest mutates private state under an internal mutex that
// readers never touch; publish() builds a fresh snapshot and swaps one
// pointer under a second, tiny mutex. Readers gate on an atomic epoch and
// take that mutex only when the epoch moves, so thousands of concurrent
// browser/ICAS-style readers never contend with ingest — E19 measures
// exactly that.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mpros/common/clock.hpp"
#include "mpros/common/ids.hpp"
#include "mpros/net/fleet_summary.hpp"
#include "mpros/net/network.hpp"
#include "mpros/net/reliable.hpp"

namespace mpros::fleet {

/// Watchdog verdict on one hull's summary stream (PR 3 idiom, one tier up).
enum class ShipLiveness : std::uint8_t { Alive = 0, Stale, Lost };

[[nodiscard]] const char* to_string(ShipLiveness liveness);

struct FleetServerConfig {
  /// The summary cadence ships are expected to hold. A hull silent for
  /// `stale_after_missed` intervals is Stale, for `lost_after_missed`
  /// intervals Lost; any summary or heartbeat restores Alive.
  SimTime summary_interval = SimTime::from_seconds(600.0);
  std::size_t stale_after_missed = 2;
  std::size_t lost_after_missed = 4;

  /// Fleet-comparative baseline: minimum sister machines (across hulls,
  /// same equipment class) before a comparison is made.
  std::size_t min_fleet = 3;
};

/// One hull's standing in the published view.
struct ShipStatus {
  ShipId ship;
  std::string name;
  ShipLiveness liveness = ShipLiveness::Alive;
  SimTime last_summary_time;   ///< ship-side timestamp of the applied summary
  std::uint64_t last_sequence = 0;  ///< newest summary sequence applied
  bool has_summary = false;

  // Digest fields copied from the latest summary.
  std::uint32_t dcs_alive = 0;
  std::uint32_t dcs_stale = 0;
  std::uint32_t dcs_lost = 0;
  std::uint32_t quarantine_active = 0;
  std::uint64_t quarantine_total = 0;

  double mean_health = 1.0;    ///< mean machine health aboard
  /// Hull divergence from the fleet baseline (robust z of mean_health
  /// across hulls; negative = worse than fleet).
  double fleet_z = 0.0;
  bool outlier_hull = false;
};

/// One line of the prioritized cross-fleet maintenance view.
struct FleetMaintenanceItem {
  ShipId ship;
  std::string ship_name;
  ObjectId machine;            ///< ship-local id; (ship, machine) is unique
  std::string machine_name;
  std::string klass;
  double health = 1.0;
  bool has_diagnosis = false;
  domain::FailureMode mode{};
  double belief = 0.0;
  double severity = 0.0;
  double priority = 0.0;       ///< primary sort key, descending
  std::uint32_t report_count = 0;
  bool has_median_ttf = false;
  SimTime median_ttf;
  /// Divergence of this machine from its fleet-wide class baseline.
  double fleet_z = 0.0;
  bool fleet_outlier = false;
};

/// A sister-machine class outlier: one machine markedly sicker than the
/// fleet-wide population of its class — a diagnosis no single hull can make.
struct FleetOutlier {
  std::string klass;
  ShipId ship;
  std::string ship_name;
  ObjectId machine;
  std::string machine_name;
  double health = 1.0;
  double fleet_median = 1.0;
  double robust_z = 0.0;
};

/// Immutable published view. Readers hold a shared_ptr to it; the server
/// never mutates a snapshot after publication.
struct FleetSnapshot {
  std::uint64_t epoch = 0;     ///< increments per publish()
  SimTime as_of;               ///< shore time of the publishing barrier

  std::size_t ships_expected = 0;
  std::size_t ships_alive = 0;
  std::size_t ships_stale = 0;
  std::size_t ships_lost = 0;
  std::uint32_t quarantine_active = 0;  ///< fleet-wide digest totals
  std::uint64_t quarantine_total = 0;

  std::vector<ShipStatus> ships;              ///< ascending ship id
  std::vector<FleetMaintenanceItem> items;    ///< priority order, worst first
  std::vector<FleetOutlier> outliers;         ///< class-baseline outliers
};

class FleetServer {
 public:
  explicit FleetServer(FleetServerConfig cfg = {});

  /// Declare a hull the watchdog must supervise from `since` on; without
  /// this, a ship partitioned before its first summary would never be
  /// missed. The fleet assembler registers every hull at construction.
  void expect_ship(ShipId ship, std::string name, SimTime since);

  /// Ingest one summary envelope delivered at shore time `at`. Returns the
  /// cumulative ack to send back up the hull's stream. Duplicates re-ack
  /// without touching fleet state; older-than-applied sequences heal stream
  /// gaps but do not regress the hull's latest summary, so the merged view
  /// is a function of the summary *set*, not of arrival order.
  net::AckMessage accept(const net::FleetSummaryEnvelope& env, SimTime at);

  /// Ship liveness beacon: refreshes the watchdog and checks the
  /// advertised tail sequence for loss the envelope stream cannot reveal.
  void accept(const net::HeartbeatMessage& hb, SimTime at);

  /// Wire adapter: register as the shore endpoint (acks flow back to
  /// "hull-<ship>"). Malformed payloads are counted, never fatal.
  void attach_to_network(net::SimNetwork& network,
                         const std::string& endpoint_name = "fleet");

  /// The merge barrier: run the liveness watchdog at `now`, recompute the
  /// fleet-comparative baselines, and publish a fresh snapshot epoch. The
  /// only writer of the published pointer.
  void publish(SimTime now);

  /// The newest published view: a pointer copy under the publication
  /// mutex, which ingest never holds. Never null (an empty epoch-0
  /// snapshot exists from construction).
  [[nodiscard]] std::shared_ptr<const FleetSnapshot> snapshot() const {
    std::lock_guard lock(published_mu_);
    return published_;
  }

  /// Epoch of the most recently published snapshot. Hot readers gate on
  /// this plain atomic and call snapshot() only when it advances, so a
  /// dashboard polling at high rate pins one snapshot and takes the
  /// publication mutex once per publish, not once per read. Published
  /// after the snapshot store: once a reader observes epoch E here,
  /// snapshot() returns a view at least as new as E.
  [[nodiscard]] std::uint64_t published_epoch() const noexcept {
    return published_epoch_.load(std::memory_order_acquire);
  }

  /// Epoch-gated refresh for hot read loops: reload only when the
  /// published epoch moved past `snap`'s, otherwise leave `snap` pinned.
  /// Returns true when `snap` was refreshed.
  bool refresh(std::shared_ptr<const FleetSnapshot>& snap) const {
    if (snap != nullptr && published_epoch() == snap->epoch) return false;
    snap = snapshot();
    return true;
  }

  [[nodiscard]] ShipLiveness ship_liveness(ShipId ship) const;

  /// Text rendering of a snapshot: the shore operator's maintenance page.
  /// Deliberately free of arrival-order-sensitive counters (duplicates,
  /// epoch), so the rendered view is byte-identical however the same
  /// summary set arrived — the disorder property test's contract.
  [[nodiscard]] static std::string render(const FleetSnapshot& snap,
                                          std::size_t max_items = 20);
  [[nodiscard]] std::string render_fleet_view(std::size_t max_items = 20) const;

  /// Per-hull reliable-stream state (gap bookkeeping, cumulative acks).
  [[nodiscard]] net::ReliableReceiver::Stats receiver_stats() const;
  [[nodiscard]] std::uint64_t cumulative(ShipId ship) const;

  /// Shore-side control plane: fire one runtime-reconfiguration command down
  /// `ship`'s uplink endpoint (learned from its traffic; "hull-<id>" until
  /// the first arrival). Fire-and-forget on the shore hop — the hull
  /// re-issues it on its shipboard PDME->DC reliable stream, which owns the
  /// acks, retransmits and revision stamping. Returns false with no network
  /// attached.
  bool send_command(ShipId ship, const net::CommandMessage& cmd, SimTime at);

  struct Stats {
    std::uint64_t summaries_applied = 0;   ///< advanced a hull's latest view
    std::uint64_t summaries_stale = 0;     ///< accepted but older than applied
    std::uint64_t duplicates_dropped = 0;
    std::uint64_t malformed_dropped = 0;
    std::uint64_t heartbeats = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t gaps_detected = 0;
    std::uint64_t liveness_transitions = 0;
    std::uint64_t publishes = 0;
    std::uint64_t commands_sent = 0;  ///< control-plane downlinks fired

    friend bool operator==(const Stats&, const Stats&) = default;
  };
  /// Coherent copy of the server's counters, taken under the server lock.
  /// All fields are monotonic (never regress); instantaneous state lives on
  /// snapshot()/liveness accessors. Named stats_snapshot() rather than the
  /// fleet-wide snapshot() convention because snapshot() here is the
  /// published FleetSnapshot epoch accessor.
  [[nodiscard]] Stats stats_snapshot() const;

 private:
  struct ShipState {
    std::string name;
    std::string endpoint;       ///< shore-network address, learned from traffic
    SimTime since;              ///< supervised from here on
    SimTime last_heard;         ///< newest arrival (summary or heartbeat)
    ShipLiveness liveness = ShipLiveness::Alive;
    std::uint64_t applied_sequence = 0;
    std::uint64_t heartbeats = 0;
    bool has_summary = false;
    net::FleetSummary latest;
  };

  void note_ship_alive_locked(ShipState& state, SimTime at);
  void update_liveness_locked(SimTime now);
  [[nodiscard]] std::shared_ptr<const FleetSnapshot> build_snapshot_locked(
      SimTime now) const;

  const FleetServerConfig cfg_;
  mutable std::mutex mu_;      ///< ingest + publish; never taken by readers
  net::SimNetwork* network_ = nullptr;
  std::string endpoint_name_;
  net::ReliableReceiver receiver_;
  std::map<std::uint64_t, ShipState> ships_;  // by ShipId value
  std::uint64_t epoch_ = 0;
  Stats stats_;
  mutable std::mutex published_mu_;  ///< guards published_ only
  std::shared_ptr<const FleetSnapshot> published_;
  std::atomic<std::uint64_t> published_epoch_{0};
};

}  // namespace mpros::fleet
