#pragma once
// ShipSystem: the assembled MPROS deployment (Fig 1, end to end).
//
// N chiller plants, each instrumented by a Data Concentrator, all reporting
// over the simulated ship's network to one PDME with its OOSM. The fleet's
// DCs run their duty cycles on a thread pool (the embedded-HPC angle: each
// DC is an independent processor; only serialized reports cross between
// them and the PDME).

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mpros/common/thread_pool.hpp"
#include "mpros/db/durable.hpp"
#include "mpros/dc/data_concentrator.hpp"
#include "mpros/dc/supervisor.hpp"
#include "mpros/mpros/wnn_training.hpp"
#include "mpros/net/fleet_summary.hpp"
#include "mpros/net/network.hpp"
#include "mpros/net/reliable.hpp"
#include "mpros/oosm/persistence.hpp"
#include "mpros/oosm/ship_builder.hpp"
#include "mpros/pdme/pdme.hpp"
#include "mpros/pdme/resident.hpp"
#include "mpros/plant/chiller.hpp"
#include "mpros/telemetry/metrics.hpp"
#include "mpros/telemetry/recorder.hpp"

namespace mpros {

/// Ship-to-shore uplink: this hull's membership in the fleet tier. When
/// enabled, the ship distills its PDME state into a FleetSummary at every
/// summary cadence boundary and seals it in the reliable stream; the fleet
/// assembler moves the sealed datagrams onto the shore network.
struct UplinkConfig {
  bool enabled = false;
  ShipId ship = ShipId(1);
  std::string name;        ///< hull display name; empty = the OOSM ship name
  /// Shore-network endpoint this hull answers acks on; empty =
  /// "hull-<ship>".
  std::string endpoint;
  SimTime summary_period = SimTime::from_seconds(600.0);
  SimTime heartbeat_period = SimTime::from_seconds(300.0);
  /// The ship-to-shore link is slower and more hostile than the shipboard
  /// LAN; the retransmit window is tuned separately from the DCs'.
  net::ReliableConfig reliable;
};

struct ShipSystemConfig {
  std::size_t plant_count = 4;
  dc::DcConfig dc_template;           ///< id is assigned per DC
  net::NetworkConfig network;
  pdme::PdmeConfig pdme;
  double initial_load = 0.8;
  std::uint64_t seed = 0x5417;
  /// DC pool size: 0 = hardware concurrency, 1 = the calling thread.
  std::size_t worker_threads = 0;
  bool use_wnn = false;               ///< train & share a WNN classifier
  WnnTrainingConfig wnn_training;
  /// Run the PDME-resident fleet-comparative analyzer (§5.7) once per
  /// advance_to() step.
  bool enable_fleet_analyzer = false;
  pdme::FleetAnalyzerConfig fleet_analyzer;
  /// Journal every delivered datagram (plus notable DC events) into a
  /// bounded flight recorder (FlightRecorder's default capacity); dump with
  /// flight_recorder()->dump(path) and replay with mpros::replay_file /
  /// tools/mpros_replay.
  bool enable_flight_recorder = false;
  /// Fleet-tier membership (off by default: a lone ship has no shore).
  UplinkConfig uplink;
  /// Supervised DC recovery (§4.9), always on: watch every DC's progress
  /// tick each step; a DC that stops ticking for supervisor.wedge_timeout
  /// is unwedged in place, then caught up slice-by-slice through the
  /// recorded step grid so its output matches an unwedged run.
  dc::DcSupervisorConfig supervisor;
  /// Durable OOSM (§4.6, "managed entirely in the background" — but
  /// crash-safe): journal the object model, each DC's applied runtime
  /// config, and the PDME's DC-liveness records into a write-ahead log
  /// under durability.directory, group-committed (one fsync) at every
  /// advance_to() barrier. Constructing a ShipSystem over a directory
  /// that already holds a committed run *recovers* it: the model comes
  /// back from snapshot + WAL replay and the clock resumes at the last
  /// committed barrier, with browser/ICAS output identical to the crashed
  /// run's at that instant.
  bool enable_durability = false;
  db::DurabilityConfig durability;
};

class ShipSystem {
 public:
  explicit ShipSystem(ShipSystemConfig cfg = ShipSystemConfig());

  [[nodiscard]] std::size_t plant_count() const { return plants_.size(); }
  [[nodiscard]] plant::ChillerSimulator& chiller(std::size_t plant);
  [[nodiscard]] dc::DataConcentrator& concentrator(std::size_t plant);
  [[nodiscard]] const oosm::ChillerPlant& plant_objects(
      std::size_t plant) const;

  [[nodiscard]] pdme::PdmeExecutive& pdme() { return *pdme_; }
  [[nodiscard]] pdme::FleetComparativeAnalyzer* fleet_analyzer() {
    return resident_ ? resident_.get() : nullptr;
  }
  [[nodiscard]] oosm::ObjectModel& model() { return model_; }
  [[nodiscard]] net::SimNetwork& network() { return network_; }
  [[nodiscard]] const oosm::ShipModel& ship() const { return ship_; }

  /// Advance the whole system to absolute simulated time `t`: every DC runs
  /// its due tests (in parallel across the pool), reports travel the
  /// network, and the PDME fuses what arrives. Returns the number of
  /// reports the PDME received in this step.
  std::size_t advance_to(SimTime t);

  /// Convenience: advance in fixed steps until `end`.
  std::size_t run_until(SimTime end, SimTime step = SimTime::from_seconds(60));

  [[nodiscard]] SimTime now() const { return now_; }

  /// Control plane: stamp and queue a runtime-reconfiguration command for
  /// one plant's DC on the PDME's reliable command stream. Returns the
  /// revision (DataConcentrator::config_revision() converges on it once the
  /// command is delivered and applied).
  std::uint64_t command_dc(
      std::size_t plant, std::vector<std::pair<std::string, double>> settings,
      std::string reason);

  /// Chaos hook: freeze/unfreeze one DC's driver loop (see
  /// DataConcentrator::set_wedged). The supervisor detects the frozen tick
  /// and restarts the DC during a later advance_to().
  void wedge_dc(std::size_t plant, bool wedged = true);

  [[nodiscard]] dc::DcSupervisor& supervisor() { return supervisor_; }

  /// Close the §6.1 believability loop: a maintainer opened the machine
  /// and either confirmed the fused conclusion or reversed it. Updates the
  /// originating DC's believability table, lowering (or restoring) the
  /// Belief field of its future reports for that condition, and clears the
  /// machine's fused state for a fresh start after maintenance.
  void record_maintenance_outcome(std::size_t plant,
                                  domain::FailureMode mode, bool confirmed);

  struct FleetStats {
    std::uint64_t samples_processed = 0;
    std::uint64_t reports_emitted = 0;
    std::uint64_t reports_fused = 0;
    net::NetworkStats network;
  };
  [[nodiscard]] FleetStats fleet_stats() const;

  /// Distill the PDME's fused state into the fleet-tier digest: rolled-up
  /// health per plant machine, top diagnosis, prognostic remaining life,
  /// DC-liveness counts, quarantine-ledger digest. Runs at the aggregation
  /// barrier (everything fused through `now` is visible), but callable any
  /// time for inspection.
  [[nodiscard]] net::FleetSummary fleet_summary(SimTime at) const;

  /// One sealed ship-to-shore datagram, ready for the shore network.
  struct UplinkDatagram {
    std::vector<std::uint8_t> payload;
    SimTime at;
  };

  /// Uplink traffic produced since the last drain (summary envelopes, due
  /// retransmissions, heartbeats), in emission order. Empty unless
  /// cfg.uplink.enabled. The fleet assembler forwards these to shore.
  [[nodiscard]] std::vector<UplinkDatagram> drain_uplink();

  /// Shore-to-ship datagrams (cumulative acks) land here; the fleet
  /// assembler registers this as the hull's shore-endpoint handler.
  void handle_uplink_wire(const net::Message& msg);

  /// Null unless cfg.uplink.enabled.
  [[nodiscard]] net::ReliableSender* uplink() { return uplink_.get(); }
  [[nodiscard]] const std::string& uplink_endpoint() const {
    return uplink_endpoint_;
  }

  /// Null unless cfg.enable_flight_recorder.
  [[nodiscard]] telemetry::FlightRecorder* flight_recorder() {
    return recorder_.get();
  }

  /// Null unless cfg.enable_durability. Gives tests/tools the recovery
  /// report and explicit checkpoint control; the db itself is the
  /// journal's — don't mutate it directly.
  [[nodiscard]] db::DurableDatabase* durable() { return durable_.get(); }

  /// True when construction found a committed prior run in the durability
  /// directory and resumed it (now() is the last committed barrier).
  [[nodiscard]] bool recovered() const { return recovered_; }

  /// Text dump of every registered telemetry metric (counters, gauges,
  /// latency histograms) — the operator's status page.
  [[nodiscard]] static std::string telemetry_text() {
    return telemetry::Registry::instance().render_text();
  }

 private:
  /// Serialize one DC's step products onto the wire in emission order:
  /// sealed report envelopes, sensor batches, then the wire outbox
  /// (retransmissions, heartbeats, command acks) at their own timestamps.
  void flush_dc(std::size_t i, const std::vector<net::FailureReport>& reports);
  /// Unwedge dc i, then catch it up through the recorded assembler-step
  /// boundaries ending at `t` (flushing per slice, so the seal/sweep
  /// interleaving matches an unwedged run).
  void restart_dc_to(std::size_t i, SimTime t);
  /// Drain dc i's events into the flight recorder (driver thread, DC order).
  void record_dc_events(std::size_t i);
  /// Upsert one (dc, key) row in the dc_config mirror table (no-op when
  /// the mirrored value is already current, so re-sent values don't bloat
  /// the WAL).
  void mirror_dc_setting(std::size_t i, const std::string& key, double value);
  /// Barrier-end group commit: mirror the PDME watchdog records and the
  /// committed-through clock, then fsync the window (with the config
  /// deltas advance_to() mirrored) as one WAL commit.
  void durable_commit(SimTime t);

  ShipSystemConfig cfg_;
  /// Declared before the model/journal so it outlives both on teardown.
  std::unique_ptr<db::DurableDatabase> durable_;
  oosm::ObjectModel model_;
  /// Mirrors model_ events into durable_'s db; destroyed first (declared
  /// last of the three) so it can unsubscribe from a live model.
  std::unique_ptr<oosm::DurableModelJournal> model_journal_;
  oosm::ShipModel ship_;
  net::SimNetwork network_;
  std::unique_ptr<telemetry::FlightRecorder> recorder_;
  std::unique_ptr<pdme::PdmeExecutive> pdme_;
  std::unique_ptr<pdme::FleetComparativeAnalyzer> resident_;
  std::vector<std::unique_ptr<plant::ChillerSimulator>> plants_;
  std::vector<std::unique_ptr<dc::DataConcentrator>> dcs_;
  ThreadPool pool_;
  SimTime now_;
  dc::DcSupervisor supervisor_;
  /// Recent advance_to() end-times: the step grid a recovered DC's catch-up
  /// replays. Pruned past twice the wedge timeout — wedges are detected
  /// well inside that.
  std::deque<SimTime> step_log_;
  SimTime step_horizon_;

  // Fleet-tier uplink state (driver thread only, except the sender's own
  // internal lock — acks may arrive from the shore network's driver).
  std::unique_ptr<net::ReliableSender> uplink_;
  std::string uplink_endpoint_;
  std::vector<UplinkDatagram> uplink_outbox_;
  SimTime next_summary_due_;
  SimTime next_heartbeat_due_;

  // Durability bookkeeping (driver thread only).
  bool recovered_ = false;
  /// dc_config mirror row keys by (dc index, setting key); rebuilt from
  /// the table on recovery.
  std::map<std::pair<std::size_t, std::string>, std::int64_t> dc_config_rows_;
};

}  // namespace mpros
