#pragma once
// The Prognostic/Diagnostic Monitoring Engine (paper §3.1).
//
// "The PDME is the logical center of the MPROS system. Diagnostic and
// prognostic conclusions are collected from DC-resident algorithms ...
// Fusion of conflicting and reinforcing source conclusions is performed to
// form a prioritized list for the use of maintenance personnel."
//
// Report flow follows §5.1's four steps, all inside submit(), the one road
// into fusion:
//  1. each fresh report is posted into the OOSM report log (a Report object
//     that RefersTo the sensed machine; the OOSM still announces it to
//     listeners such as the durable journal),
//  2. the executive hands the same in-hand report to Knowledge Fusion,
//  3. KF fuses diagnostics (Dempster-Shafer per logical group) and
//     prognostics (conservative envelope),
//  4. the fused conclusions drive the prioritized list and the browser.
// A Report object someone builds by hand with create_object() is only an
// object: it is stored and persisted, never fused.
//
// Everything runs on the driver thread: submit() posts each fresh report,
// fuses it in the executive's FusionCore and sends any retest command it
// earns before returning, so every query sees the report at once.

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mpros/net/messages.hpp"
#include "mpros/net/network.hpp"
#include "mpros/net/reliable.hpp"
#include "mpros/oosm/object_model.hpp"
#include "mpros/pdme/fusion_core.hpp"

namespace mpros::pdme {

/// Watchdog verdict on one DC's report stream.
enum class DcLiveness : std::uint8_t { Alive = 0, Stale, Lost };

[[nodiscard]] const char* to_string(DcLiveness liveness);

struct DcHealth {
  DcLiveness liveness = DcLiveness::Alive;
  SimTime last_heard;           ///< newest report/heartbeat/sensor arrival
  std::uint64_t heartbeats = 0;
};

class PdmeExecutive {
 public:
  /// `model` must outlive the executive.
  explicit PdmeExecutive(oosm::ObjectModel& model, PdmeConfig cfg = {});

  PdmeExecutive(const PdmeExecutive&) = delete;
  PdmeExecutive& operator=(const PdmeExecutive&) = delete;

  /// What one submit() span did. Counters are per report, so a caller can
  /// conserve its own ledger: accepted + duplicates == span size.
  struct SubmitOutcome {
    /// Reports posted and handed to fusion (a malformed one among them is
    /// also counted in Stats::malformed_dropped).
    std::size_t accepted = 0;
    /// Reports dropped as retransmissions: what Stats::duplicates_dropped
    /// gained.
    std::size_t duplicates = 0;
    /// The last report object posted (nullopt when every report in the
    /// span was a duplicate).
    std::optional<ObjectId> last_object;
  };

  /// THE ingest entry point: every report path — a decoded ReportBatch,
  /// the wire adapter, replay, resident analyzers — funnels through here.
  /// Each fresh report is posted into the OOSM report log and fused.
  /// Each contiguous run sharing a nonzero (dc, sequence) is one sequenced
  /// datagram: a duplicate run is dropped whole (the retransmitted batch
  /// was already fused), a fresh run is ingested and commits exactly one
  /// sequence number on the DC's reliable stream. Elements with
  /// sequence == 0 are unsequenced reports. Acks are the wire
  /// adapter's job — submit() itself never touches the network.
  SubmitOutcome submit(std::span<const net::ReportEnvelope> reports);

  /// Post a sensor-data batch: values land as properties on the machine's
  /// OOSM object (the §1 open-interface flow), where the browser and a
  /// durable journal see them. A batch whose machine is unknown or a
  /// logged report is counted and dropped.
  void accept(const net::SensorDataMessage& data);

  /// Post a DC liveness beacon delivered at `at`: refreshes the watchdog,
  /// counts the beat, and checks the advertised tail sequence for loss the
  /// envelope stream alone cannot reveal. Replay uses this to rebuild the
  /// live run's DC-health ledger from recorded frames.
  void accept(const net::HeartbeatMessage& hb, SimTime at);

  /// Does nothing: ingest is synchronous, so every query is already
  /// consistent. Kept for callers written against a barrier API.
  void synchronize() {}

  /// Record that any datagram from `dc` arrived at `at` (restores a
  /// Stale/Lost DC to Alive). The network adapter calls this for every
  /// well-formed arrival; replay calls it per recorded frame.
  void note_dc_alive(DcId dc, SimTime at);

  /// Wire adapter: register this executive as the "pdme" endpoint on the
  /// simulated ship network. Malformed payloads are counted, not fatal.
  void attach_to_network(net::SimNetwork& network,
                         const std::string& endpoint_name = "pdme");

  /// Declare a DC the watchdog must supervise from `since` on; without
  /// this, a DC partitioned before its first datagram would never be
  /// missed. The assembler registers every DC at construction.
  void expect_dc(DcId dc, SimTime since);

  /// Run the liveness watchdog at `now`: DCs silent past the configured
  /// missed-interval thresholds transition to Stale/Lost (logged). This is
  /// the PDME's per-window barrier hook, so it also sets the size gauges
  /// oosm.report_records, oosm.report_text_bytes and pdme.dedup_entries.
  void update_liveness(SimTime now);

  [[nodiscard]] DcLiveness dc_liveness(DcId dc) const;
  [[nodiscard]] const std::map<std::uint64_t, DcHealth>& dc_health() const {
    return dc_health_;
  }

  /// Per-DC reliable-stream state (gap bookkeeping, cumulative acks).
  [[nodiscard]] const net::ReliableReceiver& receiver() const {
    return receiver_;
  }

  /// Control plane: stamp the next per-DC revision on `settings` and queue
  /// the command on that DC's reliable command stream (acked, retransmitted
  /// with backoff by sweep_commands()) so a partitioned or restarting DC
  /// still converges on the newest configuration. Returns the stamped
  /// revision. Works before attach_to_network(): the command waits in the
  /// retransmit window until a sweep finds the wire.
  std::uint64_t send_command(
      DcId dc, std::vector<std::pair<std::string, double>> settings,
      std::string reason, SimTime at);

  /// Drive the per-DC command retransmit windows at `now` (the assembler
  /// calls this once per step; the PDME has no scheduler of its own).
  void sweep_commands(SimTime now);

  [[nodiscard]] std::vector<SensorFaultRecord> sensor_faults(
      bool active_only = true) const;

  /// The prioritized list (§3.1), most urgent first. Derived state the
  /// FusionCore keeps: the first read after a fuse or reset rebuilds it,
  /// every later read returns it as it is. The reference stays valid and
  /// unchanged until the next submit(), reset_machine() or
  /// rebuild_from_model(); copy the list to keep it across one. A read may
  /// rebuild that cache, so like every other call it belongs on the driver
  /// thread: two threads must not read one executive's list at once, even
  /// though the method is const.
  [[nodiscard]] const std::vector<MaintenanceItem>& prioritized_list() const;
  /// One machine's slice of the list, built on each call.
  [[nodiscard]] std::vector<MaintenanceItem> prioritized_list(
      ObjectId machine) const;

  /// Fused prognostic curve for one (machine, mode), if any prognostic
  /// reports arrived.
  [[nodiscard]] std::optional<fusion::PrognosticVector> prognosis(
      ObjectId machine, domain::FailureMode mode) const;

  /// §10.1: the data-driven prognostic curve projected from the severity
  /// trend of this mode's reports (horizons relative to the latest report).
  [[nodiscard]] fusion::PrognosticVector trend_prognosis(
      ObjectId machine, domain::FailureMode mode) const;

  /// Dempster-Shafer state for a machine's logical group.
  [[nodiscard]] fusion::GroupState group_state(
      ObjectId machine, domain::LogicalGroup group) const;

  /// Reports fused for one machine since its last reset, arrival order,
  /// read from the OOSM report log. The same after crash recovery as live,
  /// additional_info included.
  [[nodiscard]] std::vector<net::FailureReport> reports_for(
      ObjectId machine) const;

  /// Every field is a monotonic counter (gauges — inflight windows — live
  /// in the telemetry registry, not here). Report-level and datagram-level
  /// counters are distinct: envelopes_accepted /
  /// duplicate_envelopes count sequenced datagrams (a whole batch is one),
  /// reports_accepted / duplicates_dropped count the reports inside them.
  struct Stats {
    std::uint64_t reports_accepted = 0;
    std::uint64_t duplicates_dropped = 0;
    std::uint64_t malformed_dropped = 0;
    std::uint64_t fusion_updates = 0;
    std::uint64_t sensor_batches = 0;
    std::uint64_t retests_commanded = 0;
    std::uint64_t envelopes_accepted = 0;
    /// Sequenced datagrams dropped whole as retransmissions (each may have
    /// carried many reports — those land in duplicates_dropped).
    std::uint64_t duplicate_envelopes = 0;
    /// ReportBatch datagrams decoded off the wire, and the reports they
    /// carried (batched_reports / batches_received = realized batch size).
    std::uint64_t batches_received = 0;
    std::uint64_t batched_reports = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t gaps_detected = 0;
    std::uint64_t heartbeats_received = 0;
    std::uint64_t sensor_fault_reports = 0;
    std::uint64_t liveness_transitions = 0;  ///< Alive<->Stale<->Lost edges
    std::uint64_t commands_sent = 0;  ///< control-plane commands queued
    std::uint64_t command_acks = 0;   ///< DC acks routed to command streams

    friend bool operator==(const Stats&, const Stats&) = default;
  };
  /// The counters, by value. Each field with a pdme.* registry counter
  /// moves with it.
  [[nodiscard]] Stats snapshot() const { return stats_; }

  [[nodiscard]] oosm::ObjectModel& model() { return model_; }
  [[nodiscard]] const oosm::ObjectModel& model() const { return model_; }

  /// Forget everything known about a machine (post-maintenance reset). The
  /// reset is recorded in the OOSM as a report watermark, so a durable
  /// journal persists it and rebuild_from_model() honours it.
  void reset_machine(ObjectId machine);

  /// Disaster recovery (§4.9 "long-term unattended operation"): rebuild
  /// fusion state from the reports persisted in the OOSM report log
  /// (hand-built Report objects were never fused, so they are skipped).
  /// Call on a freshly constructed executive over a reloaded model; reports
  /// are re-fused in creation order — the order the live executive posted
  /// them, which Persistence::load preserves — so the Dempster-Shafer
  /// floating-point folds replay bit-identically (a timestamp sort would
  /// reorder same-stamp reports and perturb the folds at the last ulp).
  /// Each machine's last maintenance reset replays at its watermark, so the
  /// reports it cleared stay cleared. Returns how many were re-fused.
  std::size_t rebuild_from_model();

  /// Restore one DC's watchdog record from persisted state (crash
  /// recovery only — the browser renders last-heard/heartbeats, so a
  /// recovered ship must report the values the crashed one had).
  void restore_dc_health(DcId dc, const DcHealth& health);

  /// Seed the §5.8 command-revision counter for one DC (crash recovery
  /// only): the DC rejects any revision at or below its applied one, so a
  /// recovered PDME must resume stamping past the last revision the
  /// crashed run durably applied. Keeps the larger of the two.
  void restore_command_revision(DcId dc, std::uint64_t revision);

 private:
  using ModeKey = std::pair<std::uint64_t, domain::FailureMode>;

  /// Count one logged report, fuse it (malformed conditions are counted
  /// and dropped) and send the retest command it earned.
  void fuse(const net::FailureReport& report, std::uint32_t log_index);
  /// Backoff-filter and send one retest command.
  void send_retest(const PendingRetest& pending);
  /// Wire adapter body: false when the datagram does not parse.
  bool deliver(const net::Message& message);

  oosm::ObjectModel& model_;
  PdmeConfig cfg_;
  net::SimNetwork* network_ = nullptr;  // set by attach_to_network
  std::string endpoint_name_;
  std::map<ModeKey, SimTime> last_retest_;

  FusionCore core_;
  /// Wire-decode arena: batch datagrams decode into this vector, reusing
  /// its slots (and their strings/vectors) across datagrams so steady-state
  /// ingest performs no per-report allocation in the decoder.
  std::vector<net::ReportEnvelope> decode_arena_;
  net::ReliableReceiver receiver_;
  /// Control plane: one reliable command stream + revision counter per DC
  /// (unique_ptr because ReliableSender pins a mutex).
  std::map<std::uint64_t, std::unique_ptr<net::ReliableSender>>
      command_senders_;
  std::map<std::uint64_t, std::uint64_t> command_revisions_;
  std::map<std::uint64_t, DcHealth> dc_health_;  // by DcId value
  Stats stats_;
};

}  // namespace mpros::pdme
