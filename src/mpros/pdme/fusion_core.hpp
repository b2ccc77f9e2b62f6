#pragma once
// Per-machine knowledge-fusion state owned by the PDME executive. The
// executive handles everything that spans the ship — the OOSM, DC
// liveness, reliable-stream bookkeeping, the retest backoff ledger, every
// counter — and hands each accepted report to its FusionCore on the driver
// thread.
//
// A core holds the state that is independent per machine until the
// comparative/fleet layer: Dempster-Shafer group state, prognostic tracks,
// the per-machine report history index, the dedup index, and the
// sensor-fault quarantine ledger. Report contents live once, in the OOSM
// report log; the core keeps log indices into it. The prioritized list is
// derived from the group state and tracks and cached beside them.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "mpros/fusion/diagnostic_fusion.hpp"
#include "mpros/fusion/prognostic_fusion.hpp"
#include "mpros/fusion/trend.hpp"
#include "mpros/net/report.hpp"
#include "mpros/oosm/report_log.hpp"

namespace mpros::pdme {

/// One line of the prioritized maintenance list.
struct MaintenanceItem {
  ObjectId machine;
  domain::FailureMode mode{};
  double fused_belief = 0.0;     ///< Bel({mode}) from Dempster-Shafer
  double plausibility = 0.0;
  double max_severity = 0.0;     ///< worst severity reported for the mode
  double priority = 0.0;         ///< belief x severity, the sort key
  std::size_t report_count = 0;  ///< reports contributing to the group
  std::optional<SimTime> median_ttf;  ///< fused P(fail) reaches 0.5
  std::optional<SimTime> p90_ttf;     ///< fused P(fail) reaches 0.9
  /// §10.1 temporal reasoning: projected time-to-failure from the severity
  /// trend across this mode's report history (absent while the trend is
  /// flat, improving, or under-sampled).
  std::optional<SimTime> trend_ttf;
};

struct PdmeConfig {
  /// Drop exact duplicates (retransmissions) before they are posted: a
  /// report whose dc, knowledge source, sensed object, condition and
  /// timestamp equal a logged report's, and whose belief prints the same
  /// with "%.6f", is counted in duplicates_dropped and not fused
  /// (DedupIndex).
  bool deduplicate = true;

  /// Adaptive "closer look" (§6.3): when a fused report reaches
  /// kRetestSeverity while the group still carries real unknown mass, the
  /// PDME commands the originating DC to run an immediate vibration test.
  /// Requires attach_to_network(); at most one command per (machine, mode)
  /// per kRetestBackoff of report time.
  bool auto_retest = false;

  /// DC liveness supervision: the watchdog interval the DCs are expected to
  /// beat (matches DcConfig::heartbeat_period in the assembled system). A
  /// machinery space silent for `stale_after_missed` intervals is Stale,
  /// for `lost_after_missed` intervals Lost. Any report, heartbeat or
  /// sensor batch from the DC restores Alive.
  SimTime heartbeat_interval = SimTime::from_seconds(60.0);
  std::size_t stale_after_missed = 2;
  std::size_t lost_after_missed = 3;
};

/// Closer-look thresholds (PdmeConfig::auto_retest): the severity a report
/// must reach, and the unknown mass below which a group with more than one
/// report counts as corroborated and earns no retest.
inline constexpr double kRetestSeverity = 0.70;
inline constexpr double kRetestUnknown = 0.20;
/// Report time between two closer-look commands for one (machine, mode).
inline constexpr SimTime kRetestBackoff = SimTime::from_hours(1.0);

/// The latest word on each instrument channel the validators flagged:
/// severity > 0 = fault standing, 0 = cleared. Keyed by
/// (dc, sensed object, fault kind); newest report wins.
struct SensorFaultRecord {
  DcId dc;
  ObjectId object;
  domain::SensorFaultKind kind{};
  double severity = 0.0;
  SimTime at;
  std::string explanation;
};

/// An adaptive-retest candidate earned by one fuse. The per-machine checks
/// (severity threshold, corroboration) run in the core where the group
/// state lives; the executive applies the cross-machine backoff ledger and
/// sends the command right after the fuse.
struct PendingRetest {
  DcId dc;
  ObjectId machine;
  domain::FailureMode mode{};
  SimTime at;
};

/// Exact-duplicate (retransmission) detection over the report log. Two
/// reports are duplicates when their dc, knowledge source, sensed object,
/// condition and timestamp are equal and their beliefs print the same with
/// "%.6f". The set holds log indices and reads the keys from the log, so
/// it stores no string per report. Each slot also keeps 32 bits of its
/// key's hash: a probe reads the log only on a tag match, and grow()
/// re-places every slot from its tag alone.
class DedupIndex {
 public:
  explicit DedupIndex(const oosm::ReportLog& log) : log_(log) {}

  /// True when a logged report in the set is a duplicate of `report`.
  [[nodiscard]] bool contains(const net::FailureReport& report) const;
  /// One probe: false when a duplicate of `report` is in the set, else add
  /// `index`, the log index `report` is about to be posted at, and return
  /// true. The caller must post it there before the next call.
  bool claim(const net::FailureReport& report, std::uint32_t index);
  /// Add logged report `index`; a no-op when a duplicate is already in.
  void insert(std::uint32_t index);
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  struct Key {
    std::uint64_t dc, ks, sensed, condition;
    std::int64_t timestamp_us;
    double belief;
  };
  struct Slot {
    std::uint32_t index;  ///< log index, kEmpty when free
    std::uint32_t tag;    ///< tag_of() the key; also picks the home slot
  };
  static Key key_of(const net::FailureReport& r);
  [[nodiscard]] Key key_of(std::uint32_t index) const;
  static std::uint32_t tag_of(const Key& k);
  static bool same(const Key& a, const Key& b);
  /// Slot of `k`'s duplicate, or of the empty slot where it would go.
  [[nodiscard]] std::size_t probe(const Key& k, std::uint32_t tag) const;
  /// Add `index` under `k` unless a duplicate is in; true when added.
  bool insert(const Key& k, std::uint32_t index);
  void grow();

  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  const oosm::ReportLog& log_;
  std::vector<Slot> slots_;  ///< open addressing, power of two
  std::size_t size_ = 0;
};

class FusionCore {
 public:
  /// `log` is the OOSM report log the executive posts into; it must
  /// outlive the core.
  FusionCore(const PdmeConfig& cfg, const oosm::ReportLog& log)
      : cfg_(cfg), log_(log), dedup_(log) {}

  /// Dedup bookkeeping over logged reports: claim() is the ingest gate
  /// (DedupIndex::claim), mark_seen() adds a report already logged.
  bool claim(const net::FailureReport& report, std::uint32_t log_index) {
    return dedup_.claim(report, log_index);
  }
  void mark_seen(std::uint32_t log_index) { dedup_.insert(log_index); }
  [[nodiscard]] std::size_t dedup_entries() const { return dedup_.size(); }

  /// Fuse one report (§5.1 steps 3-4 state updates); `log_index` is where
  /// it sits in the report log. The condition must be a failure mode or a
  /// sensor fault: the executive counts and drops malformed ones. Returns
  /// the closer-look retest the report earned, if any.
  std::optional<PendingRetest> fuse(const net::FailureReport& report,
                                    std::uint32_t log_index);

  // -- Queries --------------------------------------------------------------

  /// The prioritized list of every machine, most urgent first: each
  /// machine's list in ascending machine order, then one std::sort by
  /// priority. Derived state: cached, and rebuilt by the first read after
  /// fuse() or reset_machine() moved fused state, so the reference stays
  /// valid, and unchanged, until the next fuse() or reset_machine().
  [[nodiscard]] const std::vector<MaintenanceItem>& prioritized_list() const;
  /// One machine's list, most urgent first, built on each call.
  [[nodiscard]] std::vector<MaintenanceItem> prioritized_list(
      ObjectId machine) const;
  [[nodiscard]] std::optional<fusion::PrognosticVector> prognosis(
      ObjectId machine, domain::FailureMode mode) const;
  [[nodiscard]] fusion::PrognosticVector trend_prognosis(
      ObjectId machine, domain::FailureMode mode) const;
  [[nodiscard]] fusion::GroupState group_state(
      ObjectId machine, domain::LogicalGroup group) const {
    return diagnostics_.state(machine, group);
  }
  [[nodiscard]] std::vector<net::FailureReport> reports_for(
      ObjectId machine) const;

  using SensorFaultKey =
      std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;
  [[nodiscard]] const std::map<SensorFaultKey, SensorFaultRecord>&
  sensor_fault_entries() const {
    return sensor_faults_;
  }

  void reset_machine(ObjectId machine);

 private:
  struct ModeKey {
    std::uint64_t machine;
    domain::FailureMode mode;
    auto operator<=>(const ModeKey&) const = default;
  };
  struct ModeTrack {
    fusion::PrognosticVector fused_prognosis;
    fusion::TrendProjector trend;
    SimTime latest_report;
    double max_severity = 0.0;
    std::size_t reports = 0;
  };

  void note_sensor_fault(const net::FailureReport& report);
  /// Append one machine's list to `items`, most urgent first.
  void append_list(ObjectId machine,
                   std::vector<MaintenanceItem>& items) const;
  [[nodiscard]] std::optional<PendingRetest> retest_for(
      const net::FailureReport& report) const;

  PdmeConfig cfg_;
  const oosm::ReportLog& log_;
  fusion::DiagnosticFusion diagnostics_;
  /// Reused per-report buffers: prognostic-pair conversion plus the fuse
  /// scratch keep the steady-state fuse path off the heap.
  std::vector<fusion::PrognosticPoint> prog_points_;
  fusion::FuseScratch fuse_scratch_;
  std::map<ModeKey, ModeTrack> tracks_;
  /// Per-machine report-log indices since the last reset, arrival order.
  std::map<std::uint64_t, std::vector<std::uint32_t>> history_;
  DedupIndex dedup_;
  std::map<SensorFaultKey, SensorFaultRecord> sensor_faults_;
  /// The global list and whether fused state moved since it was built.
  /// Const readers rebuild it, which is safe only because every read runs
  /// on the driver thread that fuses.
  mutable std::vector<MaintenanceItem> list_;
  mutable bool list_dirty_ = false;
};

}  // namespace mpros::pdme
