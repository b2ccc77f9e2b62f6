#pragma once
// The Data Concentrator (paper §1.1, §5.8).
//
// "Devices called Data Concentrators are placed near the ship's machinery.
// Each of these is a computer in its own right and has the major
// responsibility for diagnostics and prognostics." A DC hosts the four
// Phase-1 analyzers:
//   1. the DLI-style vibration expert system (rules::RuleEngine),
//   2. State Based Feature Recognition (sbfr::SbfrSystem),
//   3. the Wavelet Neural Network (nn::WnnClassifier, shared & pre-trained),
//   4. fuzzy-logic diagnostics on non-vibration data (fuzzy::FuzzyDiagnoser),
// coordinated by the event scheduler, with results logged in the DC's
// database (DcLog: a rolling one-hour log of process scans, diagnostics and
// tests) and emitted as §7 failure reports.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "mpros/common/clock.hpp"
#include "mpros/common/ids.hpp"
#include "mpros/dc/scheduler.hpp"
#include "mpros/dc/sensor_validator.hpp"
#include "mpros/domain/channels.hpp"
#include "mpros/fuzzy/chiller_fuzzy.hpp"
#include "mpros/net/messages.hpp"
#include "mpros/net/network.hpp"
#include "mpros/net/reliable.hpp"
#include "mpros/net/report.hpp"
#include "mpros/nn/classifier.hpp"
#include "mpros/plant/chiller.hpp"
#include "mpros/rules/believability.hpp"
#include "mpros/rules/dli_rules.hpp"
#include "mpros/sbfr/interpreter.hpp"

namespace mpros::dc {

/// Well-known knowledge-source ids (§5.5's "KS ID").
inline constexpr KnowledgeSourceId kDliExpertSystem{1};
inline constexpr KnowledgeSourceId kSbfr{2};
inline constexpr KnowledgeSourceId kWaveletNeuralNet{3};
inline constexpr KnowledgeSourceId kFuzzyLogic{4};
inline constexpr KnowledgeSourceId kSensorValidator{5};

[[nodiscard]] const char* knowledge_source_name(KnowledgeSourceId ks);

/// OOSM object ids of the machinery this DC instruments.
struct MachineRefs {
  ObjectId chiller;
  ObjectId motor;
  ObjectId gearbox;
  ObjectId compressor;
};

struct DcConfig {
  DcId id{1};
  double sample_rate_hz = 40960.0;   ///< vibration digitizer rate
  std::size_t window = 8192;         ///< samples per vibration record
  /// Motor-current signature analysis needs sub-Hz resolution to resolve
  /// pole-pass sidebands, so it records long windows at a low rate.
  double current_sample_rate_hz = 4096.0;
  std::size_t current_window = 32768;
  SimTime vibration_period = SimTime::from_seconds(600.0);
  SimTime process_period = SimTime::from_seconds(60.0);
  double wnn_report_threshold = 0.45;
  /// Report suppression: a (source, object, condition) tuple re-reports
  /// only when its severity moves by at least `report_hysteresis` or after
  /// `report_refresh` of silence. Repeated identical conclusions from the
  /// same analyzer are not independent evidence, and Dempster-Shafer at the
  /// PDME would otherwise double-count them.
  double report_hysteresis = 0.05;
  SimTime report_refresh = SimTime::from_hours(0.5);
  /// Publish a SensorDataMessage every Nth process scan (0 disables).
  std::size_t sensor_publish_every = 5;
  bool enable_dli = true;
  bool enable_sbfr = true;
  bool enable_fuzzy = true;
  /// Screen every acquisition for instrument faults; quarantined channels
  /// are withheld from the analyzers and reported as sensor faults.
  bool enable_sensor_validation = true;
  /// Reliable report delivery: each sync window's reports ride one
  /// sequence-numbered ReportBatch datagram, buffered until the PDME acks
  /// and retransmitted with backoff.
  net::ReliableConfig reliable;
  /// Cadence of the scheduler task that sweeps the retransmit buffer.
  SimTime retransmit_sweep_period = SimTime::from_seconds(60.0);
  /// Cadence of DC->PDME liveness heartbeats (positive). The retransmit
  /// sweep and the heartbeat are each offset by a seeded per-DC phase
  /// (net::desync_phase) so hundreds of DCs brought up together do not
  /// burst-retransmit in lockstep when an outage ends.
  SimTime heartbeat_period = SimTime::from_seconds(60.0);
};

/// The DC database (§1): a rolling log of what the DC measured, concluded
/// and ran, for local inspection. It is not the durable record: condensed
/// health history lives in the PDME's fused model, so a DC's memory stays
/// flat over an unattended voyage (§4.9). Records arrive in time order.
/// Every append drops, from all three vectors, the leading records at or
/// before its time minus kHorizon; the erase keeps capacity, so a warmed
/// log appends without touching the heap.
struct DcLog {
  static constexpr SimTime kHorizon = SimTime::from_hours(1.0);

  /// One process scan's screened values; quarantined channels are absent.
  struct ScanRecord {
    SimTime at;
    domain::ProcessValues values;
  };
  /// The conclusion of one emitted report.
  struct DiagnosticRecord {
    SimTime at;
    KnowledgeSourceId ks;
    ObjectId object;
    ConditionId condition;
    double severity = 0.0;
    double belief = 0.0;
  };
  enum class TestKind : std::uint8_t {
    Vibration,  ///< a vibration test ran
    Commanded,  ///< a vibration test was commanded
    Config,     ///< a config command was applied
  };
  struct TestRecord {
    SimTime at;
    TestKind kind = TestKind::Vibration;
    std::uint64_t revision = 0;  ///< a Config command's revision
  };

  std::vector<ScanRecord> scans;
  std::vector<DiagnosticRecord> diagnostics;
  std::vector<TestRecord> tests;

  void append(const ScanRecord& r);
  void append(const DiagnosticRecord& r);
  void append(const TestRecord& r);

  /// Present scan values plus diagnostic and test records.
  [[nodiscard]] std::uint64_t rows() const;
};

class DataConcentrator {
 public:
  /// Counters for the throughput benches.
  struct Stats {
    std::uint64_t vibration_tests = 0;
    std::uint64_t process_scans = 0;
    std::uint64_t samples_processed = 0;
    std::uint64_t reports_emitted = 0;
    std::uint64_t sensor_fault_reports = 0;
    std::uint64_t heartbeats_sent = 0;
    std::uint64_t config_commands = 0;   ///< CommandMessages applied
    std::uint64_t config_applied = 0;    ///< settings accepted
    std::uint64_t config_rejected = 0;   ///< settings refused (bad key/value)
    std::uint64_t config_stale = 0;      ///< commands older than applied rev
    /// DcLog::rows() after the latest append: the present values of the
    /// logged scans plus the diagnostic and test records, all within the
    /// last simulated hour.
    std::uint64_t log_rows = 0;
  };

  /// Retransmission + heartbeat payloads accumulated by the DC's scheduler
  /// tasks since the last drain; the assembler sends them on the driver
  /// thread at their generation timestamps.
  struct WireDatagram {
    SimTime at;
    std::vector<std::uint8_t> payload;
  };

  /// `chiller` must outlive the DC. `wnn` may be null (WNN analyzer off)
  /// and is shared because training one classifier per DC would waste the
  /// fleet bench; real DCs would flash the same trained network anyway.
  /// `start_at` anchors the task schedule: zero for a fresh boot; a
  /// recovered ship passes its committed-through time so no task fires
  /// inside the already-fused interval while the plant re-simulates it.
  DataConcentrator(DcConfig cfg, MachineRefs refs,
                   plant::ChillerSimulator& chiller,
                   std::shared_ptr<nn::WnnClassifier> wnn = nullptr,
                   SimTime start_at = SimTime(0));

  /// Advance the DC (and its chiller) to absolute time `t`, running every
  /// scheduled test that falls due. Returns the §7 reports generated.
  std::vector<net::FailureReport> advance_to(SimTime t);

  /// Sensor-data batches accumulated since the last drain (§1's "raw
  /// sensor data to other shipboard systems"; published every
  /// `sensor_publish_every` process scans).
  std::vector<net::SensorDataMessage> drain_sensor_data();

  /// Handle a §5.8 scheduler command arriving over the network.
  void handle_command(const net::TestCommandMessage& command);

  /// Dispatch any datagram from the ship's network: test commands and
  /// (when reliable delivery is on) PDME acknowledgements. Unknown or
  /// corrupt payloads are dropped.
  void handle_wire(const net::Message& msg);

  std::vector<WireDatagram> drain_wire_outbox();

  /// Runtime control plane (§4.9): apply one versioned CommandMessage.
  /// Settings are applied individually — unknown keys or out-of-range
  /// values are rejected (counted) without poisoning the rest of the
  /// command. Accepted settings are queued for drain_config_updates(), so
  /// a durable ship can restore them after a crash. Commands whose
  /// revision is not newer than the last applied one are stale no-ops
  /// (the cumulative ack already covers them).
  void apply_command(const net::CommandMessage& cmd, SimTime now);

  /// Current value of one runtime-tunable setting (the apply_command keys);
  /// nullopt for unknown keys. Lets tests and the soak harness assert
  /// config convergence without reaching into subsystem internals.
  [[nodiscard]] std::optional<double> runtime_setting(
      std::string_view key) const;

  /// Revision of the last applied config command (0 = factory config).
  [[nodiscard]] std::uint64_t config_revision() const {
    return config_revision_;
  }

  /// Settings applied since the last drain (includes the "__revision"
  /// bookkeeping key). The assembler pulls these at every step barrier and,
  /// on a durable ship, mirrors them into its durable store — a pull, so
  /// the mirror write happens on the driver thread, never a DC worker.
  [[nodiscard]] std::vector<std::pair<std::string, double>>
  drain_config_updates();

  /// Crash recovery: re-impose a mirrored config on a freshly built DC —
  /// apply each setting quietly (no counters) and adopt the revision
  /// carried under "__revision". The entries came *from* the durable
  /// mirror, so they are not queued for re-mirroring.
  void restore_config(
      const std::vector<std::pair<std::string, double>>& settings);

  /// Chaos hook: a wedged DC stops advancing (advance_to returns nothing,
  /// the progress tick freezes) and ignores all wire input — modelling a
  /// hung driver loop. The supervisor detects the frozen tick, clears the
  /// flag and catches the DC up through the steps it missed.
  void set_wedged(bool wedged) { wedged_ = wedged; }
  [[nodiscard]] bool wedged() const { return wedged_; }

  /// Internal progress tick: increments on every advance_to() that actually
  /// ran (wedged advances do not count). The supervisor watches this.
  [[nodiscard]] std::uint64_t progress() const { return progress_; }

  [[nodiscard]] net::ReliableSender& reliable() { return reliable_; }
  [[nodiscard]] const SensorValidator& validator() const {
    return validator_;
  }

  /// Command an immediate vibration test (§5.8: "the PDME or any other
  /// client can command the scheduler to conduct another test"). Takes
  /// effect on the next advance_to().
  void request_vibration_test();

  /// A journal line, `what` then `detail`. `what` views static text or text
  /// the DC holds while it lives, so a steady step's events allocate nothing.
  struct Event {
    SimTime at;
    std::string_view what;
    std::string detail;
  };
  /// Test runs, commands, quarantines and SBFR latches since the last drain,
  /// in order. advance_to() starts a fresh buffer, so a DC nobody drains
  /// keeps one step's worth.
  std::vector<Event> drain_events();

  [[nodiscard]] DcId id() const { return cfg_.id; }
  [[nodiscard]] const DcLog& log() const { return log_; }
  [[nodiscard]] rules::BelievabilityTable& believability() {
    return beliefs_;
  }
  [[nodiscard]] const MachineRefs& machines() const { return refs_; }

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void run_vibration_test(SimTime now);
  void run_process_scan(SimTime now);
  void emit(SimTime now, KnowledgeSourceId ks, ObjectId sensed,
            const rules::Diagnosis& d);
  void emit_raw(SimTime now, KnowledgeSourceId ks, ObjectId sensed,
                domain::FailureMode mode, double severity, double belief,
                std::string explanation, std::string recommendation,
                const std::vector<rules::PrognosticPoint>& prognosis);
  [[nodiscard]] ObjectId sensed_object_for(domain::FailureMode mode) const;
  [[nodiscard]] ObjectId object_for_channel(domain::Channel channel) const;
  void emit_sensor_fault(SimTime now, domain::Channel channel,
                         domain::SensorFaultKind kind, bool cleared);
  /// Report a screen's quarantine or release of `channel`; returns false
  /// while it is quarantined and its data must be withheld.
  bool admit(SimTime now, domain::Channel channel,
             const SensorValidator::Verdict& v);
  /// Validate one waveform acquisition; returns false when the channel is
  /// quarantined and its data must be withheld from the analyzers.
  bool validate_window(SimTime now, domain::Channel channel,
                       std::span<const double> samples);
  /// False while sensor validation holds `channel` in quarantine.
  [[nodiscard]] bool trusted(domain::Channel channel) const {
    return !(cfg_.enable_sensor_validation && validator_.quarantined(channel));
  }
  /// Append `record` to the log and refresh stats_.log_rows.
  template <typename Record>
  void append_log(const Record& record) {
    log_.append(record);
    stats_.log_rows = log_.rows();
  }
  /// Build the SBFR machines and their mode table.
  void setup_sbfr();
  /// Register the scheduler tasks. For a fresh DC `resume_at` is zero and
  /// tasks first fire one period (plus its desync phase) from boot; on a
  /// recovered ship each task anchors on the first slot of its boot-time
  /// grid strictly after `resume_at`, so none fires inside the interval
  /// the crashed run already committed.
  void register_tasks(SimTime resume_at);
  /// Apply one runtime setting; returns false (rejected) on unknown key or
  /// out-of-range value. `quiet` suppresses the rejection warning when
  /// restoring a mirrored config.
  bool apply_setting(std::string_view key, double value, bool quiet);

  DcConfig cfg_;
  MachineRefs refs_;
  plant::ChillerSimulator& chiller_;
  std::shared_ptr<nn::WnnClassifier> wnn_;

  EventScheduler scheduler_;
  EventScheduler::TaskId vibration_task_ = 0;
  EventScheduler::TaskId process_task_ = 0;
  EventScheduler::TaskId sweep_task_ = 0;
  EventScheduler::TaskId heartbeat_task_ = 0;
  DcLog log_;
  rules::BelievabilityTable beliefs_;
  rules::FeatureExtractor extractor_;
  rules::RuleEngine dli_;
  fuzzy::FuzzyDiagnoser fuzzy_;
  sbfr::SbfrSystem sbfr_;
  std::vector<domain::FailureMode> sbfr_machine_mode_;  // mode per machine
  std::vector<std::string> sbfr_latch_events_;  // journal text per machine

  struct LastReport {
    double severity = -1.0;
    SimTime at{-1};
  };
  std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>,
           LastReport>
      last_reports_;  // (ks, object, condition) -> last emission

  std::vector<Event> events_;

  SensorValidator validator_;
  net::ReliableSender reliable_;
  net::ReliableReceiver command_rx_;  ///< PDME->DC command stream dedup
  std::uint64_t config_revision_ = 0;
  /// Settings applied since the last drain_config_updates() pull.
  std::vector<std::pair<std::string, double>> pending_config_updates_;
  std::uint64_t progress_ = 0;
  bool wedged_ = false;
  std::vector<net::FailureReport> outbox_;
  std::vector<net::SensorDataMessage> sensor_outbox_;
  std::vector<WireDatagram> wire_outbox_;
  Stats stats_;
};

}  // namespace mpros::dc
