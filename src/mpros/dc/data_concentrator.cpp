#include "mpros/dc/data_concentrator.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "mpros/common/assert.hpp"
#include "mpros/common/log.hpp"
#include "mpros/dsp/scratch.hpp"
#include "mpros/sbfr/library.hpp"
#include "mpros/telemetry/metrics.hpp"
#include "mpros/telemetry/trace.hpp"

namespace mpros::dc {

using domain::FailureMode;

const char* knowledge_source_name(KnowledgeSourceId ks) {
  if (ks == kDliExpertSystem) return "DLI Expert System";
  if (ks == kSbfr) return "SBFR";
  if (ks == kWaveletNeuralNet) return "Wavelet Neural Net";
  if (ks == kFuzzyLogic) return "Fuzzy Logic";
  if (ks == kSensorValidator) return "Sensor Validator";
  return "unknown";
}

namespace {

/// Modes each accelerometer point is authoritative for; cross-talk from
/// attenuated neighbours is suppressed by this ownership filter.
bool point_owns(plant::MachinePoint point, FailureMode mode) {
  switch (point) {
    case plant::MachinePoint::Motor:
      return mode == FailureMode::MotorImbalance ||
             mode == FailureMode::ShaftMisalignment ||
             mode == FailureMode::RotorBarDefect ||
             mode == FailureMode::StatorWindingFault ||
             mode == FailureMode::MotorBearingWear;
    case plant::MachinePoint::Gearbox:
      return mode == FailureMode::GearMeshWear;
    case plant::MachinePoint::Compressor:
      return mode == FailureMode::CompressorBearingWear ||
             mode == FailureMode::BearingHousingLooseness ||
             mode == FailureMode::PumpCavitation;
  }
  return false;
}

/// Whether the motor current record diagnoses `mode` without the motor
/// accelerometer: while that accelerometer is quarantined, only these modes
/// leave the motor point. Any other motor rule would fire on process
/// evidence alone, its vibration clauses abstaining.
bool current_owns(const rules::RuleEngine& dli, FailureMode mode) {
  for (const rules::Rule& r : dli.rulebase()) {
    if (r.mode == mode) return rules::reads_current(r);
  }
  return false;
}

/// SBFR event codes: 0x60 + machine index (resolved via sbfr_machine_mode_).
constexpr std::uint8_t kSbfrEventBase = 0x60;

/// The process value each SBFR input channel carries:
///   0: compressor bearing temperature (C)
///   1: oil temperature (C)
///   2: condensing pressure (kPa)
///   3: evaporator pressure *deficit* (nominal - actual, kPa) so a falling
///      suction pressure is a rising channel the threshold machine can see.
constexpr std::array<domain::Channel, 4> kSbfrChannels{
    domain::Channel::BearingTemp, domain::Channel::OilTemp,
    domain::Channel::CondPressure, domain::Channel::EvapPressure};

/// How far back the DC database's log tables reach. They are a rolling
/// window for local inspection, not the durable record: condensed health
/// history lives in the PDME's fused model, so a DC's memory stays flat
/// over an unattended voyage (§4.9).
constexpr SimTime kLogHorizon = SimTime::from_hours(1.0);

/// The append-only tables trim_log() keeps inside kLogHorizon; each has
/// time_us as column 1.
constexpr const char* kLogTables[] = {"measurements", "diagnostics",
                                      "test_log"};

/// Registry handles resolved once; afterwards an observation is a relaxed
/// atomic add, cheap enough for the test/scan path.
struct DcMetrics {
  telemetry::Counter& vibration_tests;
  telemetry::Counter& process_scans;
  telemetry::Counter& reports_emitted;
  telemetry::Counter& samples_processed;
  telemetry::Counter& config_applied;
  telemetry::Counter& config_rejected;
  telemetry::Histogram& vibration_wall_us;
  telemetry::Histogram& process_wall_us;

  static DcMetrics& instance() {
    static auto& reg = telemetry::Registry::instance();
    static DcMetrics m{
        reg.counter("dc.vibration_tests"),
        reg.counter("dc.process_scans"),
        reg.counter("dc.reports_emitted"),
        reg.counter("dc.samples_processed"),
        reg.counter("dc.config_applied"),
        reg.counter("dc.config_rejected"),
        reg.histogram("dc.vibration_test_wall_us"),
        reg.histogram("dc.process_scan_wall_us")};
    return m;
  }
};

/// First slot of the form phase + k*period (k >= 1) strictly after `resume`,
/// so a task on a recovered ship keeps its boot-time firing grid and never
/// fires inside the interval the crashed run already committed.
SimTime next_slot(SimTime resume, SimTime phase, SimTime period) {
  const std::int64_t p = period.micros();
  std::int64_t k = (resume.micros() - phase.micros()) / p + 1;
  if (k < 1) k = 1;
  while (phase.micros() + k * p <= resume.micros()) ++k;
  return SimTime(phase.micros() + k * p);
}

/// The running test's trace id: the DC's id over its 1-based count of tests
/// and scans. The OOSM stores it as an Integer: nonzero and below 2^63.
telemetry::TraceId trace_id(DcId dc, const DataConcentrator::Stats& s) {
  const std::uint64_t n = s.vibration_tests + s.process_scans;
  MPROS_EXPECTS(dc.value() < (1ULL << 23) && n >= 1 && n < (1ULL << 40));
  return (dc.value() << 40) | n;
}

}  // namespace

DataConcentrator::DataConcentrator(DcConfig cfg, MachineRefs refs,
                                   plant::ChillerSimulator& chiller,
                                   std::shared_ptr<nn::WnnClassifier> wnn,
                                   SimTime start_at)
    : cfg_(cfg),
      refs_(refs),
      chiller_(chiller),
      wnn_(std::move(wnn)),
      beliefs_(),
      extractor_(chiller.signature()),
      dli_(rules::chiller_rulebase(chiller.signature())),
      fuzzy_(),
      sbfr_(kSbfrChannels.size()),
      reliable_(cfg.id, cfg.reliable) {
  MPROS_EXPECTS(cfg_.window >= 256);
  MPROS_EXPECTS(cfg_.heartbeat_period.micros() > 0);
  events_.reserve(4);  // a step's usual events: steady steps allocate none
  setup_database();
  setup_sbfr();
  register_tasks(start_at);
}

void DataConcentrator::register_tasks(SimTime resume_at) {
  vibration_task_ = scheduler_.add_periodic(
      "vibration-test",
      next_slot(resume_at, SimTime(0), cfg_.vibration_period),
      cfg_.vibration_period,
      [this](SimTime now) { run_vibration_test(now); });
  process_task_ = scheduler_.add_periodic(
      "process-scan", next_slot(resume_at, SimTime(0), cfg_.process_period),
      cfg_.process_period,
      [this](SimTime now) { run_process_scan(now); });
  const SimTime sweep_phase =
      net::desync_phase(cfg_.id.value() << 1, cfg_.retransmit_sweep_period);
  sweep_task_ = scheduler_.add_periodic(
      "retransmit-sweep",
      next_slot(resume_at, sweep_phase, cfg_.retransmit_sweep_period),
      cfg_.retransmit_sweep_period, [this](SimTime now) {
        for (auto& payload : reliable_.due_retransmits(now)) {
          wire_outbox_.push_back(WireDatagram{now, std::move(payload)});
        }
      });
  const SimTime heartbeat_phase =
      net::desync_phase((cfg_.id.value() << 1) | 1, cfg_.heartbeat_period);
  heartbeat_task_ = scheduler_.add_periodic(
      "heartbeat",
      next_slot(resume_at, heartbeat_phase, cfg_.heartbeat_period),
      cfg_.heartbeat_period, [this](SimTime now) {
        net::HeartbeatMessage hb;
        hb.dc = cfg_.id;
        hb.timestamp = now;
        hb.last_sequence = reliable_.last_sequence();
        wire_outbox_.push_back(WireDatagram{now, net::wrap(hb)});
        ++stats_.heartbeats_sent;
      });
}

void DataConcentrator::setup_database() {
  using db::ColumnDef;
  using db::ValueType;
  db_.create_table(db::TableSchema{
      "measurements",
      {ColumnDef{"id", ValueType::Integer, false},
       ColumnDef{"time_us", ValueType::Integer, false},
       ColumnDef{"key", ValueType::Text, false},
       ColumnDef{"value", ValueType::Real, false}}});
  db_.create_table(db::TableSchema{
      "diagnostics",
      {ColumnDef{"id", ValueType::Integer, false},
       ColumnDef{"time_us", ValueType::Integer, false},
       ColumnDef{"ks", ValueType::Integer, false},
       ColumnDef{"object", ValueType::Integer, false},
       ColumnDef{"condition", ValueType::Integer, false},
       ColumnDef{"severity", ValueType::Real, false},
       ColumnDef{"belief", ValueType::Real, false}}});
  db_.create_table(db::TableSchema{
      "test_log",
      {ColumnDef{"id", ValueType::Integer, false},
       ColumnDef{"time_us", ValueType::Integer, false},
       ColumnDef{"test", ValueType::Text, false}}});
}

void DataConcentrator::trim_log(SimTime now) {
  // Keys are insert_auto order, which is time order, so the oldest row is
  // always the table's first: erase from the front until one is in window.
  const std::int64_t cutoff = (now - kLogHorizon).micros();
  std::uint64_t rows = 0;
  for (const char* name : kLogTables) {
    db::Table& t = db_.table(name);
    while (!t.rows().empty()) {
      const auto& [key, row] = *t.rows().begin();
      if (row[1].as_integer() > cutoff) break;
      t.erase(key);
    }
    rows += t.row_count();
  }
  stats_.log_rows = rows;
}

void DataConcentrator::setup_sbfr() {
  if (!cfg_.enable_sbfr) return;
  const auto nominals = domain::navy_chiller_nominals();

  // Input channels follow kSbfrChannels.
  std::uint8_t idx = 0;
  const auto add = [&](sbfr::MachineDef def, FailureMode mode) {
    sbfr_.add_machine(std::move(def));
    sbfr_machine_mode_.push_back(mode);
    sbfr_latch_events_.push_back(std::string("SBFR latch: ") +
                                 domain::to_string(mode));
    ++idx;
  };
  add(sbfr::make_threshold_machine(
          0, nominals.bearing_temp_c + 18.0, 2, idx,
          static_cast<std::uint8_t>(kSbfrEventBase + 0)),
      FailureMode::CompressorBearingWear);
  add(sbfr::make_trend_machine(1, 0.15, 5, idx,
                               static_cast<std::uint8_t>(kSbfrEventBase + 1)),
      FailureMode::OilDegradation);
  add(sbfr::make_threshold_machine(
          2, nominals.cond_pressure_kpa + 220.0, 2, idx,
          static_cast<std::uint8_t>(kSbfrEventBase + 2)),
      FailureMode::CondenserFouling);
  add(sbfr::make_threshold_machine(
          3, 60.0, 2, idx,
          static_cast<std::uint8_t>(kSbfrEventBase + 3)),
      FailureMode::RefrigerantLeak);
}

std::vector<net::FailureReport> DataConcentrator::advance_to(SimTime t) {
  events_.clear();
  // A wedged DC models a hung driver loop: time passes outside but nothing
  // runs inside — the plant reference is untouched (the supervisor's
  // catch-up re-runs the missed interval), the progress tick freezes.
  if (wedged_) return {};
  MPROS_EXPECTS(t >= chiller_.now());
  ++progress_;
  // Step the plant in bounded slices so process dynamics and due tests stay
  // interleaved (tests sample the plant at their due time). The slice
  // follows the fastest scheduled cadence: half the process-scan period,
  // floored at 30 s — fine-grained for lab-rate tests, cheap for the
  // multi-week validation studies.
  const SimTime slice = std::max(
      SimTime::from_seconds(30.0),
      SimTime(std::min(cfg_.process_period.micros(),
                       cfg_.vibration_period.micros()) /
              2));
  while (chiller_.now() < t) {
    const SimTime next = std::min(t, chiller_.now() + slice);
    chiller_.advance(next - chiller_.now());
    scheduler_.run_until(chiller_.now());
  }
  std::vector<net::FailureReport> out;
  out.swap(outbox_);
  return out;
}

void DataConcentrator::request_vibration_test() {
  scheduler_.request_now(vibration_task_, chiller_.now());
}

std::vector<DataConcentrator::Event> DataConcentrator::drain_events() {
  return std::exchange(events_, {});
}

std::vector<net::SensorDataMessage> DataConcentrator::drain_sensor_data() {
  std::vector<net::SensorDataMessage> out;
  out.swap(sensor_outbox_);
  return out;
}

void DataConcentrator::handle_wire(const net::Message& msg) {
  if (wedged_) return;  // hung input loop drops everything on the floor
  const std::optional<net::MessageType> type = net::try_peek_type(msg.payload);
  if (!type.has_value()) return;
  switch (*type) {
    case net::MessageType::TestCommand:
      if (const auto cmd = net::try_unwrap_test_command(msg.payload)) {
        handle_command(*cmd);
      }
      break;
    case net::MessageType::Ack:
      if (const auto ack = net::try_unwrap_ack(msg.payload)) {
        reliable_.on_ack(*ack);
      }
      break;
    case net::MessageType::CommandEnvelopeMsg: {
      const auto env = net::try_unwrap_command_envelope(msg.payload);
      if (!env.has_value() || env->dc != cfg_.id) break;
      const net::ReliableReceiver::Outcome out =
          command_rx_.on_envelope(env->dc, env->sequence);
      if (!out.duplicate) apply_command(env->command, chiller_.now());
      // Ack cumulatively even for duplicates — the PDME's original ack may
      // have been the casualty, and re-acking is how its window drains.
      wire_outbox_.push_back(
          WireDatagram{chiller_.now(), net::wrap(out.ack)});
      break;
    }
    default:
      break;  // not addressed to a DC
  }
}

std::vector<DataConcentrator::WireDatagram>
DataConcentrator::drain_wire_outbox() {
  std::vector<WireDatagram> out;
  out.swap(wire_outbox_);
  return out;
}

void DataConcentrator::handle_command(const net::TestCommandMessage& command) {
  if (command.target != cfg_.id) return;  // mis-routed datagram
  switch (command.command) {
    case net::TestCommandMessage::Command::VibrationTest:
      db_.table("test_log").insert_auto(
          {db::Value(chiller_.now().micros()),
           db::Value("commanded: " + command.reason)});
      trim_log(chiller_.now());
      events_.push_back(
          {chiller_.now(), "commanded vibration test: ", command.reason});
      request_vibration_test();
      break;
  }
}

void DataConcentrator::apply_command(const net::CommandMessage& cmd,
                                     SimTime now) {
  if (cmd.target != cfg_.id) return;  // mis-routed datagram
  ++stats_.config_commands;
  // Revision gate: disordered or retransmitted delivery converges on the
  // newest command (revision 0 is unordered, always applied).
  if (cmd.revision != 0 && cmd.revision <= config_revision_) {
    ++stats_.config_stale;
    return;
  }
  DcMetrics& metrics = DcMetrics::instance();
  for (const auto& [key, value] : cmd.settings) {
    if (apply_setting(key, value, /*quiet=*/false)) {
      ++stats_.config_applied;
      metrics.config_applied.inc();
      pending_config_updates_.emplace_back(key, value);
    } else {
      ++stats_.config_rejected;
      metrics.config_rejected.inc();
    }
  }
  if (cmd.revision != 0) {
    config_revision_ = cmd.revision;
    pending_config_updates_.emplace_back("__revision",
                                         static_cast<double>(cmd.revision));
  }
  db_.table("test_log").insert_auto(
      {db::Value(now.micros()), db::Value("config: " + cmd.reason)});
  trim_log(now);
  events_.push_back({now, "config command rev ",
                     std::to_string(cmd.revision) + ": " + cmd.reason});
}

bool DataConcentrator::apply_setting(std::string_view key, double value,
                                     bool quiet) {
  bool ok = std::isfinite(value);
  if (!ok) {
    // fall through to the reject log
  } else if (key == "validator.spike_sigmas" ||
             key == "validator.scalar_spike_sigmas" ||
             key == "validator.flatline_peak_to_peak") {
    ok = value > 0.0;
    if (ok) {
      SensorValidatorConfig vc = validator_.config();
      if (key == "validator.spike_sigmas") vc.spike_sigmas = value;
      if (key == "validator.scalar_spike_sigmas") {
        vc.scalar_spike_sigmas = value;
      }
      if (key == "validator.flatline_peak_to_peak") {
        vc.flatline_peak_to_peak = value;
      }
      validator_.set_config(vc);
    }
  } else if (key == "dc.report_hysteresis") {
    ok = value >= 0.0 && value <= 1.0;
    if (ok) cfg_.report_hysteresis = value;
  } else if (key == "dc.wnn_report_threshold") {
    ok = value >= 0.0 && value <= 1.0;
    if (ok) cfg_.wnn_report_threshold = value;
  } else if (key == "dc.report_refresh_s") {
    ok = value > 0.0;
    if (ok) cfg_.report_refresh = SimTime::from_seconds(value);
  } else if (key == "dc.sensor_publish_every") {
    ok = value >= 0.0 && value == std::floor(value) && value <= 1e9;
    if (ok) cfg_.sensor_publish_every = static_cast<std::size_t>(value);
  } else if (key == "dc.enable_dli") {
    ok = value == 0.0 || value == 1.0;
    if (ok) cfg_.enable_dli = value != 0.0;
  } else if (key == "dc.enable_sbfr") {
    ok = value == 0.0 || value == 1.0;
    if (ok) cfg_.enable_sbfr = value != 0.0;
  } else if (key == "dc.enable_fuzzy") {
    ok = value == 0.0 || value == 1.0;
    if (ok) cfg_.enable_fuzzy = value != 0.0;
  } else if (key == "dc.enable_sensor_validation") {
    ok = value == 0.0 || value == 1.0;
    if (ok) cfg_.enable_sensor_validation = value != 0.0;
  } else if (key == "dc.process_period_s") {
    ok = value > 0.0;
    if (ok) {
      cfg_.process_period = SimTime::from_seconds(value);
      scheduler_.set_period(process_task_, cfg_.process_period);
    }
  } else if (key == "dc.vibration_period_s") {
    ok = value > 0.0;
    if (ok) {
      cfg_.vibration_period = SimTime::from_seconds(value);
      scheduler_.set_period(vibration_task_, cfg_.vibration_period);
    }
  } else if (key == "dc.heartbeat_period_s") {
    ok = value > 0.0;
    if (ok) {
      cfg_.heartbeat_period = SimTime::from_seconds(value);
      scheduler_.set_period(heartbeat_task_, cfg_.heartbeat_period);
    }
  } else if (key == "dc.retransmit_sweep_period_s") {
    ok = value > 0.0;
    if (ok) {
      cfg_.retransmit_sweep_period = SimTime::from_seconds(value);
      scheduler_.set_period(sweep_task_, cfg_.retransmit_sweep_period);
    }
  } else {
    ok = false;
  }
  if (!ok && !quiet) {
    MPROS_LOG_WARN("dc", "dc-%llu rejected setting %.*s=%g",
                   static_cast<unsigned long long>(cfg_.id.value()),
                   static_cast<int>(key.size()), key.data(), value);
  }
  return ok;
}

std::optional<double> DataConcentrator::runtime_setting(
    std::string_view key) const {
  if (key == "validator.spike_sigmas") return validator_.config().spike_sigmas;
  if (key == "validator.scalar_spike_sigmas") {
    return validator_.config().scalar_spike_sigmas;
  }
  if (key == "validator.flatline_peak_to_peak") {
    return validator_.config().flatline_peak_to_peak;
  }
  if (key == "dc.report_hysteresis") return cfg_.report_hysteresis;
  if (key == "dc.wnn_report_threshold") return cfg_.wnn_report_threshold;
  if (key == "dc.report_refresh_s") return cfg_.report_refresh.seconds();
  if (key == "dc.sensor_publish_every") {
    return static_cast<double>(cfg_.sensor_publish_every);
  }
  if (key == "dc.enable_dli") return cfg_.enable_dli ? 1.0 : 0.0;
  if (key == "dc.enable_sbfr") return cfg_.enable_sbfr ? 1.0 : 0.0;
  if (key == "dc.enable_fuzzy") return cfg_.enable_fuzzy ? 1.0 : 0.0;
  if (key == "dc.enable_sensor_validation") {
    return cfg_.enable_sensor_validation ? 1.0 : 0.0;
  }
  if (key == "dc.process_period_s") return cfg_.process_period.seconds();
  if (key == "dc.vibration_period_s") return cfg_.vibration_period.seconds();
  if (key == "dc.heartbeat_period_s") return cfg_.heartbeat_period.seconds();
  if (key == "dc.retransmit_sweep_period_s") {
    return cfg_.retransmit_sweep_period.seconds();
  }
  return std::nullopt;
}

std::vector<std::pair<std::string, double>>
DataConcentrator::drain_config_updates() {
  std::vector<std::pair<std::string, double>> out;
  out.swap(pending_config_updates_);
  return out;
}

void DataConcentrator::restore_config(
    const std::vector<std::pair<std::string, double>>& settings) {
  for (const auto& [key, value] : settings) {
    if (key == "__revision") {
      config_revision_ = static_cast<std::uint64_t>(std::llround(value));
    } else {
      apply_setting(key, value, /*quiet=*/true);
    }
  }
}

ObjectId DataConcentrator::sensed_object_for(FailureMode mode) const {
  switch (mode) {
    case FailureMode::MotorImbalance:
    case FailureMode::RotorBarDefect:
    case FailureMode::StatorWindingFault:
    case FailureMode::MotorBearingWear:
      return refs_.motor;
    case FailureMode::ShaftMisalignment:
    case FailureMode::GearMeshWear:
      return refs_.gearbox;
    case FailureMode::CompressorBearingWear:
    case FailureMode::BearingHousingLooseness:
    case FailureMode::OilDegradation:
      return refs_.compressor;
    case FailureMode::PumpCavitation:
    case FailureMode::RefrigerantLeak:
    case FailureMode::CondenserFouling:
      return refs_.chiller;
  }
  return refs_.chiller;
}

ObjectId DataConcentrator::object_for_channel(domain::Channel channel) const {
  using enum domain::Channel;
  if (channel == VibMotor || channel == CurrentMotor) return refs_.motor;
  if (channel == VibGearbox) return refs_.gearbox;
  if (channel == VibCompressor) return refs_.compressor;
  return refs_.chiller;
}

void DataConcentrator::emit_sensor_fault(SimTime now, domain::Channel channel,
                                         domain::SensorFaultKind kind,
                                         bool cleared) {
  const std::string name(domain::name(channel));
  net::FailureReport r;
  r.dc = cfg_.id;
  r.knowledge_source = kSensorValidator;
  r.sensed_object = object_for_channel(channel);
  r.machine_condition = domain::sensor_fault_condition(kind);
  r.severity = cleared ? 0.0 : 1.0;
  r.belief = 0.9;
  r.explanation =
      cleared ? name + " validated clean; channel trusted again"
              : domain::sensor_fault_condition_text(kind) + " on " + name;
  r.recommendations =
      cleared ? "Resume normal monitoring."
              : "Inspect transducer, cabling and DAQ channel; machinery "
                "diagnostics from this channel are suspended.";
  r.timestamp = now;
  r.trace = trace_id(cfg_.id, stats_);

  db_.table("diagnostics")
      .insert_auto(
          {db::Value(now.micros()),
           db::Value(static_cast<std::int64_t>(kSensorValidator.value())),
           db::Value(static_cast<std::int64_t>(r.sensed_object.value())),
           db::Value(static_cast<std::int64_t>(r.machine_condition.value())),
           db::Value(r.severity), db::Value(r.belief)});
  trim_log(now);
  events_.push_back({now, cleared ? "sensor channel restored: "
                                  : "sensor channel quarantined: ",
                     name});
  outbox_.push_back(std::move(r));
  ++stats_.reports_emitted;
  ++stats_.sensor_fault_reports;
  DcMetrics::instance().reports_emitted.inc();
}

bool DataConcentrator::admit(SimTime now, domain::Channel channel,
                             const SensorValidator::Verdict& v) {
  if (v.newly_quarantined) emit_sensor_fault(now, channel, *v.fault, false);
  if (v.released) emit_sensor_fault(now, channel, *v.cleared_kind, true);
  return !validator_.quarantined(channel);
}

bool DataConcentrator::validate_window(SimTime now, domain::Channel channel,
                                       std::span<const double> samples) {
  return !cfg_.enable_sensor_validation ||
         admit(now, channel, validator_.check_window(channel, samples));
}

void DataConcentrator::emit_raw(
    SimTime now, KnowledgeSourceId ks, ObjectId sensed, FailureMode mode,
    double severity, double belief, std::string explanation,
    std::string recommendation,
    const std::vector<rules::PrognosticPoint>& prognosis) {
  // Last line of defense for the wire: an analyzer fed corrupt data must
  // never publish a non-finite conclusion (D-S fusion at the PDME would
  // poison every belief it touches).
  if (!std::isfinite(severity) || !std::isfinite(belief)) {
    rules::nonfinite_inputs().inc();
    return;
  }
  // Hysteresis: unchanged conclusions are not fresh evidence.
  LastReport& last = last_reports_[{ks.value(), sensed.value(),
                                    domain::condition_id(mode).value()}];
  const bool severity_moved =
      std::fabs(severity - last.severity) >= cfg_.report_hysteresis;
  const bool refresh_due =
      last.at.micros() < 0 || now - last.at >= cfg_.report_refresh;
  if (!severity_moved && !refresh_due) return;
  last.severity = severity;
  last.at = now;

  net::FailureReport r;
  r.dc = cfg_.id;
  r.knowledge_source = ks;
  r.sensed_object = sensed;
  r.machine_condition = domain::condition_id(mode);
  r.severity = severity;
  r.belief = belief;
  r.explanation = std::move(explanation);
  r.recommendations = std::move(recommendation);
  r.timestamp = now;
  r.trace = trace_id(cfg_.id, stats_);
  for (const rules::PrognosticPoint& p : prognosis) {
    r.prognostics.push_back(
        net::PrognosticPair{p.probability, p.horizon.seconds()});
  }

  db_.table("diagnostics")
      .insert_auto({db::Value(now.micros()),
                    db::Value(static_cast<std::int64_t>(ks.value())),
                    db::Value(static_cast<std::int64_t>(sensed.value())),
                    db::Value(static_cast<std::int64_t>(
                        r.machine_condition.value())),
                    db::Value(severity), db::Value(belief)});
  trim_log(now);
  outbox_.push_back(std::move(r));
  ++stats_.reports_emitted;
  DcMetrics::instance().reports_emitted.inc();
}

void DataConcentrator::emit(SimTime now, KnowledgeSourceId ks,
                            ObjectId sensed, const rules::Diagnosis& d) {
  emit_raw(now, ks, sensed, d.mode, d.severity, d.belief, d.explanation,
           d.recommendation, d.prognosis);
}

void DataConcentrator::run_vibration_test(SimTime now) {
  DcMetrics& metrics = DcMetrics::instance();
  ++stats_.vibration_tests;
  // One trace per acquisition: every report this test emits carries the id,
  // so the DAQ → scheduler → codec → fusion path can be reconstructed.
  telemetry::StageTimer span("dc.vibration_test", trace_id(cfg_.id, stats_),
                             now.micros(), &metrics.vibration_wall_us);
  metrics.vibration_tests.inc();
  events_.push_back({now, "vibration test", {}});
  db_.table("test_log").insert_auto(
      {db::Value(now.micros()), db::Value("vibration")});
  trim_log(now);

  const domain::ProcessValues process = chiller_.process_snapshot();
  const double load = chiller_.load();

  // The records live in the thread's sample arena: a DC holds no samples
  // between tests, and the DCs stepped on one thread share one set.
  using Lane = dsp::DspScratch::Real;
  dsp::DspScratch& scratch = dsp::DspScratch::local();
  const std::span<double> current =
      scratch.real_lane(Lane::kCurrentRecord, cfg_.current_window);
  const std::span<double> records = scratch.real_lane(
      Lane::kVibrationRecord, plant::kMachinePointCount * cfg_.window);

  // Current signature analysis shares the test (§6.1 pairs spectral
  // features with process parameters).
  chiller_.acquire_current(cfg_.current_sample_rate_hz, current);
  stats_.samples_processed += current.size();
  metrics.samples_processed.inc(current.size());
  const bool current_ok =
      validate_window(now, domain::Channel::CurrentMotor, current);

  // The three accelerometer records in one render, Motor, Gearbox and
  // Compressor back to back.
  chiller_.acquire_vibration(cfg_.sample_rate_hz, records);
  for (const plant::MachinePoint point :
       {plant::MachinePoint::Motor, plant::MachinePoint::Gearbox,
        plant::MachinePoint::Compressor}) {
    const std::span<double> vibration = records.subspan(
        static_cast<std::size_t>(point) * cfg_.window, cfg_.window);
    stats_.samples_processed += vibration.size();
    metrics.samples_processed.inc(vibration.size());

    // Quarantined accelerometer: withhold the window; the analyzers for
    // this point sit out the test instead of diagnosing a lying sensor. A
    // healthy current record still reaches the motor point's rules, and
    // the modes it owns are reported.
    const bool vibration_ok =
        validate_window(now, plant::vibration_channel(point), vibration);
    const bool with_current =
        point == plant::MachinePoint::Motor && current_ok;
    if (!cfg_.enable_dli || (!vibration_ok && !with_current)) continue;

    rules::FeatureFrame frame;
    if (vibration_ok) {
      extractor_.extract_vibration(vibration, cfg_.sample_rate_hz, frame);
    }
    if (with_current) {
      extractor_.extract_current(current, cfg_.current_sample_rate_hz, load,
                                 frame);
    }
    process.for_each([&](domain::Channel c, double value) {
      // Rules abstain on a quarantined value's missing feature.
      if (trusted(c)) frame.set(domain::name(c), value);
    });

    for (const rules::Diagnosis& d : dli_.evaluate(frame, beliefs_)) {
      if (!point_owns(point, d.mode)) continue;
      if (!vibration_ok && !current_owns(dli_, d.mode)) continue;
      emit(now, kDliExpertSystem, sensed_object_for(d.mode), d);
    }

    // WNN on the same records: transitory-phenomena classifier (§6.2).
    if (vibration_ok && wnn_ && wnn_->trained() &&
        (point == plant::MachinePoint::Motor ||
         point == plant::MachinePoint::Compressor)) {
      nn::WnnContext ctx;
      ctx.shaft_hz = chiller_.signature().shaft_hz;
      ctx.load_fraction = load;
      if (trusted(domain::Channel::BearingTemp)) {
        ctx.bearing_temp_c = process[domain::Channel::BearingTemp];
      }

      for (const rules::Diagnosis& d :
           wnn_->diagnose(vibration, cfg_.sample_rate_hz, ctx, beliefs_,
                          cfg_.wnn_report_threshold)) {
        if (!point_owns(point, d.mode)) continue;
        emit(now, kWaveletNeuralNet, sensed_object_for(d.mode), d);
      }
    }
  }
}

void DataConcentrator::run_process_scan(SimTime now) {
  DcMetrics& metrics = DcMetrics::instance();
  ++stats_.process_scans;
  telemetry::StageTimer span("dc.process_scan", trace_id(cfg_.id, stats_),
                             now.micros(), &metrics.process_wall_us);
  metrics.process_scans.inc();
  domain::ProcessValues snapshot = chiller_.process_snapshot();

  // Screen every reading; quarantined values leave the snapshot, so the
  // database, the raw-data feed and every analyzer see only trusted values.
  if (cfg_.enable_sensor_validation) {
    for (std::size_t i = 0; i < domain::kProcessCount; ++i) {
      const domain::Channel c = domain::process_channel(i);
      if (!admit(now, c, validator_.check_value(c, snapshot[c]))) {
        snapshot.erase(c);
      }
    }
  }

  db::Table& measurements = db_.table("measurements");
  snapshot.for_each([&](domain::Channel c, double value) {
    measurements.insert_auto({db::Value(now.micros()),
                              db::Value(domain::spec(c).name),
                              db::Value(value)});
  });
  trim_log(now);

  if (cfg_.sensor_publish_every != 0 &&
      stats_.process_scans % cfg_.sensor_publish_every == 0) {
    net::SensorDataMessage msg;
    msg.dc = cfg_.id;
    msg.machine = refs_.chiller;
    msg.timestamp = now;
    msg.values.reserve(snapshot.size());
    snapshot.for_each([&](domain::Channel c, double value) {
      msg.values.emplace_back(domain::name(c), value);
    });
    sensor_outbox_.push_back(std::move(msg));
  }

  if (cfg_.enable_fuzzy) {
    for (const rules::Diagnosis& d : fuzzy_.evaluate(snapshot, beliefs_)) {
      emit(now, kFuzzyLogic, sensed_object_for(d.mode), d);
    }
  }

  // SBFR steps only when its full input vector is trusted; with any channel
  // quarantined it holds state rather than latching on fabricated inputs.
  if (cfg_.enable_sbfr && !sbfr_machine_mode_.empty() &&
      std::ranges::all_of(kSbfrChannels, [&](domain::Channel c) {
        return snapshot.has(c);
      })) {
    const double inputs[kSbfrChannels.size()] = {
        snapshot[kSbfrChannels[0]], snapshot[kSbfrChannels[1]],
        snapshot[kSbfrChannels[2]],
        domain::navy_chiller_nominals().evap_pressure_kpa -
            snapshot[kSbfrChannels[3]]};
    sbfr_.step(inputs);

    for (const sbfr::Event& e : sbfr_.drain_events()) {
      MPROS_ASSERT(e.machine < sbfr_machine_mode_.size());
      const FailureMode mode = sbfr_machine_mode_[e.machine];
      events_.push_back({now, sbfr_latch_events_[e.machine], {}});
      const double severity = 0.5;  // SBFR flags onset; KF fuses magnitude
      emit_raw(now, kSbfr, sensed_object_for(mode), mode, severity,
               /*belief=*/0.65,
               std::string("SBFR state machine latched on ")
                   .append(domain::name(kSbfrChannels[std::min<std::size_t>(
                       e.machine, kSbfrChannels.size() - 1)])),
               "Correlate with vibration expert system findings.",
               rules::default_prognosis(severity));
      // The host acknowledges the latch so the machine can re-arm (§6.3).
      sbfr_.set_status(e.machine, 0.0);
    }
  }
}

}  // namespace mpros::dc
