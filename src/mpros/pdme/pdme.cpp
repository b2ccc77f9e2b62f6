#include "mpros/pdme/pdme.hpp"

#include <algorithm>

#include "mpros/common/assert.hpp"
#include "mpros/common/log.hpp"
#include "mpros/telemetry/metrics.hpp"
#include "mpros/telemetry/trace.hpp"

namespace mpros::pdme {

using domain::FailureMode;

namespace {

/// Registry handles resolved once; observations are relaxed atomics after.
/// Counters are process-wide, shared by every executive (the Registry dedups
/// by name); each has a twin field in the executive's own Stats.
struct PdmeMetrics {
  telemetry::Counter& reports_accepted;
  telemetry::Counter& duplicates_dropped;
  telemetry::Counter& malformed_dropped;
  telemetry::Counter& fusion_updates;
  telemetry::Counter& sensor_fault_reports;
  telemetry::Counter& gaps_detected;
  telemetry::Counter& heartbeats_received;
  telemetry::Histogram& fuse_wall_us;
  telemetry::Histogram& report_pipeline_latency_us;
  telemetry::Gauge& report_records;
  telemetry::Gauge& report_text_bytes;
  telemetry::Gauge& dedup_entries;

  static PdmeMetrics& instance() {
    static auto& reg = telemetry::Registry::instance();
    static PdmeMetrics m{reg.counter("pdme.reports_accepted"),
                         reg.counter("pdme.duplicates_dropped"),
                         reg.counter("pdme.malformed_dropped"),
                         reg.counter("pdme.fusion_updates"),
                         reg.counter("pdme.sensor_fault_reports"),
                         reg.counter("pdme.gaps_detected"),
                         reg.counter("pdme.heartbeats_received"),
                         reg.histogram("pdme.fuse_wall_us"),
                         reg.histogram("pdme.report_pipeline_latency_us"),
                         reg.gauge("oosm.report_records"),
                         reg.gauge("oosm.report_text_bytes"),
                         reg.gauge("pdme.dedup_entries")};
    return m;
  }
};

/// Add `n` to a Stats field and to its registry twin: every counter the
/// executive shares with the registry moves through here.
void count(std::uint64_t& field, telemetry::Counter& twin,
           std::uint64_t n = 1) {
  if (n == 0) return;
  field += n;
  twin.inc(n);
}

}  // namespace

const char* to_string(DcLiveness liveness) {
  switch (liveness) {
    case DcLiveness::Alive: return "Alive";
    case DcLiveness::Stale: return "Stale";
    case DcLiveness::Lost: return "Lost";
  }
  return "?";
}

PdmeExecutive::PdmeExecutive(oosm::ObjectModel& model, PdmeConfig cfg)
    : model_(model), cfg_(cfg), core_(cfg_, model.report_log()) {}

PdmeExecutive::SubmitOutcome PdmeExecutive::submit(
    std::span<const net::ReportEnvelope> reports) {
  SubmitOutcome out;
  PdmeMetrics& metrics = PdmeMetrics::instance();
  std::size_t i = 0;
  while (i < reports.size()) {
    const net::ReportEnvelope& head = reports[i];
    std::size_t j = i + 1;
    if (head.sequence != 0) {
      // One sequenced datagram = the run sharing its (dc, sequence).
      while (j < reports.size() &&
             reports[j].dc.value() == head.dc.value() &&
             reports[j].sequence == head.sequence) {
        ++j;
      }
    } else {
      // Unsequenced reports have no stream state to commit; ingest the
      // whole contiguous stretch as one span.
      while (j < reports.size() && reports[j].sequence == 0) ++j;
    }
    const std::span<const net::ReportEnvelope> run =
        reports.subspan(i, j - i);
    if (head.sequence != 0 &&
        receiver_.is_duplicate(head.dc, head.sequence)) {
      // A retransmitted sequenced datagram: every report it carried was
      // already fused the first time, so the whole run drops.
      ++stats_.duplicate_envelopes;
      out.duplicates += run.size();
    } else {
      for (const net::ReportEnvelope& env : run) {
        const net::FailureReport& r = env.report;
        // The log index post_report() is about to give it.
        const auto index =
            static_cast<std::uint32_t>(model_.report_log().size());
        if (cfg_.deduplicate && !core_.claim(r, index)) {
          ++out.duplicates;
          continue;
        }
        const ObjectId obj = model_.post_report(r);
        fuse(r, index);
        ++out.accepted;
        out.last_object = obj;
      }
      if (head.sequence != 0) {
        // Commit stream state only after the run was fused: an acked
        // sequence whose reports never reached fusion would be
        // unrecoverable (the DC retires it on our ack).
        const net::ReliableReceiver::Outcome outcome =
            receiver_.on_envelope(head.dc, head.sequence);
        count(stats_.gaps_detected, metrics.gaps_detected, outcome.new_gaps);
        ++stats_.envelopes_accepted;
      }
    }
    i = j;
  }
  count(stats_.duplicates_dropped, metrics.duplicates_dropped,
        out.duplicates);
  return out;
}

void PdmeExecutive::fuse(const net::FailureReport& r,
                         std::uint32_t log_index) {
  PdmeMetrics& metrics = PdmeMetrics::instance();
  const ConditionId condition = r.machine_condition;
  const bool sensor_fault = domain::is_sensor_fault_condition(condition);
  if (!sensor_fault &&
      (!condition.valid() || condition.value() > domain::kFailureModeCount)) {
    count(stats_.malformed_dropped, metrics.malformed_dropped);
    return;
  }
  count(stats_.reports_accepted, metrics.reports_accepted);
  if (sensor_fault) {
    count(stats_.sensor_fault_reports, metrics.sensor_fault_reports);
    core_.fuse(r, log_index);  // a ledger update; never earns a retest
    return;
  }
  // Stage timing rides the trace: traced reports (every DC test stamps one)
  // get the span and feed the wall-clock histogram; untraced bulk ingest
  // pays neither the clock reads nor the observe.
  std::optional<telemetry::StageTimer> span;
  if (r.trace != 0) {
    span.emplace("pdme.fuse", r.trace, r.timestamp.micros(),
                 &metrics.fuse_wall_us);
  }
  const std::optional<PendingRetest> retest = core_.fuse(r, log_index);
  span.reset();
  count(stats_.fusion_updates, metrics.fusion_updates);
  if (retest.has_value()) send_retest(*retest);
}

void PdmeExecutive::send_retest(const PendingRetest& p) {
  if (network_ == nullptr) return;
  const ModeKey key{p.machine.value(), p.mode};
  const auto last = last_retest_.find(key);
  if (last != last_retest_.end() && p.at - last->second < kRetestBackoff) {
    return;
  }
  last_retest_[key] = p.at;

  net::TestCommandMessage cmd;
  cmd.target = p.dc;
  cmd.command = net::TestCommandMessage::Command::VibrationTest;
  cmd.reason = "PDME closer-look: " + domain::condition_text(p.mode);
  network_->send(endpoint_name_, "dc-" + std::to_string(p.dc.value()),
                 net::wrap(cmd), p.at);
  ++stats_.retests_commanded;
}

std::size_t PdmeExecutive::rebuild_from_model() {
  // objects_of_kind returns creation order — the exact order the live
  // executive fused these reports. Keep it: re-fusing in any other order
  // (the old timestamp sort was unstable across same-stamp reports) folds
  // the Dempster-Shafer floats differently and recovery would no longer be
  // byte-identical to the uncrashed run.
  //
  // Maintenance resets replay at their watermarks: a machine's last reset
  // lands just before the first report posted after it, so what it cleared
  // stays cleared and everything it left (counters, the sensor-fault
  // ledger, dedup) is rebuilt as the live run had it.
  std::vector<std::pair<ObjectId, ObjectId>> resets;  // (watermark, machine)
  for (const auto& [machine, watermark] : model_.report_resets()) {
    resets.emplace_back(watermark, ObjectId(machine));
  }
  std::sort(resets.begin(), resets.end());
  auto next_reset = resets.begin();
  const auto reset_through = [&](ObjectId id) {
    for (; next_reset != resets.end() && next_reset->first <= id;
         ++next_reset) {
      core_.reset_machine(next_reset->second);
    }
  };

  std::size_t recovered = 0;
  net::FailureReport r;
  for (const ObjectId obj :
       model_.objects_of_kind(domain::EquipmentKind::Report)) {
    // Only submit() posts to the log; a Report object built by hand was
    // never fused live, so it is not fused here either.
    const auto index = model_.report_index(obj);
    if (!index.has_value()) continue;
    model_.report_log().read(*index, r);
    // Recovery fuses every persisted report, even signature twins (they
    // are distinct objects in the model) — so bypass the dedup gate.
    if (cfg_.deduplicate) core_.mark_seen(*index);
    reset_through(obj);
    fuse(r, *index);
    ++recovered;
  }
  reset_through(ObjectId(~std::uint64_t{0}));
  return recovered;
}

std::vector<SensorFaultRecord> PdmeExecutive::sensor_faults(
    bool active_only) const {
  std::vector<SensorFaultRecord> out;
  for (const auto& [key, rec] : core_.sensor_fault_entries()) {
    if (!active_only || rec.severity > 0.0) out.push_back(rec);
  }
  return out;
}

void PdmeExecutive::restore_dc_health(DcId dc, const DcHealth& health) {
  dc_health_[dc.value()] = health;
}

void PdmeExecutive::restore_command_revision(DcId dc,
                                             std::uint64_t revision) {
  std::uint64_t& current = command_revisions_[dc.value()];
  current = std::max(current, revision);
}

void PdmeExecutive::expect_dc(DcId dc, SimTime since) {
  DcHealth& h = dc_health_[dc.value()];
  h.last_heard = std::max(h.last_heard, since);
}

void PdmeExecutive::note_dc_alive(DcId dc, SimTime at) {
  DcHealth& h = dc_health_[dc.value()];
  h.last_heard = std::max(h.last_heard, at);
  if (h.liveness != DcLiveness::Alive) {
    MPROS_LOG_INFO("pdme", "dc-%llu recovered (%s -> Alive)",
                   static_cast<unsigned long long>(dc.value()),
                   to_string(h.liveness));
    h.liveness = DcLiveness::Alive;
    ++stats_.liveness_transitions;
  }
}

void PdmeExecutive::accept(const net::HeartbeatMessage& hb, SimTime at) {
  PdmeMetrics& metrics = PdmeMetrics::instance();
  note_dc_alive(hb.dc, at);
  count(stats_.heartbeats_received, metrics.heartbeats_received);
  ++dc_health_[hb.dc.value()].heartbeats;
  // The advertised newest sequence reveals tail loss: gaps with no later
  // envelope arrival to expose them.
  count(stats_.gaps_detected, metrics.gaps_detected,
        receiver_.on_advertised(hb.dc, hb.last_sequence));
}

void PdmeExecutive::update_liveness(SimTime now) {
  MPROS_EXPECTS(cfg_.heartbeat_interval.micros() > 0);
  PdmeMetrics& metrics = PdmeMetrics::instance();
  const oosm::ReportLog& log = model_.report_log();
  metrics.report_records.set(static_cast<double>(log.size()));
  metrics.report_text_bytes.set(static_cast<double>(log.texts().bytes()));
  metrics.dedup_entries.set(static_cast<double>(core_.dedup_entries()));

  for (auto& [dc, h] : dc_health_) {
    const SimTime silent = now - h.last_heard;
    const auto missed = static_cast<std::size_t>(
        silent.micros() / cfg_.heartbeat_interval.micros());
    DcLiveness verdict = DcLiveness::Alive;
    if (missed >= cfg_.lost_after_missed) {
      verdict = DcLiveness::Lost;
    } else if (missed >= cfg_.stale_after_missed) {
      verdict = DcLiveness::Stale;
    }
    if (verdict != h.liveness) {
      // Watchdog only degrades; note_dc_alive handles recovery.
      if (verdict > h.liveness) {
        MPROS_LOG_WARN(
            "pdme", "dc-%llu %s -> %s: no data for %.0f s (%zu intervals)",
            static_cast<unsigned long long>(dc), to_string(h.liveness),
            to_string(verdict), silent.seconds(), missed);
        h.liveness = verdict;
        ++stats_.liveness_transitions;
      }
    }
  }
}

DcLiveness PdmeExecutive::dc_liveness(DcId dc) const {
  const auto it = dc_health_.find(dc.value());
  return it == dc_health_.end() ? DcLiveness::Alive : it->second.liveness;
}

const std::vector<MaintenanceItem>& PdmeExecutive::prioritized_list() const {
  return core_.prioritized_list();
}

std::vector<MaintenanceItem> PdmeExecutive::prioritized_list(
    ObjectId machine) const {
  return core_.prioritized_list(machine);
}

std::optional<fusion::PrognosticVector> PdmeExecutive::prognosis(
    ObjectId machine, FailureMode mode) const {
  return core_.prognosis(machine, mode);
}

fusion::PrognosticVector PdmeExecutive::trend_prognosis(
    ObjectId machine, FailureMode mode) const {
  return core_.trend_prognosis(machine, mode);
}

fusion::GroupState PdmeExecutive::group_state(
    ObjectId machine, domain::LogicalGroup group) const {
  return core_.group_state(machine, group);
}

std::vector<net::FailureReport> PdmeExecutive::reports_for(
    ObjectId machine) const {
  return core_.reports_for(machine);
}

void PdmeExecutive::attach_to_network(net::SimNetwork& network,
                                      const std::string& endpoint_name) {
  network_ = &network;
  endpoint_name_ = endpoint_name;
  network.register_endpoint(endpoint_name, [this](const net::Message& m) {
    // The wire is hostile (fault injection, §5.1 "fragmentary" inputs): a
    // datagram that does not parse is counted and dropped, never fatal.
    if (!deliver(m)) {
      count(stats_.malformed_dropped,
            PdmeMetrics::instance().malformed_dropped);
    }
  });
}

bool PdmeExecutive::deliver(const net::Message& message) {
  const auto type = net::try_peek_type(message.payload);
  if (!type.has_value()) return false;
  switch (*type) {
    // The report datagram decodes through the arena-based unwrapper and
    // funnels into submit(); sequence 0 skips dedup and acks.
    case net::MessageType::ReportBatchEnvelopeMsg: {
      const auto view =
          net::try_unwrap_reports_into(message.payload, decode_arena_);
      if (!view.has_value()) return false;
      ++stats_.batches_received;
      stats_.batched_reports += view->count;
      note_dc_alive(view->dc, message.delivered_at);
      const std::span<const net::ReportEnvelope> reports(decode_arena_.data(),
                                                         view->count);
      const bool duplicate_datagram =
          view->sequence != 0 &&
          receiver_.is_duplicate(view->dc, view->sequence);
      if (!duplicate_datagram) {
        PdmeMetrics& metrics = PdmeMetrics::instance();
        for (const net::ReportEnvelope& env : reports) {
          // The transit span exists only to be recorded under its trace.
          if (env.report.trace != 0) {
            telemetry::StageTimer transit("net.transit", env.report.trace,
                                          message.sent_at.micros());
            transit.set_sim_end(message.delivered_at.micros());
          }
          metrics.report_pipeline_latency_us.observe(static_cast<double>(
              (message.delivered_at - env.report.timestamp).micros()));
        }
      }
      submit(reports);
      if (view->sequence != 0 && network_ != nullptr) {
        // Ack fresh and duplicate datagrams alike — a retransmission may
        // mean our previous ack was the datagram that got lost.
        network_->send(endpoint_name_,
                       "dc-" + std::to_string(view->dc.value()),
                       net::wrap(receiver_.make_ack(view->dc)),
                       message.delivered_at);
        ++stats_.acks_sent;
      }
      return true;
    }
    case net::MessageType::Heartbeat: {
      const auto hb = net::try_unwrap_heartbeat(message.payload);
      if (!hb.has_value()) return false;
      accept(*hb, message.delivered_at);
      return true;
    }
    case net::MessageType::SensorData: {
      const auto data = net::try_unwrap_sensor_data(message.payload);
      if (!data.has_value()) return false;
      note_dc_alive(data->dc, message.delivered_at);
      accept(*data);
      return true;
    }
    case net::MessageType::Ack: {
      // A DC acking its command stream (report-stream acks flow PDME->DC
      // and never arrive here).
      const auto ack = net::try_unwrap_ack(message.payload);
      if (!ack.has_value()) return false;
      note_dc_alive(ack->dc, message.delivered_at);
      const auto it = command_senders_.find(ack->dc.value());
      if (it != command_senders_.end()) {
        it->second->on_ack(*ack);
        ++stats_.command_acks;
      }
      return true;
    }
    case net::MessageType::TestCommand:
    case net::MessageType::Command:
    case net::MessageType::CommandEnvelopeMsg:
    case net::MessageType::FleetSummaryEnvelopeMsg:
      return true;  // these address DCs or the shore tier, not the PDME
    case net::MessageType::FailureReportMsg:
    case net::MessageType::ReportEnvelopeMsg:
    case net::MessageType::ReportBatchMsg:
      return true;  // retired report tags: try_peek_type never yields them
  }
  return true;
}

std::uint64_t PdmeExecutive::send_command(
    DcId dc, std::vector<std::pair<std::string, double>> settings,
    std::string reason, SimTime at) {
  net::CommandMessage cmd;
  cmd.target = dc;
  cmd.revision = ++command_revisions_[dc.value()];
  cmd.issued_at = at;
  cmd.settings = std::move(settings);
  cmd.reason = std::move(reason);

  auto& sender = command_senders_[dc.value()];
  if (!sender) {
    // Default reliable-delivery tuning; the report path's ack algebra.
    sender = std::make_unique<net::ReliableSender>(dc);
  }
  std::vector<std::uint8_t> payload = sender->envelope(cmd, at);
  if (network_ != nullptr) {
    network_->send(endpoint_name_, "dc-" + std::to_string(dc.value()),
                   std::move(payload), at);
  }
  ++stats_.commands_sent;
  return cmd.revision;
}

void PdmeExecutive::sweep_commands(SimTime now) {
  if (network_ == nullptr) return;
  for (auto& [dc, sender] : command_senders_) {
    for (auto& payload : sender->due_retransmits(now)) {
      network_->send(endpoint_name_, "dc-" + std::to_string(dc),
                     std::move(payload), now);
    }
  }
}

const net::ReliableSender* PdmeExecutive::command_stream(DcId dc) const {
  const auto it = command_senders_.find(dc.value());
  return it == command_senders_.end() ? nullptr : it->second.get();
}

void PdmeExecutive::accept(const net::SensorDataMessage& data) {
  ++stats_.sensor_batches;
  // A logged report is immutable: a batch addressed to one is dropped like
  // one addressed to an unknown id.
  if (!model_.exists(data.machine) ||
      model_.report_index(data.machine).has_value()) {
    return;
  }
  for (const auto& [key, value] : data.values) {
    model_.set_property(data.machine, key, value);
  }
  model_.set_property(data.machine, "last_sensor_update_us",
                      data.timestamp.micros());
}

void PdmeExecutive::reset_machine(ObjectId machine) {
  core_.reset_machine(machine);
  model_.reset_reports(machine);
}

}  // namespace mpros::pdme
