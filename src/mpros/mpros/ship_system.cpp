#include "mpros/mpros/ship_system.hpp"

#include <cmath>

#include "mpros/common/assert.hpp"
#include "mpros/common/log.hpp"
#include "mpros/pdme/health.hpp"

namespace mpros {

namespace {

/// Durability mirror tables (alongside the journal's five oosm_* tables).
constexpr const char* kShipMetaTable = "ship_meta";
constexpr const char* kDcConfigTable = "dc_config";
constexpr const char* kDcHealthTable = "pdme_dc_health";
/// ship_meta primary key of the committed-through clock row.
constexpr std::int64_t kCommittedThroughKey = 1;

}  // namespace

ShipSystem::ShipSystem(ShipSystemConfig cfg)
    : cfg_(cfg),
      network_(cfg.network),
      pool_(cfg.worker_threads),
      supervisor_(cfg.supervisor) {
  MPROS_EXPECTS(cfg.plant_count >= 1);

  if (cfg_.enable_durability) {
    MPROS_EXPECTS(!cfg_.durability.directory.empty());
    // Construction IS recovery: whatever the last crash left committed in
    // the directory is rebuilt here (snapshot + WAL replay, torn tail
    // truncated).
    durable_ = std::make_unique<db::DurableDatabase>(cfg_.durability);
    recovered_ =
        durable_->db().has_table(oosm::Persistence::kObjectsTable) &&
        durable_->db().table(oosm::Persistence::kObjectsTable).row_count() > 0;
  }

  const std::size_t decks =
      std::max<std::size_t>(1, (cfg.plant_count + 1) / 2);
  if (recovered_) {
    // The committed tables are the authoritative model; the journal then
    // adopts them and keeps mirroring from here on.
    model_ = oosm::Persistence::load(durable_->db());
    model_journal_ =
        std::make_unique<oosm::DurableModelJournal>(model_, durable_->db());
    // Object ids are deterministic (sequential from 1, fixed build order),
    // so a scratch build of the same hull re-derives the recovered ids
    // without touching — or double-journalling — the live model.
    oosm::ObjectModel scratch;
    ship_ = oosm::build_ship(scratch, "USNS Mercy", decks,
                             /*plants_per_deck=*/2);
    const db::Row* meta =
        durable_->db().table(kShipMetaTable).find(kCommittedThroughKey);
    MPROS_ASSERT(meta != nullptr);  // committed with the oosm tables
    now_ = SimTime((*meta)[2].as_integer());
    MPROS_LOG_INFO("mpros",
                   "recovered durable ship state through %.0f s "
                   "(%llu commits, %llu records replayed)",
                   now_.seconds(),
                   static_cast<unsigned long long>(
                       durable_->recovery().commits_replayed),
                   static_cast<unsigned long long>(
                       durable_->recovery().records_replayed));
  } else {
    if (durable_) {
      // Attach before building so every ship object lands in the journal.
      model_journal_ =
          std::make_unique<oosm::DurableModelJournal>(model_, durable_->db());
    }
    ship_ = oosm::build_ship(model_, "USNS Mercy", decks,
                             /*plants_per_deck=*/2);
  }
  MPROS_EXPECTS(ship_.plants.size() >= cfg.plant_count);
  ship_.plants.resize(cfg.plant_count);

  if (cfg.enable_flight_recorder) {
    recorder_ = std::make_unique<telemetry::FlightRecorder>();
    telemetry::RecorderHeader header;
    header.pdme_dedup = cfg.pdme.deduplicate;
    header.plant_count = static_cast<std::uint32_t>(cfg.plant_count);
    header.seed = cfg.seed;
    recorder_->set_header(header);
    // Capture at the delivery point: what the recorder holds is exactly
    // what the endpoints saw, post latency/drop/duplication — the stream a
    // replay must feed a fresh PDME to reproduce this run.
    telemetry::FlightRecorder* rec = recorder_.get();
    network_.set_delivery_tap([rec](const net::Message& msg) {
      rec->record_message(msg.delivered_at.micros(), msg.from, msg.to,
                          msg.payload);
    });
  }

  // The watchdog interval must match the cadence the DCs actually beat.
  const SimTime requested = cfg_.pdme.heartbeat_interval;
  if (requested.micros() != pdme::PdmeConfig{}.heartbeat_interval.micros() &&
      requested.micros() != cfg_.dc_template.heartbeat_period.micros()) {
    MPROS_LOG_WARN("mpros",
                   "pdme.heartbeat_interval %.0f s conflicts with "
                   "dc_template.heartbeat_period %.0f s; using the DC "
                   "period (the watchdog must match the beat cadence)",
                   requested.seconds(),
                   cfg_.dc_template.heartbeat_period.seconds());
  }
  cfg_.pdme.heartbeat_interval = cfg_.dc_template.heartbeat_period;
  pdme_ = std::make_unique<pdme::PdmeExecutive>(model_, cfg_.pdme);
  if (recovered_) {
    // Re-fold every persisted report object in creation order so the fused
    // beliefs match the crashed run's bit for bit.
    pdme_->rebuild_from_model();
  }
  pdme_->attach_to_network(network_);
  if (cfg.enable_fleet_analyzer) {
    resident_ = std::make_unique<pdme::FleetComparativeAnalyzer>(
        *pdme_, cfg.fleet_analyzer);
  }

  std::shared_ptr<nn::WnnClassifier> wnn;
  if (cfg.use_wnn) wnn = train_wnn_classifier(cfg.wnn_training);

  for (std::size_t p = 0; p < cfg.plant_count; ++p) {
    plant::ChillerConfig chiller_cfg;
    chiller_cfg.load_fraction = cfg.initial_load;
    chiller_cfg.seed = splitmix64(cfg.seed ^ (p * 0x9E37));
    plants_.push_back(std::make_unique<plant::ChillerSimulator>(chiller_cfg));

    dc::DcConfig dc_cfg = cfg.dc_template;
    dc_cfg.id = DcId(p + 1);
    const oosm::ChillerPlant& objs = ship_.plants[p];
    dc::MachineRefs refs{objs.chiller, objs.motor, objs.gearbox,
                         objs.compressor};
    // A recovered ship anchors the DC schedules after the committed clock:
    // the plants re-simulate the already-fused interval deterministically
    // (same seeds), but no test may fire inside it and re-mutate the model.
    dcs_.push_back(std::make_unique<dc::DataConcentrator>(
        dc_cfg, refs, *plants_.back(), wnn,
        /*start_at=*/recovered_ ? now_ : SimTime(0)));

    // Each DC listens on the ship's network for §5.8 scheduler commands and
    // PDME acknowledgements (handlers run on the driver thread during
    // advance_to, when the DC's worker is idle).
    network_.register_endpoint(
        "dc-" + std::to_string(p + 1), [this, p](const net::Message& msg) {
          dcs_[p]->handle_wire(msg);
          record_dc_events(p);
        });
    // Register with the watchdog so a DC partitioned before its first
    // datagram is still missed.
    pdme_->expect_dc(DcId(p + 1), SimTime(0));
  }

  if (durable_ && !recovered_) {
    using db::ColumnDef;
    using db::ValueType;
    db::Database& db = durable_->db();
    db.create_table(db::TableSchema{
        kShipMetaTable,
        {ColumnDef{"id", ValueType::Integer, false},
         ColumnDef{"key", ValueType::Text, false},
         ColumnDef{"value", ValueType::Integer, false}}});
    db.insert(kShipMetaTable,
              {db::Value(kCommittedThroughKey),
               db::Value(std::string("committed_through_us")),
               db::Value(std::int64_t{0})});
    db.create_table(db::TableSchema{
        kDcConfigTable,
        {ColumnDef{"id", ValueType::Integer, false},
         ColumnDef{"dc", ValueType::Integer, false},
         ColumnDef{"key", ValueType::Text, false},
         ColumnDef{"value", ValueType::Real, false}}});
    // Keyed by DC id: one watchdog record per concentrator.
    db.create_table(db::TableSchema{
        kDcHealthTable,
        {ColumnDef{"id", ValueType::Integer, false},
         ColumnDef{"liveness", ValueType::Integer, false},
         ColumnDef{"last_heard_us", ValueType::Integer, false},
         ColumnDef{"heartbeats", ValueType::Integer, false}}});
  } else if (recovered_) {
    // dc_config mirror -> each DC's control plane (applied settings and
    // command revision), and the row-key bookkeeping future upserts need.
    std::vector<std::vector<std::pair<std::string, double>>> restored(
        dcs_.size());
    for (const auto& [row_key, row] :
         durable_->db().table(kDcConfigTable).rows()) {
      const auto dc = static_cast<std::size_t>(row[1].as_integer());
      if (dc < 1 || dc > dcs_.size()) continue;  // shrunk fleet; stale row
      restored[dc - 1].emplace_back(row[2].as_text(), row[3].as_real());
      dc_config_rows_.emplace(std::pair{dc - 1, row[2].as_text()}, row_key);
    }
    for (std::size_t i = 0; i < dcs_.size(); ++i) {
      if (restored[i].empty()) continue;
      dcs_[i]->restore_config(restored[i]);
      // The DC rejects command revisions at or below the one it already
      // applied, so the recovered PDME must resume stamping past it.
      for (const auto& [key, value] : restored[i]) {
        if (key == "__revision") {
          pdme_->restore_command_revision(
              DcId(i + 1),
              static_cast<std::uint64_t>(std::llround(value)));
        }
      }
    }
    // pdme_dc_health mirror -> watchdog records (the browser renders
    // last-heard/heartbeats, so the recovered ship must report the values
    // the crashed one had).
    for (const auto& [row_key, row] :
         durable_->db().table(kDcHealthTable).rows()) {
      pdme::DcHealth health;
      health.liveness = static_cast<pdme::DcLiveness>(row[1].as_integer());
      health.last_heard = SimTime(row[2].as_integer());
      health.heartbeats = static_cast<std::uint64_t>(row[3].as_integer());
      pdme_->restore_dc_health(DcId(static_cast<std::uint64_t>(row_key)),
                               health);
    }
  }

  step_horizon_ = std::max(SimTime::from_hours(1.0),
                           SimTime(cfg_.supervisor.wedge_timeout.micros() * 2));

  if (cfg_.uplink.enabled) {
    MPROS_EXPECTS(cfg_.uplink.summary_period.micros() > 0);
    MPROS_EXPECTS(cfg_.uplink.heartbeat_period.micros() > 0);
    if (cfg_.uplink.name.empty()) cfg_.uplink.name = model_.name(ship_.ship);
    if (cfg_.uplink.endpoint.empty()) {
      cfg_.uplink.endpoint =
          "hull-" + std::to_string(cfg_.uplink.ship.value());
    }
    uplink_endpoint_ = cfg_.uplink.endpoint;
    // One reliable stream per hull: the sender's DcId slot carries the
    // ShipId value (see fleet_summary.hpp), same sequencing algebra.
    uplink_ = std::make_unique<net::ReliableSender>(
        DcId(cfg_.uplink.ship.value()), cfg_.uplink.reliable);
    next_summary_due_ = cfg_.uplink.summary_period;
    next_heartbeat_due_ = cfg_.uplink.heartbeat_period;
    // A recovered ship already emitted everything due through now_ (the
    // advance loop leaves both dues strictly past the barrier it committed).
    while (next_summary_due_ <= now_) {
      next_summary_due_ += cfg_.uplink.summary_period;
    }
    while (next_heartbeat_due_ <= now_) {
      next_heartbeat_due_ += cfg_.uplink.heartbeat_period;
    }
  }
}

plant::ChillerSimulator& ShipSystem::chiller(std::size_t plant) {
  MPROS_EXPECTS(plant < plants_.size());
  return *plants_[plant];
}

dc::DataConcentrator& ShipSystem::concentrator(std::size_t plant) {
  MPROS_EXPECTS(plant < dcs_.size());
  return *dcs_[plant];
}

const oosm::ChillerPlant& ShipSystem::plant_objects(std::size_t plant) const {
  MPROS_EXPECTS(plant < ship_.plants.size());
  return ship_.plants[plant];
}

std::size_t ShipSystem::advance_to(SimTime t) {
  MPROS_EXPECTS(t >= now_);
  // Record the step boundary: a recovered DC replays exactly this grid.
  step_log_.push_back(t);
  while (!step_log_.empty() && step_log_.front() + step_horizon_ < t) {
    step_log_.pop_front();
  }

  // Fan the DC duty cycles out across the pool; each DC touches only its
  // own chiller and database, and the network's send() is thread-safe.
  std::vector<std::vector<net::FailureReport>> per_dc(dcs_.size());
  pool_.parallel_for(dcs_.size(), [&](std::size_t i) {
    per_dc[i] = dcs_[i]->advance_to(t);
  });
  for (std::size_t i = 0; i < dcs_.size(); ++i) record_dc_events(i);

  // Supervised recovery: a DC whose progress tick froze is unwedged and
  // caught up (restart_dc_to flushes each catch-up slice itself) before
  // the regular flush below.
  for (std::size_t i = 0; i < dcs_.size(); ++i) {
    if (!supervisor_.observe(DcId(i + 1), dcs_[i]->progress(), t)) continue;
    restart_dc_to(i, t);
    supervisor_.notify_restarted(DcId(i + 1), dcs_[i]->progress(), t);
  }

  // Serialize and send on the driver thread in DC order so the wire
  // schedule is deterministic; the transport then adds latency/jitter.
  for (std::size_t i = 0; i < per_dc.size(); ++i) {
    flush_dc(i, per_dc[i]);
  }

  now_ = t;
  const std::size_t delivered = network_.advance_to(now_);
  pdme_->update_liveness(now_);
  // Control plane: retransmit unacked commands whose backoff timer expired.
  pdme_->sweep_commands(now_);
  if (resident_) {
    // Resident conclusions enter fusion directly (no wire hop needed).
    resident_->scan(now_);
  }

  // Fleet tier: at the aggregation barrier everything fused through `now_`
  // is visible, so this is the moment the shore digest is honest. Seal one
  // summary per elapsed cadence boundary, sweep the retransmit window, and
  // beat the uplink heartbeat.
  if (uplink_) {
    while (now_ >= next_summary_due_) {
      uplink_outbox_.push_back(
          {uplink_->envelope(fleet_summary(now_), now_), now_});
      next_summary_due_ += cfg_.uplink.summary_period;
    }
    for (std::vector<std::uint8_t>& payload : uplink_->due_retransmits(now_)) {
      uplink_outbox_.push_back({std::move(payload), now_});
    }
    while (now_ >= next_heartbeat_due_) {
      const net::HeartbeatMessage hb{DcId(cfg_.uplink.ship.value()),
                                     next_heartbeat_due_,
                                     uplink_->last_sequence()};
      uplink_outbox_.push_back({net::wrap(hb), next_heartbeat_due_});
      next_heartbeat_due_ += cfg_.uplink.heartbeat_period;
    }
  }

  // Config deltas drain at every barrier, so a ship without durability
  // keeps none. Pull, don't push: the DCs queued them on their worker
  // threads; the mirror write happens here, on the driver, in DC order.
  for (std::size_t i = 0; i < dcs_.size(); ++i) {
    for (const auto& [key, value] : dcs_[i]->drain_config_updates()) {
      if (durable_) mirror_dc_setting(i, key, value);
    }
  }
  // Durability barrier: everything the window changed — model events (the
  // journal already buffered those as they happened), the DC config deltas
  // just mirrored, watchdog records, the committed-through clock — becomes
  // one WAL commit with one fsync. A crash anywhere before the next barrier
  // rolls back to exactly this state.
  if (durable_) durable_commit(now_);
  return delivered;
}

void ShipSystem::mirror_dc_setting(std::size_t i, const std::string& key,
                                   double value) {
  db::Database& db = durable_->db();
  const auto map_key = std::pair{i, key};
  const auto it = dc_config_rows_.find(map_key);
  if (it == dc_config_rows_.end()) {
    const std::int64_t row =
        db.insert_auto(kDcConfigTable,
                       {db::Value(static_cast<std::int64_t>(i + 1)),
                        db::Value(key), db::Value(value)});
    dc_config_rows_.emplace(map_key, row);
    return;
  }
  const db::Row* current = db.table(kDcConfigTable).find(it->second);
  MPROS_ASSERT(current != nullptr);
  if ((*current)[3].as_real() == value) return;  // re-mirror of same value
  db.update(kDcConfigTable, it->second, "value", db::Value(value));
}

void ShipSystem::durable_commit(SimTime t) {
  db::Database& db = durable_->db();
  const db::Table& health_table = db.table(kDcHealthTable);
  for (const auto& [dc, health] : pdme_->dc_health()) {
    const auto key = static_cast<std::int64_t>(dc);
    const db::Row* row = health_table.find(key);
    if (row == nullptr) {
      db.insert(kDcHealthTable,
                {db::Value(key),
                 db::Value(static_cast<std::int64_t>(health.liveness)),
                 db::Value(health.last_heard.micros()),
                 db::Value(static_cast<std::int64_t>(health.heartbeats))});
      continue;
    }
    // Column-wise delta so a quiet window journals nothing.
    const auto upsert = [&](const char* column, std::size_t idx,
                            std::int64_t value) {
      if ((*row)[idx].as_integer() != value) {
        db.update(kDcHealthTable, key, column, db::Value(value));
      }
    };
    upsert("liveness", 1, static_cast<std::int64_t>(health.liveness));
    upsert("last_heard_us", 2, health.last_heard.micros());
    upsert("heartbeats", 3, static_cast<std::int64_t>(health.heartbeats));
  }
  db.update(kShipMetaTable, kCommittedThroughKey, "value",
            db::Value(t.micros()));
  if (!durable_->commit()) {
    MPROS_LOG_ERROR("mpros",
                    "durable commit failed at %.0f s; state through the "
                    "previous barrier remains recoverable",
                    t.seconds());
  }
}

void ShipSystem::flush_dc(std::size_t i,
                          const std::vector<net::FailureReport>& reports) {
  const std::string endpoint = "dc-" + std::to_string(i + 1);
  dc::DataConcentrator& dc = *dcs_[i];
  if (!reports.empty()) {
    // The whole sync window rides one ReportBatch datagram sealed under a
    // single sequence number, so the retransmit window and ack traffic
    // scale with flushes, not reports.
    const SimTime at = reports.back().timestamp;
    network_.send(endpoint, "pdme", dc.reliable().envelope(reports, at), at);
  }
  for (const net::SensorDataMessage& batch : dc.drain_sensor_data()) {
    network_.send(endpoint, "pdme", net::wrap(batch), batch.timestamp);
  }
  for (dc::DataConcentrator::WireDatagram& dgram : dc.drain_wire_outbox()) {
    network_.send(endpoint, "pdme", std::move(dgram.payload), dgram.at);
  }
}

void ShipSystem::restart_dc_to(std::size_t i, SimTime t) {
  dc::DataConcentrator& dc = *dcs_[i];
  // A wedged DC left its plant, schedule and state where the hang found
  // them, so clearing the flag is the whole restart.
  const SimTime resume = plants_[i]->now();
  dc.set_wedged(false);
  if (recorder_) {
    recorder_->record_event(t.micros(), "dc-" + std::to_string(i + 1),
                            "supervised restart (resume from " +
                                std::to_string(resume.seconds()) + " s)");
  }
  // Catch up through the recorded assembler steps, flushing per slice:
  // reports seal (entering the retransmit window) at the same step
  // boundaries an unwedged run sealed them, so the sweep/backoff schedule
  // — and therefore the wire — is reproduced exactly.
  for (const SimTime s : step_log_) {
    if (s <= resume || s > t) continue;
    flush_dc(i, dc.advance_to(s));
    record_dc_events(i);
  }
}

void ShipSystem::record_dc_events(std::size_t i) {
  if (!recorder_) return;  // the DC's next advance_to() drops them
  for (const auto& [at, what, detail] : dcs_[i]->drain_events()) {
    recorder_->record_event(at.micros(), "dc-" + std::to_string(i + 1),
                            std::string(what) + detail);
  }
}

std::uint64_t ShipSystem::command_dc(
    std::size_t plant, std::vector<std::pair<std::string, double>> settings,
    std::string reason) {
  MPROS_EXPECTS(plant < dcs_.size());
  return pdme_->send_command(DcId(plant + 1), std::move(settings),
                             std::move(reason), now_);
}

void ShipSystem::wedge_dc(std::size_t plant, bool wedged) {
  MPROS_EXPECTS(plant < dcs_.size());
  dcs_[plant]->set_wedged(wedged);
}

net::FleetSummary ShipSystem::fleet_summary(SimTime at) const {
  net::FleetSummary summary;
  summary.ship = cfg_.uplink.ship;
  summary.ship_name =
      cfg_.uplink.name.empty() ? model_.name(ship_.ship) : cfg_.uplink.name;
  summary.timestamp = at;

  for (const auto& [dc, health] : pdme_->dc_health()) {
    switch (health.liveness) {
      case pdme::DcLiveness::Alive: ++summary.dcs_alive; break;
      case pdme::DcLiveness::Stale: ++summary.dcs_stale; break;
      case pdme::DcLiveness::Lost: ++summary.dcs_lost; break;
    }
  }
  summary.quarantine_active =
      static_cast<std::uint32_t>(pdme_->sensor_faults(true).size());
  summary.quarantine_total = pdme_->snapshot().sensor_fault_reports;

  const pdme::HealthRollup rollup;
  const std::map<ObjectId, pdme::HealthEntry> health = rollup.compute(*pdme_);
  for (const oosm::ChillerPlant& objs : ship_.plants) {
    for (const ObjectId machine :
         {objs.chiller, objs.motor, objs.gearbox, objs.compressor}) {
      net::MachineHealthSummary m;
      m.machine = machine;
      m.name = model_.name(machine);
      m.klass = domain::to_string(model_.kind(machine));
      const auto it = health.find(machine);
      m.health = it == health.end() ? 1.0 : it->second.rolled;
      const std::vector<pdme::MaintenanceItem> items =
          pdme_->prioritized_list(machine);
      if (!items.empty()) {
        const pdme::MaintenanceItem& top = items.front();
        m.has_diagnosis = true;
        m.top_mode = top.mode;
        m.top_belief = top.fused_belief;
        m.top_severity = top.max_severity;
        m.priority = top.priority;
        m.report_count = static_cast<std::uint32_t>(top.report_count);
        if (top.median_ttf.has_value()) {
          m.has_median_ttf = true;
          m.median_ttf = *top.median_ttf;
        }
      }
      summary.machines.push_back(std::move(m));
    }
  }
  return summary;
}

std::vector<ShipSystem::UplinkDatagram> ShipSystem::drain_uplink() {
  std::vector<UplinkDatagram> out;
  out.swap(uplink_outbox_);
  return out;
}

void ShipSystem::handle_uplink_wire(const net::Message& msg) {
  if (uplink_ == nullptr) return;
  // Shore traffic is as untrusted as any wire: fail-soft decode; a hull
  // accepts the cumulative ack and the shore-side control-plane downlink.
  const auto type = net::try_peek_type(msg.payload);
  if (!type.has_value()) return;
  if (*type == net::MessageType::Ack) {
    const auto ack = net::try_unwrap_ack(msg.payload);
    if (ack.has_value()) uplink_->on_ack(*ack);
    return;
  }
  if (*type == net::MessageType::Command) {
    // Shore downlink: re-issue on the shipboard PDME->DC command stream, so
    // the last hop gets shipboard-local acks/retransmits and a revision
    // stamped by this hull (the shore's fire-and-forget copy needs neither).
    const auto cmd = net::try_unwrap_command(msg.payload);
    if (!cmd.has_value()) return;
    pdme_->send_command(cmd->target, cmd->settings, cmd->reason,
                        msg.delivered_at);
  }
}

std::size_t ShipSystem::run_until(SimTime end, SimTime step) {
  MPROS_EXPECTS(step.micros() > 0);
  std::size_t delivered = 0;
  while (now_ < end) {
    delivered += advance_to(std::min(end, now_ + step));
  }
  return delivered;
}

void ShipSystem::record_maintenance_outcome(std::size_t plant,
                                            domain::FailureMode mode,
                                            bool confirmed) {
  MPROS_EXPECTS(plant < dcs_.size());
  if (confirmed) {
    dcs_[plant]->believability().record_confirmation(mode);
  } else {
    dcs_[plant]->believability().record_reversal(mode);
  }
  // Post-maintenance: the machine gets a clean slate at the PDME.
  const oosm::ChillerPlant& objs = ship_.plants[plant];
  for (const ObjectId machine :
       {objs.chiller, objs.motor, objs.gearbox, objs.compressor}) {
    pdme_->reset_machine(machine);
  }
}

ShipSystem::FleetStats ShipSystem::fleet_stats() const {
  FleetStats stats;
  for (const auto& dc : dcs_) {
    stats.samples_processed += dc->stats().samples_processed;
    stats.reports_emitted += dc->stats().reports_emitted;
  }
  stats.reports_fused = pdme_->snapshot().reports_accepted;
  stats.network = network_.stats();
  return stats;
}

}  // namespace mpros
