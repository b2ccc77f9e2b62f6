#include "replay.hpp"

#include <filesystem>
#include <memory>

#include "mpros/db/durable.hpp"
#include "mpros/oosm/ship_builder.hpp"
#include "mpros/pdme/browser.hpp"
#include "mpros/rules/features.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// Every per-layer metric, in BENCHMARK.json order.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"plant.acquire_ns", "ns"},
    {"dsp.vibration_frame_ns", "ns"},
    {"dsp.current_frame_ns", "ns"},
    {"dsp.allocs_per_frame", "count"},
    {"dc.window_ns", "ns"},
    {"dc.cpu_ns", "ns"},
    {"dc.allocs_per_window", "count"},
    {"dc.vibration_tests", "count"},
    {"dc.process_scans", "count"},
    {"dc.reports_emitted", "count"},
    {"net.encode_ns_per_report", "ns"},
    {"net.decode_ns_per_report", "ns"},
    {"net.bytes_per_report", "bytes"},
    {"net.delivered", "count"},
    {"net.dropped", "count"},
    {"net.duplicated", "count"},
    {"net.retransmits", "count"},
    {"pdme.submit_ns_per_report", "ns"},
    {"pdme.sync_ns_per_window", "ns"},
    {"pdme.allocs_per_report", "count"},
    {"pdme.reports_accepted", "count"},
    {"pdme.duplicates_dropped", "count"},
    {"pdme.malformed_dropped", "count"},
    {"pdme.render_ns", "ns"},
    {"oosm.objects", "count"},
    {"oosm.rss_bytes_per_report", "bytes"},
    {"db.commit_ns", "ns"},
    {"db.wal_bytes_per_window", "bytes"},
    {"db.wal_records_per_window", "count"},
    {"db.fsyncs", "count"},
    {"db.recover_records", "count"},
    {"db.replay_records_per_s", "1/s"},
    {"fleet.summary_ns", "ns"},
    {"fleet.accept_ns_per_summary", "ns"},
    {"fleet.publish_ns", "ns"},
    {"fleet.read_ns", "ns"},
    {"fleet.summary_bytes", "bytes"},
    {"fleet.summaries_applied", "count"},
    {"fleet.duplicates_dropped", "count"},
    {"ingest.generator_late_ms", "ms"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

/// Per-layer accumulators filled by the replay, keyed by metric name.
struct Ledger {
  struct Acc {
    double total = 0.0;
    double n = 0.0;
  };
  std::map<std::string, Acc> acc;
  /// Summed time (ns) of the re-driven calls that block a window.
  double blocking_ns = 0.0;

  void add(const std::string& name, double value, double n = 1.0) {
    Acc& a = acc[name];
    a.total += value;
    a.n += n;
  }
  [[nodiscard]] bool has(const std::string& name) const {
    const auto it = acc.find(name);
    return it != acc.end() && it->second.n > 0;
  }
  /// total / n, 0 when absent.
  [[nodiscard]] double per(const std::string& name) const {
    const auto it = acc.find(name);
    return it == acc.end() || it->second.n == 0 ? 0.0
                                                : it->second.total / it->second.n;
  }
};

/// Vibration tests re-driven per DC for the plant and DSP ledgers.
constexpr std::size_t kDspTestsPerDc = 8;

bool is_report_form(net::MessageType t) {
  return t == net::MessageType::FailureReportMsg ||
         t == net::MessageType::ReportEnvelopeMsg ||
         t == net::MessageType::ReportBatchMsg ||
         t == net::MessageType::ReportBatchEnvelopeMsg;
}

/// plant: ChillerSimulator acquisitions; dsp: FeatureExtractor frames, on
/// the DC's own chiller config, seed and fault schedule.
void replay_plant_dsp(const DcSpec& spec, const std::vector<SimTime>& windows,
                      SpanLog& spans, Ledger& ledger) {
  plant::ChillerSimulator chiller(spec.chiller);
  for (const plant::FaultEvent& e : spec.faults) chiller.faults().schedule(e);
  const rules::FeatureExtractor extractor(chiller.signature());
  std::vector<double> vib(spec.cfg.window);
  std::vector<double> cur(spec.cfg.current_window);
  const std::size_t stride =
      std::max<std::size_t>(1, windows.size() / kDspTestsPerDc);
  for (std::size_t k = stride - 1; k < windows.size(); k += stride) {
    while (chiller.now() < windows[k]) {
      chiller.advance(std::min(SimTime::from_seconds(30.0),
                               windows[k] - chiller.now()));
    }
    const auto w = static_cast<std::int64_t>(k);
    int sp = spans.open("plant.acquire_current", w);
    chiller.acquire_current(spec.cfg.current_sample_rate_hz, cur);
    double acquire_ns = spans.close(sp);

    rules::FeatureFrame frame;
    std::uint64_t a0 = allocations();
    sp = spans.open("dsp.current_frame", w);
    extractor.extract_current(cur, spec.cfg.current_sample_rate_hz,
                              chiller.load(), frame);
    ledger.add("dsp.current_frame_ns", spans.close(sp));
    ledger.add("dsp.allocs_per_frame", static_cast<double>(allocations() - a0));

    for (const plant::MachinePoint point :
         {plant::MachinePoint::Motor, plant::MachinePoint::Gearbox,
          plant::MachinePoint::Compressor}) {
      sp = spans.open("plant.acquire_vibration", w);
      chiller.acquire_vibration(point, spec.cfg.sample_rate_hz, vib);
      acquire_ns += spans.close(sp);
      a0 = allocations();
      sp = spans.open("dsp.vibration_frame", w);
      extractor.extract_vibration(vib, spec.cfg.sample_rate_hz, frame);
      ledger.add("dsp.vibration_frame_ns", spans.close(sp));
      ledger.add("dsp.allocs_per_frame",
                 static_cast<double>(allocations() - a0));
    }
    ledger.add("plant.acquire_ns", acquire_ns);
  }
}

/// dc: DataConcentrator::advance_to per window (inclusive of plant and
/// DSP), fed the datagrams the live DC received. Returns reports emitted.
std::uint64_t replay_dc(const DcSpec& spec, const HullCapture& hull,
                        const std::vector<SimTime>& windows, SpanLog& spans,
                        Ledger& ledger) {
  plant::ChillerSimulator chiller(spec.chiller);
  for (const plant::FaultEvent& e : spec.faults) chiller.faults().schedule(e);
  dc::DataConcentrator dcon(spec.cfg, spec.refs, chiller);
  const std::string endpoint = "dc-" + std::to_string(spec.cfg.id.value());
  std::vector<const Delivery*> inbox;
  for (const Delivery& d : hull.deliveries) {
    if (d.message.to == endpoint) inbox.push_back(&d);
  }
  std::uint64_t emitted = 0;
  std::size_t next = 0;
  for (std::size_t k = 0; k < windows.size(); ++k) {
    const std::uint64_t a0 = allocations();
    const double c0 = thread_cpu_s();
    const int sp = spans.open("dc.window", static_cast<std::int64_t>(k), -1,
                              /*inclusive=*/true);
    emitted += dcon.advance_to(windows[k]).size();
    const double ns = spans.close(sp);
    ledger.add("dc.cpu_ns", (thread_cpu_s() - c0) * 1e9);
    ledger.add("dc.allocs_per_window", static_cast<double>(allocations() - a0));
    ledger.add("dc.window_ns", ns);
    ledger.blocking_ns += ns;
    for (; next < inbox.size() && inbox[next]->window == k; ++next) {
      dcon.handle_wire(inbox[next]->message);
    }
    (void)dcon.drain_sensor_data();
    (void)dcon.drain_wire_outbox();
  }
  return emitted;
}

/// net + pdme: decode each captured datagram (try_unwrap_reports_into),
/// submit it to a fresh PdmeExecutive over the same hull, re-seal it
/// (ReliableSender::envelope), and run the barrier calls per window.
std::string replay_pdme(const HullCapture& hull,
                        const std::vector<SimTime>& windows, SpanLog& spans,
                        Ledger& ledger) {
  oosm::ObjectModel model;
  (void)oosm::build_ship(model, hull.ship_name, hull.decks, 2);
  pdme::PdmeExecutive pdme(model, hull.pdme);
  for (std::size_t i = 1; i <= hull.dc_count; ++i) {
    pdme.expect_dc(DcId(i), SimTime(0));
  }
  std::map<std::uint64_t, std::unique_ptr<net::ReliableSender>> senders;
  std::vector<net::ReportEnvelope> arena;
  std::vector<net::FailureReport> reports;
  std::size_t next = 0;
  for (std::size_t k = 0; k < windows.size(); ++k) {
    const auto w = static_cast<std::int64_t>(k);
    const int root = spans.open("window", w);
    for (; next < hull.deliveries.size() &&
           hull.deliveries[next].window == k;
         ++next) {
      const net::Message& msg = hull.deliveries[next].message;
      if (msg.to != "pdme") continue;
      const auto type = net::try_peek_type(msg.payload);
      if (!type.has_value()) continue;
      if (*type == net::MessageType::Heartbeat) {
        if (const auto hb = net::try_unwrap_heartbeat(msg.payload)) {
          pdme.accept(*hb, msg.delivered_at);
        }
        continue;
      }
      if (*type == net::MessageType::SensorData) {
        if (const auto data = net::try_unwrap_sensor_data(msg.payload)) {
          pdme.note_dc_alive(data->dc, msg.delivered_at);
          pdme.accept(*data);
        }
        continue;
      }
      if (!is_report_form(*type)) continue;

      int sp = spans.open("net.decode", w, root);
      const auto view = net::try_unwrap_reports_into(msg.payload, arena);
      double ns = spans.close(sp);
      if (!view.has_value() || view->count == 0) continue;
      const auto n = static_cast<double>(view->count);
      ledger.add("net.decode_ns_per_report", ns, n);
      ledger.add("net.bytes_per_report",
                 static_cast<double>(msg.payload.size()), n);
      ledger.blocking_ns += ns;

      pdme.note_dc_alive(view->dc, msg.delivered_at);
      const std::uint64_t a0 = allocations();
      sp = spans.open("pdme.submit", w, root);
      (void)pdme.submit({arena.data(), view->count});
      ns = spans.close(sp);
      ledger.add("pdme.submit_ns_per_report", ns, n);
      ledger.add("pdme.allocs_per_report",
                 static_cast<double>(allocations() - a0), n);
      ledger.blocking_ns += ns;

      reports.clear();
      for (std::size_t i = 0; i < view->count; ++i) {
        reports.push_back(arena[i].report);
      }
      auto& sender = senders[view->dc.value()];
      if (!sender) sender = std::make_unique<net::ReliableSender>(view->dc);
      sp = spans.open("net.encode", w, root);
      (void)sender->envelope(std::span<const net::FailureReport>(reports),
                             msg.sent_at);
      ns = spans.close(sp);
      ledger.add("net.encode_ns_per_report", ns, n);
      ledger.blocking_ns += ns;
    }
    const int sp = spans.open("pdme.sync", w, root);
    pdme.synchronize();
    pdme.update_liveness(windows[k]);
    pdme.sweep_commands(windows[k]);
    const double ns = spans.close(sp);
    ledger.add("pdme.sync_ns_per_window", ns);
    ledger.blocking_ns += ns;
    spans.close(root);
  }
  for (int rep = 0; rep < 5; ++rep) {
    const int sp = spans.open("pdme.render", -1);
    (void)pdme.prioritized_list();
    (void)pdme::export_icas_csv(pdme, model);
    ledger.add("pdme.render_ns", spans.close(sp));
  }
  return pdme::export_icas_csv(pdme, model);
}

/// db: DurableDatabase recovery over a copy of the WAL directory, then the
/// captured commits re-applied and group-committed (with fsync) one by one.
void replay_db(const std::string& wal_dir, const std::string& scratch,
               SpanLog& spans, Ledger& ledger) {
  const std::string copy = scratch + "/db-recover";
  fs::remove_all(copy);
  fs::copy(wal_dir, copy, fs::copy_options::recursive);
  db::DurabilityConfig rc;
  rc.directory = copy;
  const int rec = spans.open("db.recover", -1);
  const db::DurableDatabase recovered(rc);
  const double rec_ns = spans.close(rec);
  const auto records =
      static_cast<double>(recovered.recovery().records_replayed);
  ledger.add("db.recover_records", records);
  ledger.add("db.replay_records_per_s", records, rec_ns / 1e9);

  db::DurabilityConfig cc;
  cc.directory = scratch + "/db-commit";
  fs::remove_all(cc.directory);
  db::DurableDatabase target(cc);
  std::uint64_t current = 0;
  const auto commit = [&] {
    const int sp = spans.open("db.commit", static_cast<std::int64_t>(current));
    (void)target.commit();
    const double ns = spans.close(sp);
    ledger.add("db.commit_ns", ns);
    ledger.blocking_ns += ns;
  };
  (void)db::WriteAheadLog::replay(
      db::DurableDatabase::wal_path(wal_dir), 0,
      [&](std::uint64_t seq, db::RedoOp&& op) {
        if (current != 0 && seq != current) commit();
        current = seq;
        return db::apply_redo(target.db(), std::move(op));
      });
  if (current != 0) commit();
}

/// fleet: FleetServer::accept on the captured shore deliveries, publish()
/// per window, and a fleet-view read per window.
std::string replay_fleet(const Capture& cap, SpanLog& spans, Ledger& ledger) {
  fleet::FleetServer server(cap.server);
  for (const auto& [ship, name] : cap.ships) {
    server.expect_ship(ship, name, SimTime(0));
  }
  std::shared_ptr<const fleet::FleetSnapshot> snap;
  std::size_t next = 0;
  for (std::size_t k = 0; k < cap.windows.size(); ++k) {
    const auto w = static_cast<std::int64_t>(k);
    for (; next < cap.shore.size() && cap.shore[next].window == k; ++next) {
      const net::Message& msg = cap.shore[next].message;
      if (msg.to != "fleet") continue;
      if (const auto env = net::try_unwrap_fleet_envelope(msg.payload)) {
        const int sp = spans.open("fleet.accept", w);
        (void)server.accept(*env, msg.delivered_at);
        const double ns = spans.close(sp);
        ledger.add("fleet.accept_ns_per_summary", ns);
        ledger.add("fleet.summary_bytes",
                   static_cast<double>(msg.payload.size()));
        ledger.blocking_ns += ns;
      } else if (const auto hb = net::try_unwrap_heartbeat(msg.payload)) {
        server.accept(*hb, msg.delivered_at);
      }
    }
    int sp = spans.open("fleet.publish", w);
    server.publish(cap.windows[k]);
    double ns = spans.close(sp);
    ledger.add("fleet.publish_ns", ns);
    ledger.blocking_ns += ns;
    sp = spans.open("fleet.read", w);
    server.refresh(snap);
    (void)server.render_fleet_view();
    ledger.add("fleet.read_ns", spans.close(sp));
  }
  for (const double ns : cap.summary_ns) {
    ledger.add("fleet.summary_ns", ns);
    ledger.blocking_ns += ns;
  }
  return server.render_fleet_view();
}

/// Re-drive every layer the capture has inputs for. Failed reproduction
/// checks land in `out`; `scratch_dir` receives db copies.
Ledger replay(const Capture& cap, SpanLog& spans, Result& out,
              const std::string& scratch_dir) {
  Ledger ledger;
  fs::create_directories(scratch_dir);
  for (std::size_t h = 0; h < cap.hulls.size(); ++h) {
    const HullCapture& hull = cap.hulls[h];
    const std::string label = "replay hull " + std::to_string(h + 1);
    if (!hull.dcs.empty()) {
      std::uint64_t emitted = 0;
      for (const DcSpec& spec : hull.dcs) {
        replay_plant_dsp(spec, cap.windows, spans, ledger);
        emitted += replay_dc(spec, hull, cap.windows, spans, ledger);
      }
      out.check(emitted == hull.reports_emitted,
                label + ": re-driven DCs emit the timed run's reports (" +
                    std::to_string(emitted) + " vs " +
                    std::to_string(hull.reports_emitted) + ")");
    }
    out.check(replay_pdme(hull, cap.windows, spans, ledger) == hull.icas,
              label + ": re-driven PDME exports the timed run's ICAS rows");
  }
  if (!cap.wal_dir.empty()) {
    replay_db(cap.wal_dir, scratch_dir, spans, ledger);
  }
  if (!cap.ships.empty()) {
    out.check(replay_fleet(cap, spans, ledger) == cap.fleet_view,
              "replay: re-driven FleetServer renders the timed fleet view");
  }
  return ledger;
}

}  // namespace

void finish_traced(const Options& opt, const Capture& own,
                   const LayerCounts& counts, double traced_p50_ms,
                   double untraced_p50_ms, const std::string& dir,
                   Result& out) {
  SpanLog spans;
  set_alloc_counting(true);
  const Ledger mine = replay(own, spans, out, dir + "/replay");
  set_alloc_counting(false);

  for (const LayerMetric& m : kLayerMetrics) {
    const std::string name = m.name;
    double value = 0.0;
    std::string note;
    if (name == "trace.coverage") {
      value = mine.blocking_ns / (own.window_ms_total * 1e6);
      note = "replayed blocking-layer time / captured window time";
    } else if (name == "trace.overhead") {
      value = traced_p50_ms / untraced_p50_ms;
      note = "captured / untraced window_ms_p50";
    } else if (counts.contains(name)) {
      value = counts.at(name);
      note = "timed run, one round";
    } else if (mine.has(name)) {
      value = mine.per(name);
      note = "replay";
    } else {
      note = "not on this workload's path";
    }
    out.layers.push_back({name, value, m.unit, note});
  }

  const std::string path = opt.run_dir + "/spans-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".json";
  out.check(spans.write_json(path), "span file written to " + path);
  out.extra.push_back({"spans", static_cast<double>(spans.size()), "count",
                       path});
}

}  // namespace perfbench
