// voyage and fleet_shore: whole hulls through fleet::FleetSim, one 60-s
// simulated window per FleetSim::advance_to(), lock-step as fast as the
// host allows (a closed loop).

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "mpros/common/rng.hpp"
#include "mpros/fleet/fleet_sim.hpp"
#include "mpros/pdme/browser.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr std::int64_t kWindowUs = 60'000'000;

SimTime window_end(std::size_t window) {
  return SimTime(static_cast<std::int64_t>(window + 1) * kWindowUs);
}

struct PlannedFault {
  std::size_t ship = 0;
  std::size_t plant = 0;
  plant::FaultEvent event;
};

struct FleetPlan {
  fleet::FleetSimConfig cfg;
  std::vector<PlannedFault> faults;
  std::size_t windows = 60;       ///< measured, after one warm-up window
  /// The operator read timed after every window (render_ms_p50).
  std::function<void(fleet::FleetSim&)> read;
  /// Back-to-back reads per window: a dashboard polls an unchanged
  /// snapshot far more often than it sees a new one.
  int reads_per_window = 1;
  std::size_t readers = 0;        ///< fleet-view reader threads
  std::vector<int> reader_cpus;   ///< one CPU per reader, when pinned
  /// Unmeasured windows allowed after the last barrier for lost shore
  /// summaries to be retransmitted and applied.
  std::size_t drain_windows = 0;
  bool durable = false;
};

using Checks = std::function<void(fleet::FleetSim&, Result&)>;

struct Round {
  double setup_s = 0.0;
  double warmup_ms = 0.0;
  std::vector<double> window_ms;
  std::vector<double> render_ms;
  std::vector<double> gap_ms;
  std::vector<double> reader_ms;  ///< concurrent fleet-view reads
  double measured_ms = 0.0;
  double cpu_ms = 0.0;         ///< process CPU over the windows, readers out
  std::uint64_t samples = 0;   ///< DAQ samples acquired in measured windows
  double recover_ms = 0.0;
  std::uint64_t rss_growth = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  LayerCounts layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

std::string hull_name(std::size_t k) {
  char name[32];
  std::snprintf(name, sizeof name, "Hull-%02zu", k + 1);
  return name;
}

/// The per-hull config FleetSim derives from its template. Recovery and
/// replay rebuild hulls from it; their byte-identity checks fail if this
/// ever drifts from fleet_sim.cpp.
ShipSystemConfig hull_config(const fleet::FleetSimConfig& cfg, std::size_t k) {
  ShipSystemConfig c = cfg.ship_template;
  c.uplink.enabled = true;
  c.uplink.ship = ShipId(k + 1);
  c.uplink.name = hull_name(k);
  c.uplink.endpoint.clear();
  c.seed = splitmix64(cfg.seed ^ ((k + 1) * 0x9E3779B9));
  if (c.worker_threads == 0) c.worker_threads = 1;
  return c;
}

void begin_capture(fleet::FleetSim& fleet, const fleet::FleetSimConfig& cfg,
                   Capture& cap, const std::size_t& window) {
  cap.hulls.resize(fleet.ship_count());
  for (std::size_t k = 0; k < fleet.ship_count(); ++k) {
    ShipSystem& ship = fleet.ship(k);
    const ShipSystemConfig sc = hull_config(cfg, k);
    HullCapture& h = cap.hulls[k];
    h.ship_name = "USNS Mercy";
    h.decks = std::max<std::size_t>(1, (sc.plant_count + 1) / 2);
    h.dc_count = sc.plant_count;
    h.pdme = sc.pdme;
    if (sc.dc_template.heartbeat_period.micros() > 0) {
      h.pdme.heartbeat_interval = sc.dc_template.heartbeat_period;
    }
    for (std::size_t p = 0; p < ship.plant_count(); ++p) {
      DcSpec d;
      d.cfg = sc.dc_template;
      d.cfg.id = DcId(p + 1);
      d.refs = ship.concentrator(p).machines();
      d.chiller.load_fraction = sc.initial_load;
      d.chiller.seed = splitmix64(sc.seed ^ (p * 0x9E37));
      d.faults = ship.chiller(p).faults().events();
      h.dcs.push_back(std::move(d));
    }
    ship.network().set_delivery_tap([&h, &window](const net::Message& m) {
      h.deliveries.push_back({window, m});
    });
  }
  cap.server = cfg.server;
  for (std::size_t k = 0; k < fleet.ship_count(); ++k) {
    cap.ships.emplace_back(ShipId(k + 1), hull_name(k));
  }
  fleet.shore().set_delivery_tap([&cap, &window](const net::Message& m) {
    cap.shore.push_back({window, m});
  });
}

void end_capture(fleet::FleetSim& fleet, Capture& cap) {
  for (std::size_t k = 0; k < fleet.ship_count(); ++k) {
    ShipSystem& ship = fleet.ship(k);
    ship.network().set_delivery_tap(nullptr);
    HullCapture& h = cap.hulls[k];
    h.icas = pdme::export_icas_csv(ship.pdme(), ship.model());
    h.reports_emitted = ship.fleet_stats().reports_emitted;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      (void)ship.fleet_summary(fleet.now());
      cap.summary_ns.push_back(ms_since(t0) * 1e6);
    }
  }
  fleet.shore().set_delivery_tap(nullptr);
  cap.fleet_view = fleet.server().render_fleet_view();
}

void pin_current_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

struct Reader {
  std::vector<double> ms;
  double cpu_s = 0.0;
  std::jthread thread;  ///< declared last: joins before ms is destroyed
};

fleet::FleetSimConfig round_config(const FleetPlan& plan,
                                   const std::string& wal_dir) {
  fleet::FleetSimConfig cfg = plan.cfg;
  if (plan.durable) {
    fs::remove_all(wal_dir);
    cfg.ship_template.enable_durability = true;
    cfg.ship_template.durability.directory = wal_dir;
  }
  return cfg;
}

/// Set-up: construct the fleet and seed its faults.
std::unique_ptr<fleet::FleetSim> build_fleet(const FleetPlan& plan,
                                             const fleet::FleetSimConfig& cfg,
                                             double& setup_s) {
  const auto t0 = Clock::now();
  auto fleet = std::make_unique<fleet::FleetSim>(cfg);
  for (const PlannedFault& f : plan.faults) {
    fleet->ship(f.ship).chiller(f.plant).faults().schedule(f.event);
  }
  setup_s = ms_since(t0) / 1e3;
  return fleet;
}

Round run_round(const FleetPlan& plan, const std::string& wal_dir,
                const Checks& checks, Capture* cap, Result& out) {
  Round r;
  const fleet::FleetSimConfig cfg = round_config(plan, wal_dir);
  const std::uint64_t rss0 = current_rss_bytes();
  auto fleet = build_fleet(plan, cfg, r.setup_s);

  std::size_t window = 0;
  if (cap != nullptr) begin_capture(*fleet, cfg, *cap, window);
  const auto samples_now = [&] {
    std::uint64_t n = 0;
    for (std::size_t k = 0; k < fleet->ship_count(); ++k) {
      n += fleet->ship(k).fleet_stats().samples_processed;
    }
    return n;
  };

  // Window 0 warms plan caches and lazy state; it is timed apart.
  const auto t_warm = Clock::now();
  fleet->advance_to(window_end(0));
  r.warmup_ms = ms_since(t_warm);
  const std::uint64_t samples0 = samples_now();

  std::vector<Reader> readers(plan.readers);
  const fleet::FleetServer& server = fleet->server();
  for (std::size_t i = 0; i < readers.size(); ++i) {
    Reader& rd = readers[i];
    const int cpu = plan.reader_cpus.empty() ? -1 : plan.reader_cpus[i];
    rd.thread = std::jthread([&rd, &server, cpu](std::stop_token stop) {
      if (cpu >= 0) pin_current_thread({cpu});
      const double c0 = thread_cpu_s();
      std::shared_ptr<const fleet::FleetSnapshot> snap;
      while (!stop.stop_requested()) {
        const auto t0 = Clock::now();
        server.refresh(snap);
        (void)server.render_fleet_view();
        rd.ms.push_back(ms_since(t0));
      }
      rd.cpu_s = thread_cpu_s() - c0;
    });
  }

  double render_cpu_s = 0.0;
  const double cpu0 = process_cpu_s();
  Clock::time_point last_end = Clock::now();
  for (window = 1; window <= plan.windows; ++window) {
    const auto w0 = Clock::now();
    if (window > 1) {
      r.gap_ms.push_back(
          std::chrono::duration<double, std::milli>(w0 - last_end).count());
    }
    fleet->advance_to(window_end(window));
    last_end = Clock::now();
    r.window_ms.push_back(
        std::chrono::duration<double, std::milli>(last_end - w0).count());
    const double c0 = thread_cpu_s();
    for (int i = 0; i < plan.reads_per_window; ++i) {
      const auto t0 = Clock::now();
      plan.read(*fleet);
      r.render_ms.push_back(ms_since(t0));
    }
    render_cpu_s += thread_cpu_s() - c0;
  }
  const double cpu1 = process_cpu_s();
  double reader_cpu_s = 0.0;
  for (Reader& rd : readers) {
    rd.thread.request_stop();
    rd.thread.join();
    reader_cpu_s += rd.cpu_s;
    r.reader_ms.insert(r.reader_ms.end(), rd.ms.begin(), rd.ms.end());
  }
  for (const double ms : r.window_ms) r.measured_ms += ms;
  r.cpu_ms = (cpu1 - cpu0 - reader_cpu_s - render_cpu_s) * 1e3;
  r.samples = samples_now() - samples0;

  // The last barrier: what the operator sees, and what recovery must match.
  std::string browser;
  std::string icas;
  if (plan.durable) {
    ShipSystem& ship = fleet->ship(0);
    browser = pdme::render_summary(ship.pdme(), ship.model());
    icas = pdme::export_icas_csv(ship.pdme(), ship.model());
  }
  if (cap != nullptr) {
    for (std::size_t w = 0; w <= plan.windows; ++w) {
      cap->windows.push_back(window_end(w));
    }
    cap->window_ms_total = r.warmup_ms + r.measured_ms;
    end_capture(*fleet, *cap);
  }

  // Settle the traffic still in flight so every emitted report and sealed
  // summary is accounted for, and the checks judge a settled fleet. None of
  // it is committed: recovery still rebuilds the last barrier.
  std::size_t advanced = plan.windows + 1;
  // Summaries sealed through the last barrier; later ones are the drain's.
  std::vector<std::uint64_t> sealed_at_barrier;
  for (std::size_t k = 0; k < fleet->ship_count(); ++k) {
    sealed_at_barrier.push_back(fleet->ship(k).uplink()->last_sequence());
  }
  const auto unapplied = [&] {
    std::uint64_t n = 0;
    for (std::size_t k = 0; k < fleet->ship_count(); ++k) {
      const std::uint64_t cum = fleet->server().cumulative(ShipId(k + 1));
      n += sealed_at_barrier[k] - std::min(sealed_at_barrier[k], cum);
    }
    return n;
  };
  fleet->shore().flush();
  for (std::size_t d = 0; d < plan.drain_windows && unapplied() > 0; ++d) {
    fleet->advance_to(window_end(advanced++));
    fleet->shore().flush();
  }
  fleet->server().publish(fleet->now());
  checks(*fleet, out);

  std::uint64_t emitted = 0, fused = 0, dups = 0, malformed = 0, vib = 0,
                scans = 0, retx = 0, objects = 0, sealed = 0;
  net::NetworkStats nets;
  const auto add_net = [&nets](const net::NetworkStats& s) {
    nets.delivered += s.delivered;
    nets.dropped += s.dropped;
    nets.duplicated += s.duplicated;
  };
  for (std::size_t k = 0; k < fleet->ship_count(); ++k) {
    ShipSystem& ship = fleet->ship(k);
    ship.network().flush();
    ship.pdme().synchronize();
    const ShipSystem::FleetStats fs = ship.fleet_stats();
    emitted += fs.reports_emitted;
    add_net(fs.network);
    const pdme::PdmeExecutive::Stats ps = ship.pdme().snapshot();
    fused += ps.reports_accepted;
    dups += ps.duplicates_dropped;
    malformed += ps.malformed_dropped;
    for (std::size_t p = 0; p < ship.plant_count(); ++p) {
      dc::DataConcentrator& dcon = ship.concentrator(p);
      vib += dcon.stats().vibration_tests;
      scans += dcon.stats().process_scans;
      retx += dcon.reliable().snapshot().retransmits;
    }
    sealed += sealed_at_barrier[k];
    retx += ship.uplink()->snapshot().retransmits;
    objects += ship.model().object_count();
  }
  add_net(fleet->shore().stats());
  const fleet::FleetServer::Stats ss = fleet->server().stats_snapshot();
  const std::uint64_t lost_reports = emitted - std::min(emitted, fused + dups);
  const std::uint64_t lost_summaries = unapplied();
  std::uint64_t failed_commits = 0;
  if (plan.durable) {
    const db::DurableDatabase& db = *fleet->ship(0).durable();
    const std::uint64_t commits = db.wal_stats().commits;
    failed_commits = advanced - std::min<std::uint64_t>(advanced, commits);
    r.layer["db.wal_bytes_per_window"] =
        static_cast<double>(db.wal_bytes()) / static_cast<double>(advanced);
    r.layer["db.wal_records_per_window"] =
        static_cast<double>(db.wal_stats().records) /
        static_cast<double>(advanced);
    r.layer["db.fsyncs"] = static_cast<double>(db.wal_stats().fsyncs);
    r.counts.emplace_back("db.commits", commits);
    r.counts.emplace_back("db.records", db.wal_stats().records);
  }
  r.attempted = emitted + sealed + (plan.durable ? advanced : 0);
  r.failed = lost_reports + lost_summaries + malformed + ss.malformed_dropped +
             failed_commits;
  const std::uint64_t rss1 = current_rss_bytes();
  r.rss_growth = rss1 > rss0 ? rss1 - rss0 : 0;

  r.counts.emplace_back("windows", advanced);
  r.counts.emplace_back("dc.vibration_tests", vib);
  r.counts.emplace_back("dc.process_scans", scans);
  r.counts.emplace_back("dc.reports_emitted", emitted);
  r.counts.emplace_back("pdme.reports_accepted", fused);
  r.counts.emplace_back("pdme.duplicates_dropped", dups);
  r.counts.emplace_back("net.delivered", nets.delivered);
  r.counts.emplace_back("net.dropped", nets.dropped);
  r.counts.emplace_back("net.duplicated", nets.duplicated);
  r.counts.emplace_back("net.retransmits", retx);
  r.counts.emplace_back("fleet.summaries_sealed", sealed);
  r.counts.emplace_back("fleet.summaries_applied", ss.summaries_applied);
  r.counts.emplace_back("fleet.duplicates_dropped", ss.duplicates_dropped);
  r.counts.emplace_back("oosm.objects", objects);
  r.counts.emplace_back("samples", r.samples);
  for (const auto& [name, value] : r.counts) {
    r.layer[name] = static_cast<double>(value);
  }
  r.layer["pdme.malformed_dropped"] = static_cast<double>(malformed);
  r.layer["oosm.rss_bytes_per_report"] =
      fused == 0 ? 0.0
                 : static_cast<double>(r.rss_growth) / static_cast<double>(fused);

  if (plan.durable) {
    // Crash recovery: the live hull is gone; a ShipSystem over its WAL
    // directory must come back at the last barrier, byte for byte.
    fleet.reset();
    const auto t0 = Clock::now();
    ShipSystem recovered(hull_config(cfg, 0));
    r.recover_ms = ms_since(t0);
    out.check(recovered.recovered(), "voyage: ShipSystem recovered the WAL");
    out.check(pdme::render_summary(recovered.pdme(), recovered.model()) ==
                  browser,
              "voyage: recovered browser output matches the live hull");
    out.check(pdme::export_icas_csv(recovered.pdme(), recovered.model()) ==
                  icas,
              "voyage: recovered ICAS output matches the live hull");
  }
  return r;
}

/// Rounds until the budget is spent; a traced run captures its second.
Result run_fleet_workload(const Options& opt, const std::string& name,
                          const FleetPlan& plan, const Checks& checks) {
  Result out;
  Samples s;
  const std::string dir =
      opt.run_dir + "/" + name + "-" + std::to_string(::getpid());
  fs::create_directories(dir);
  const std::string wal_dir = dir + "/wal";
  const auto t0 = Clock::now();

  Capture cap;
  std::vector<double> traced_window_ms;
  LayerCounts layer;
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  std::vector<double> recover_ms;
  std::vector<double> reads_per_s, reader_p50_ms;
  std::size_t rounds = 0;
  while (another_round(t0, opt.seconds, rounds, 3)) {
    release_freed_memory();
    for (int i = 0; i < kSetupRepeats; ++i) {
      double setup_s = 0.0;
      (void)build_fleet(plan, round_config(plan, dir + "/setup"), setup_s);
      s.setup_s.push_back(setup_s);
    }
    // A traced run captures its second round: the first pays the process's
    // cold start, which would read as tracing overhead.
    const bool capture = opt.trace && rounds == 1;
    Round r = run_round(plan, wal_dir, checks, capture ? &cap : nullptr, out);
    ++rounds;
    if (counts.empty()) {
      counts = r.counts;
      layer = r.layer;
    }
    out.check(r.counts == counts,
              name + ": per-round counts repeat exactly for one seed");
    out.attempted += r.attempted;
    out.failed += r.failed;
    if (capture) {
      traced_window_ms = r.window_ms;
      if (plan.durable) {
        cap.wal_dir = dir + "/wal-captured";
        fs::rename(wal_dir, cap.wal_dir);
      }
      continue;
    }
    s.add_round(r.window_ms, r.render_ms);
    s.setup_s.push_back(r.setup_s);
    s.gap_ms.insert(s.gap_ms.end(), r.gap_ms.begin(), r.gap_ms.end());
    s.throughput.push_back(static_cast<double>(r.samples) /
                           (r.measured_ms / 1e3));
    s.cpu_ms_per_window.push_back(r.cpu_ms /
                                  static_cast<double>(r.window_ms.size()));
    if (plan.readers > 0) {
      reads_per_s.push_back(static_cast<double>(r.reader_ms.size()) /
                            (r.measured_ms / 1e3));
      reader_p50_ms.push_back(percentile(r.reader_ms, 50));
    }
    if (plan.durable) recover_ms.push_back(r.recover_ms);
  }
  for (const auto& [cname, value] : counts) out.count(cname, value);

  report_end_to_end(s, out);
  out.extra.push_back({"samples_per_s", median(s.throughput), "1/s",
                       "n=" + std::to_string(s.throughput.size())});
  if (plan.durable) {
    out.extra.push_back({"recover_ms", median(recover_ms), "ms",
                         "n=" + std::to_string(recover_ms.size())});
  }
  if (plan.readers > 0) {
    out.extra.push_back({"reads_per_s", median(reads_per_s), "1/s",
                         std::to_string(plan.readers) + " spinning readers"});
    out.extra.push_back({"reader_read_ms_p50", median(reader_p50_ms), "ms",
                         "median of per-round p50"});
  }
  out.extra.push_back({"cpu_s", process_cpu_s(), "s", "whole process"});

  if (opt.trace) {
    layer["ingest.generator_late_ms"] = median(s.gap_ms);
    finish_traced(opt, cap, layer, percentile(traced_window_ms, 50),
                  percentile(s.window_ms, 50), dir, out);
  }
  fs::remove_all(dir);
  return out;
}

/// Top of each plant's slice of the prioritized list must be its fault.
void check_faults_top(ShipSystem& ship, const std::vector<PlannedFault>& faults,
                      std::size_t k, Result& out) {
  const std::vector<pdme::MaintenanceItem> items =
      ship.pdme().prioritized_list();
  for (const PlannedFault& f : faults) {
    if (f.ship != k) continue;
    const oosm::ChillerPlant& objs = ship.plant_objects(f.plant);
    const pdme::MaintenanceItem* top = nullptr;
    for (const pdme::MaintenanceItem& item : items) {
      if (item.machine == objs.chiller || item.machine == objs.motor ||
          item.machine == objs.gearbox || item.machine == objs.compressor) {
        top = &item;
        break;
      }
    }
    out.check(top != nullptr && top->mode == f.event.mode,
              std::string("seeded ") + domain::to_string(f.event.mode) +
                  " tops its plant's maintenance list");
  }
}

/// The fault mix every seed draws from: one mode per logical group the
/// DC's analyzers cover (rotor, electrical, bearing, gear). The seed picks
/// which plant carries which mode and the onset, ramp and severity; the
/// mix itself is fixed, so the work per window is comparable across seeds.
constexpr domain::FailureMode kFaultModes[] = {
    domain::FailureMode::MotorImbalance, domain::FailureMode::RotorBarDefect,
    domain::FailureMode::CompressorBearingWear,
    domain::FailureMode::GearMeshWear};

PlannedFault seeded_fault(Rng& rng, std::size_t ship, std::size_t plant,
                          domain::FailureMode mode, double horizon_s) {
  PlannedFault f;
  f.ship = ship;
  f.plant = plant;
  f.event.mode = mode;
  f.event.onset = SimTime::from_seconds(rng.uniform(0.0, 0.1 * horizon_s));
  f.event.ramp = SimTime::from_seconds(rng.uniform(0.5, 0.8) * horizon_s);
  f.event.max_severity = rng.uniform(0.8, 0.95);
  f.event.profile = plant::GrowthProfile::Linear;
  return f;
}

FleetPlan voyage_plan(std::uint64_t seed, bool smoke) {
  FleetPlan plan;
  fleet::FleetSimConfig& c = plan.cfg;
  c.ship_count = 1;
  c.seed = splitmix64(seed ^ 0x70A6E);
  c.ship_template.plant_count = 4;
  // FleetSim forces one worker per hull otherwise.
  c.ship_template.worker_threads = 4;
  c.ship_template.dc_template.vibration_period = SimTime(kWindowUs);
  c.ship_template.dc_template.process_period = SimTime(kWindowUs);
  plan.durable = true;
  plan.windows = smoke ? 10 : 60;
  plan.read = [](fleet::FleetSim& fleet) {
    ShipSystem& ship = fleet.ship(0);
    (void)ship.pdme().prioritized_list();
    (void)pdme::export_icas_csv(ship.pdme(), ship.model());
  };
  Rng rng(splitmix64(seed));
  const double horizon_s = static_cast<double>(plan.windows) * 60.0;
  const std::size_t offset = rng.integer(0, 3);
  for (std::size_t p = 0; p < c.ship_template.plant_count; ++p) {
    plan.faults.push_back(
        seeded_fault(rng, 0, p, kFaultModes[(p + offset) % 4], horizon_s));
  }
  return plan;
}

}  // namespace

Result run_voyage(const Options& opt) {
  const FleetPlan plan = voyage_plan(opt.seed, opt.smoke);
  return run_fleet_workload(
      opt, "voyage", plan,
      [&plan](fleet::FleetSim& fleet, Result& out) {
        check_faults_top(fleet.ship(0), plan.faults, 0, out);
      });
}

Result run_fleet_shore(const Options& opt) {
  FleetPlan plan;
  fleet::FleetSimConfig& c = plan.cfg;
  c.ship_count = opt.smoke ? 6 : 16;
  c.seed = splitmix64(opt.seed ^ 0x5402E);
  c.ship_template.plant_count = 1;
  c.ship_template.dc_template.vibration_period = SimTime::from_hours(1.0);
  c.shore.drop_probability = 0.05;
  c.shore.duplicate_probability = 0.02;
  c.shore.seed = splitmix64(opt.seed ^ 0x5409E);
  // Every hull seals a summary every window.
  c.ship_template.uplink.summary_period = SimTime(kWindowUs);
  c.server.summary_interval = SimTime(kWindowUs);
  plan.windows = opt.smoke ? 120 : 360;
  plan.readers = 2;
  plan.drain_windows = 10;
  plan.reads_per_window = 8;
  plan.read = [](fleet::FleetSim& fleet) {
    std::shared_ptr<const fleet::FleetSnapshot> snap;
    fleet.server().refresh(snap);
    (void)fleet.server().render_fleet_view();
  };
  // Pinned placement: the hulls' driver and pool threads share two CPUs
  // and each reader owns one of the other two, so where the scheduler puts
  // a reader cannot change the result between runs.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0 &&
      CPU_COUNT(&allowed) >= 4) {
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE && cpus.size() < 4; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
    pin_current_thread({cpus[0], cpus[1]});
    plan.reader_cpus = {cpus[2], cpus[3]};
  }
  Rng rng(splitmix64(opt.seed ^ 0xF1EE7));
  // Two sick hulls among healthy sisters: the fleet baseline must flag them.
  const std::size_t a = rng.integer(0, c.ship_count - 1);
  std::size_t b = rng.integer(0, c.ship_count - 2);
  if (b >= a) ++b;
  const double horizon_s = static_cast<double>(plan.windows) * 60.0 * 0.5;
  const std::size_t mode = rng.integer(0, 3);
  plan.faults.push_back(
      seeded_fault(rng, a, 0, kFaultModes[mode], horizon_s));
  plan.faults.push_back(
      seeded_fault(rng, b, 0, kFaultModes[(mode + 2) % 4], horizon_s));
  return run_fleet_workload(
      opt, "fleet_shore", plan,
      [&plan](fleet::FleetSim& fleet, Result& out) {
        const auto snap = fleet.server().snapshot();
        for (std::size_t k = 0; k < fleet.ship_count(); ++k) {
          out.check(fleet.server().ship_liveness(ShipId(k + 1)) ==
                        fleet::ShipLiveness::Alive,
                    "fleet_shore: " + hull_name(k) + " ends Alive");
        }
        for (const PlannedFault& f : plan.faults) {
          bool flagged = false;
          for (const fleet::FleetOutlier& o : snap->outliers) {
            flagged = flagged || o.ship == ShipId(f.ship + 1);
          }
          out.check(flagged, "fleet_shore: faulted " + hull_name(f.ship) +
                                 " is a fleet outlier");
        }
      });
}

}  // namespace perfbench
