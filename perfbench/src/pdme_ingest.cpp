// pdme_ingest: 64 DCs' report streams into one inline PdmeExecutive, with
// no plant and no DSP on the path. Each DC seals one sequenced ReportBatch
// per window through its own ReliableSender; the datagrams cross a
// SimNetwork that duplicates a few, the PDME's wire adapter decodes,
// deduplicates, fuses and acks, and the acks flow back to the senders.
//
// A closed-loop phase gives capacity (fused reports per wall second). An
// open-loop phase then offers windows on a fixed wall-clock schedule; each
// window's latency runs from when it was due, so a stall shows up in the
// windows queued behind it.

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <thread>

#include "mpros/common/rng.hpp"
#include "mpros/oosm/ship_builder.hpp"
#include "mpros/pdme/browser.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kDcs = 64;
constexpr std::size_t kReportsPerWindow = 16;  ///< per DC
/// Open-loop offered load, windows per wall second (1024 reports each):
/// about half the closed-loop capacity measured on a 4-core x86-64 host.
constexpr double kOpenLoopWindowsPerS = 60.0;
constexpr auto kSpinBeforeDue = std::chrono::milliseconds(2);
/// A maintenance-list read plus ICAS export every this many windows.
constexpr std::size_t kReadEvery = 8;
constexpr std::int64_t kWindowUs = 60'000'000;

SimTime window_end(std::size_t window) {
  return SimTime(static_cast<std::int64_t>(window + 1) * kWindowUs);
}

struct Plan {
  std::size_t closed_windows = 24;
  std::size_t open_windows = 60;
  net::NetworkConfig network;
  /// inputs[window][dc]: one sync window's reports from one DC.
  std::vector<std::vector<std::vector<net::FailureReport>>> inputs;
  [[nodiscard]] std::size_t windows() const {
    return closed_windows + open_windows;
  }
};

const char* const kExplanations[] = {
    "1x running-speed amplitude elevated beyond baseline",
    "bearing envelope tone at BPFO with harmonics",
    "gear mesh sidebands spaced at pinion speed",
    "pole-pass sidebands around line frequency",
    "oil temperature trending above the alarm band",
};
const char* const kRecommendations[] = {
    "Field balance the rotor at next availability.",
    "Schedule bearing replacement; increase monitoring interval.",
    "Inspect gear teeth at next open-up.",
    "Run motor current signature test under full load.",
};

/// Seeded, prognostics-rich reports with severities that drift per
/// (DC, mode) across windows, as a worsening plant would report them.
Plan make_plan(std::uint64_t seed, bool smoke) {
  Plan plan;
  if (smoke) {
    plan.closed_windows = 4;
    plan.open_windows = 8;
  }
  plan.network.duplicate_probability = 0.01;
  plan.network.seed = splitmix64(seed ^ 0x1A6E57);
  oosm::ObjectModel scratch;
  const oosm::ShipModel ship = oosm::build_ship(scratch, "bench", kDcs / 2, 2);
  const auto modes = domain::all_failure_modes();
  Rng rng(splitmix64(seed ^ 0x1D6E));

  struct Stream {
    ObjectId machine;
    domain::FailureMode mode{};
    double severity = 0.0;
    double drift = 0.0;
  };
  // Every seed spreads the same mode mix over the DCs (a seeded rotation),
  // so fusion work per window is comparable across seeds.
  const std::size_t offset = rng.integer(0, modes.size() - 1);
  std::vector<std::vector<Stream>> streams(kDcs);
  for (std::size_t d = 0; d < kDcs; ++d) {
    const oosm::ChillerPlant& p = ship.plants[d];
    const ObjectId machines[] = {p.chiller, p.motor, p.gearbox, p.compressor};
    for (std::size_t s = 0; s < 4; ++s) {
      streams[d].push_back({machines[s],
                            modes[(d * 4 + s + offset) % modes.size()],
                            rng.uniform(0.05, 0.4), rng.uniform(0.0, 0.01)});
    }
  }
  plan.inputs.resize(plan.windows());
  for (std::size_t w = 0; w < plan.windows(); ++w) {
    plan.inputs[w].resize(kDcs);
    for (std::size_t d = 0; d < kDcs; ++d) {
      for (std::size_t i = 0; i < kReportsPerWindow; ++i) {
        Stream& s = streams[d][i % streams[d].size()];
        s.severity = std::clamp(s.severity + s.drift + rng.normal(0.0, 0.01),
                                0.01, 0.99);
        net::FailureReport r;
        r.dc = DcId(d + 1);
        r.knowledge_source = KnowledgeSourceId(1 + i % 4);
        r.sensed_object = s.machine;
        r.machine_condition = domain::condition_id(s.mode);
        r.severity = s.severity;
        r.belief = rng.uniform(0.3, 0.9);
        r.explanation = kExplanations[rng.integer(0, 4)];
        r.recommendations = kRecommendations[rng.integer(0, 3)];
        r.additional_info = "load=0.8;window=" + std::to_string(w);
        // Distinct timestamps keep every report's dedup signature unique:
        // only network duplicates are duplicates.
        r.timestamp = SimTime(static_cast<std::int64_t>(w) * kWindowUs +
                              static_cast<std::int64_t>(i + 1) * 1'000'000);
        const double horizon = 86400.0 * (30.0 - 25.0 * s.severity);
        for (int k = 1; k <= 5; ++k) {
          r.prognostics.push_back(
              {0.18 * k, horizon * k * rng.uniform(0.8, 1.2)});
        }
        plan.inputs[w][d].push_back(std::move(r));
      }
    }
  }
  return plan;
}

struct Round {
  double setup_s = 0.0;
  double closed_ms = 0.0;
  std::vector<double> latency_ms;   ///< open loop, from due time
  std::vector<double> late_ms;      ///< open loop, generator lateness
  std::vector<double> every_window_ms;  ///< closed and open, wall
  std::vector<double> render_ms;
  double cpu_ms_per_window = 0.0;
  std::uint64_t closed_reports = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  LayerCounts layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// The system under test for one round, built fresh each time.
struct Ingest {
  oosm::ObjectModel model;
  std::unique_ptr<pdme::PdmeExecutive> pdme;
  std::unique_ptr<net::SimNetwork> network;
  std::vector<std::unique_ptr<net::ReliableSender>> senders;
  std::vector<std::string> endpoints;

  explicit Ingest(const Plan& plan) {
    (void)oosm::build_ship(model, "bench", kDcs / 2, 2);
    pdme = std::make_unique<pdme::PdmeExecutive>(model);
    network = std::make_unique<net::SimNetwork>(plan.network);
    pdme->attach_to_network(*network);
    for (std::size_t d = 0; d < kDcs; ++d) {
      senders.push_back(std::make_unique<net::ReliableSender>(DcId(d + 1)));
      endpoints.push_back("dc-" + std::to_string(d + 1));
      net::ReliableSender* sender = senders.back().get();
      network->register_endpoint(endpoints.back(),
                                 [sender](const net::Message& msg) {
                                   if (const auto ack =
                                           net::try_unwrap_ack(msg.payload)) {
                                     sender->on_ack(*ack);
                                   }
                                 });
      pdme->expect_dc(DcId(d + 1), SimTime(0));
    }
  }

  /// One window: every DC seals and sends its batch mid-window, the
  /// network delivers, and the PDME's barrier runs.
  void window(const Plan& plan, std::size_t w) {
    const SimTime end = window_end(w);
    const SimTime at = end - SimTime(kWindowUs / 2);
    for (std::size_t d = 0; d < kDcs; ++d) {
      const std::vector<net::FailureReport>& batch = plan.inputs[w][d];
      network->send(endpoints[d], "pdme",
                    senders[d]->envelope(
                        std::span<const net::FailureReport>(batch), at),
                    at);
      for (std::vector<std::uint8_t>& p : senders[d]->due_retransmits(at)) {
        network->send(endpoints[d], "pdme", std::move(p), at);
      }
    }
    network->advance_to(end);
    pdme->synchronize();
    pdme->update_liveness(end);
  }

  double read() {
    const auto t0 = Clock::now();
    (void)pdme->prioritized_list();
    (void)pdme::export_icas_csv(*pdme, model);
    return ms_since(t0);
  }
};

Round run_round(const Plan& plan, Capture* cap, Result& out) {
  Round r;
  const std::uint64_t rss0 = current_rss_bytes();
  const auto t_setup = Clock::now();
  Ingest sys(plan);
  r.setup_s = ms_since(t_setup) / 1e3;

  std::size_t window = 0;
  std::uint64_t offered = 0;  // reports in datagrams delivered to the PDME
  HullCapture* hull = nullptr;
  if (cap != nullptr) {
    cap->hulls.resize(1);
    hull = &cap->hulls[0];
    hull->ship_name = "bench";
    hull->decks = kDcs / 2;
    hull->dc_count = kDcs;
  }
  sys.network->set_delivery_tap([&](const net::Message& m) {
    if (m.to != "pdme") return;
    offered += kReportsPerWindow;
    if (hull != nullptr) hull->deliveries.push_back({window, m});
  });

  // cpu_ms_per_window is the program's CPU: the reads and the open-loop
  // generator's wait for each due time are the harness's, and left out.
  const double cpu0 = process_cpu_s();
  double harness_cpu_s = 0.0;
  const auto read = [&] {
    const double c0 = thread_cpu_s();
    r.render_ms.push_back(sys.read());
    harness_cpu_s += thread_cpu_s() - c0;
  };

  // Closed loop; window 0 warms up and is left out of the capacity.
  Clock::time_point closed_start;
  for (window = 0; window < plan.closed_windows; ++window) {
    if (window == 1) closed_start = Clock::now();
    const auto w0 = Clock::now();
    sys.window(plan, window);
    if (window >= 1) r.closed_reports += kDcs * kReportsPerWindow;
    r.every_window_ms.push_back(ms_since(w0));
    if ((window + 1) % kReadEvery == 0) {
      r.closed_ms += ms_since(closed_start);
      read();
      closed_start = Clock::now();
    }
  }
  r.closed_ms += ms_since(closed_start);

  // Open loop at a fixed rate.
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kOpenLoopWindowsPerS));
  const Clock::time_point open_start = Clock::now();
  for (std::size_t i = 0; i < plan.open_windows; ++i, ++window) {
    const Clock::time_point due = open_start + period * static_cast<long>(i);
    // Sleep to just short of the due time, then spin: a descheduled
    // generator wakes late by however long the host takes to run it.
    const double wait_cpu0 = thread_cpu_s();
    std::this_thread::sleep_until(due - kSpinBeforeDue);
    while (Clock::now() < due) {
    }
    harness_cpu_s += thread_cpu_s() - wait_cpu0;
    const Clock::time_point started = Clock::now();
    sys.window(plan, window);
    const Clock::time_point done = Clock::now();
    r.late_ms.push_back(
        std::chrono::duration<double, std::milli>(started - due).count());
    r.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(done - due).count());
    r.every_window_ms.push_back(r.latency_ms.back());
    if ((window + 1) % kReadEvery == 0) read();
  }
  r.cpu_ms_per_window = (process_cpu_s() - cpu0 - harness_cpu_s) * 1e3 /
                        static_cast<double>(plan.windows());
  sys.network->set_delivery_tap(nullptr);

  const pdme::PdmeExecutive::Stats ps = sys.pdme->snapshot();
  const std::uint64_t unique = plan.windows() * kDcs * kReportsPerWindow;
  out.check(ps.reports_accepted + ps.duplicates_dropped == offered,
            "pdme_ingest: accepted + duplicates == offered (" +
                std::to_string(ps.reports_accepted) + " + " +
                std::to_string(ps.duplicates_dropped) + " vs " +
                std::to_string(offered) + ")");
  out.check(ps.malformed_dropped == 0, "pdme_ingest: zero malformed");
  r.attempted = unique;
  r.failed = unique - std::min(unique, ps.reports_accepted) +
             ps.malformed_dropped;

  if (cap != nullptr) {
    for (std::size_t w = 0; w < plan.windows(); ++w) {
      cap->windows.push_back(window_end(w));
    }
    for (const double ms : r.every_window_ms) cap->window_ms_total += ms;
    hull->reports_emitted = unique;
    hull->icas = pdme::export_icas_csv(*sys.pdme, sys.model);
  }

  const net::NetworkStats ns = sys.network->stats();
  std::uint64_t retx = 0;
  for (const auto& s : sys.senders) retx += s->snapshot().retransmits;
  r.counts = {{"windows", plan.windows()},
              {"offered", offered},
              {"pdme.reports_accepted", ps.reports_accepted},
              {"pdme.duplicates_dropped", ps.duplicates_dropped},
              {"pdme.acks_sent", ps.acks_sent},
              {"net.delivered", ns.delivered},
              {"net.dropped", ns.dropped},
              {"net.duplicated", ns.duplicated},
              {"net.retransmits", retx},
              {"oosm.objects", sys.model.object_count()}};
  for (const auto& [name, value] : r.counts) {
    r.layer[name] = static_cast<double>(value);
  }
  r.layer["pdme.malformed_dropped"] = static_cast<double>(ps.malformed_dropped);
  const std::uint64_t rss1 = current_rss_bytes();
  r.layer["oosm.rss_bytes_per_report"] =
      static_cast<double>(rss1 > rss0 ? rss1 - rss0 : 0) /
      static_cast<double>(std::max<std::uint64_t>(1, ps.reports_accepted));
  return r;
}

}  // namespace

Result run_pdme_ingest(const Options& opt) {
  Result out;
  const Plan plan = make_plan(opt.seed, opt.smoke);
  const std::string dir =
      opt.run_dir + "/pdme_ingest-" + std::to_string(::getpid());
  fs::create_directories(dir);
  const auto t0 = Clock::now();

  Samples s;
  Capture cap;
  std::vector<double> traced_window_ms, late_ms;
  LayerCounts layer;
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  std::size_t rounds = 0;
  while (another_round(t0, opt.seconds, rounds, 3)) {
    release_freed_memory();
    for (int i = 0; i < kSetupRepeats; ++i) {
      const auto t_setup = Clock::now();
      const Ingest sys(plan);
      s.setup_s.push_back(ms_since(t_setup) / 1e3);
    }
    // A traced run captures its second round: the first pays the process's
    // cold start, which would read as tracing overhead.
    const bool capture = opt.trace && rounds == 1;
    Round r = run_round(plan, capture ? &cap : nullptr, out);
    ++rounds;
    if (counts.empty()) {
      counts = r.counts;
      layer = r.layer;
    }
    out.check(r.counts == counts,
              "pdme_ingest: per-round counts repeat exactly for one seed");
    out.attempted += r.attempted;
    out.failed += r.failed;
    if (capture) {
      traced_window_ms = r.latency_ms;
      continue;
    }
    s.add_round(r.latency_ms, r.render_ms);
    s.setup_s.push_back(r.setup_s);
    late_ms.insert(late_ms.end(), r.late_ms.begin(), r.late_ms.end());
    s.throughput.push_back(static_cast<double>(r.closed_reports) /
                           (r.closed_ms / 1e3));
    s.cpu_ms_per_window.push_back(r.cpu_ms_per_window);
  }
  for (const auto& [name, value] : counts) out.count(name, value);

  report_end_to_end(s, out);
  out.extra.push_back({"reports_per_s", median(s.throughput), "1/s",
                       "closed loop, n=" + std::to_string(s.throughput.size())});
  out.extra.push_back({"offered_windows_per_s", kOpenLoopWindowsPerS, "1/s",
                       std::to_string(kDcs * kReportsPerWindow) +
                           " reports each"});
  out.extra.push_back({"generator_late_ms_p50", percentile(late_ms, 50), "ms",
                       "n=" + std::to_string(late_ms.size())});
  out.extra.push_back({"generator_late_ms_p95", percentile(late_ms, 95), "ms",
                       "n=" + std::to_string(late_ms.size())});
  out.extra.push_back({"cpu_s", process_cpu_s(), "s", "whole process"});

  if (opt.trace) {
    layer["ingest.generator_late_ms"] = percentile(late_ms, 95);
    finish_traced(opt, cap, layer, percentile(traced_window_ms, 50),
                  percentile(s.window_ms, 50), dir, out);
  }
  fs::remove_all(dir);
  return out;
}

}  // namespace perfbench
