// E17 — Fault tolerance: report delivery under loss, and DC liveness
// supervision (ISSUE 3).
//
// Part 1 sweeps network drop probability {0, 0.1, 0.2, 0.4} with reliable
// delivery on and off. A DC-side ReliableSender envelopes a fixed report
// stream toward a real PdmeExecutive attached to the lossy SimNetwork;
// acks flow back over the same lossy links and retransmissions run on the
// same clock. Metric: fraction of emitted reports eventually applied at
// the PDME. Acceptance: >= 99% at 20% drop with retransmission, versus
// roughly the raw delivery rate (~80%) fire-and-forget.
//
// Part 2 runs the assembled ShipSystem through a scripted hard partition
// of dc-1 and measures how long the PDME watchdog takes to mark the
// silent DC Stale and then Lost, in heartbeat intervals. Acceptance:
// Lost within 3 missed heartbeat intervals; Alive again after the
// partition heals.
//
// Writes BENCH_FAULTS.json at the current working directory (run from the
// repo root to refresh the committed snapshot). `--table` prints the
// seeded tables and writes no file; ctest pins that stdout.

#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "mpros/mpros/ship_system.hpp"
#include "mpros/net/messages.hpp"
#include "mpros/net/network.hpp"
#include "mpros/net/reliable.hpp"
#include "mpros/oosm/ship_builder.hpp"
#include "mpros/pdme/pdme.hpp"

namespace {

using namespace mpros;
using domain::FailureMode;

// ---------------------------------------------------------------------------
// Part 1: delivery-rate sweep.

constexpr std::size_t kReports = 400;
constexpr double kEmitPeriodS = 10.0;  // one report every 10 s of sim time
// Matches the emit period so each tick sends at most one fresh envelope;
// same-tick bursts would let jitter reorder adjacent sequences and show
// reorder-healed gaps even on a clean network.
constexpr double kSweepStepS = 10.0;   // retransmit/delivery sweep cadence
constexpr double kDrainCapS = 7200.0;  // give retransmission this long to heal

net::FailureReport make_report(ObjectId motor, std::size_t i) {
  net::FailureReport r;
  r.dc = DcId(1);
  r.knowledge_source = KnowledgeSourceId(1 + i % 4);
  r.sensed_object = motor;
  r.machine_condition = domain::condition_id(FailureMode::MotorImbalance);
  r.severity = 0.5;
  r.belief = 0.35;
  r.timestamp = SimTime::from_seconds(kEmitPeriodS * static_cast<double>(i));
  return r;
}

struct SweepPoint {
  double drop = 0.0;
  bool reliable = false;
  std::uint64_t emitted = 0;
  std::uint64_t applied = 0;     ///< unique reports fused at the PDME
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates = 0;  ///< retransmit copies the PDME discarded
  std::uint64_t gaps = 0;
  double applied_fraction = 0.0;
};

SweepPoint run_sweep(double drop, bool reliable) {
  oosm::ObjectModel model;
  const auto ship = oosm::build_ship(model, "bench", 1, 1);
  pdme::PdmeExecutive pdme(model);

  net::NetworkConfig net_cfg;
  net_cfg.base_latency = SimTime::from_millis(5.0);
  net_cfg.jitter = SimTime::from_millis(20.0);
  net_cfg.drop_probability = drop;
  net_cfg.seed = 0xE17;
  net::SimNetwork network(net_cfg);
  pdme.attach_to_network(network);

  net::ReliableConfig rel_cfg;
  rel_cfg.initial_rto = SimTime::from_seconds(30.0);
  rel_cfg.max_rto = SimTime::from_seconds(480.0);
  net::ReliableSender sender(DcId(1), rel_cfg);

  // The DC endpoint exists only to absorb acks; fire-and-forget runs
  // register it too so both modes present identical endpoint sets.
  network.register_endpoint("dc-1", [&](const net::Message& m) {
    if (const auto ack = net::try_unwrap_ack(m.payload)) sender.on_ack(*ack);
  });

  std::size_t next_report = 0;
  const double emit_end = kEmitPeriodS * static_cast<double>(kReports);
  for (double t = 0.0; t <= emit_end + kDrainCapS; t += kSweepStepS) {
    const SimTime now = SimTime::from_seconds(t);
    while (next_report < kReports &&
           kEmitPeriodS * static_cast<double>(next_report) <= t) {
      const net::FailureReport r = make_report(ship.plants[0].motor,
                                               next_report++);
      // Each report rides a batch of one: sealed on the reliable stream,
      // or unsequenced (sequence 0) fire-and-forget.
      if (reliable) {
        network.send("dc-1", "pdme", sender.envelope(std::span(&r, 1), now),
                     now);
      } else {
        network.send("dc-1", "pdme",
                     net::wrap_batch_envelope(DcId(1), 0, {&r, 1}), now);
      }
    }
    if (reliable) {
      for (auto& payload : sender.due_retransmits(now)) {
        network.send("dc-1", "pdme", std::move(payload), now);
      }
    }
    network.advance_to(now);
    if (next_report == kReports && (!reliable || sender.unacked() == 0)) {
      break;  // stream fully emitted and (if reliable) fully acked
    }
  }
  network.flush();

  SweepPoint p;
  p.drop = drop;
  p.reliable = reliable;
  p.emitted = kReports;
  p.applied = pdme.snapshot().reports_accepted;
  p.retransmits = sender.snapshot().retransmits;
  p.duplicates = pdme.snapshot().duplicates_dropped;
  p.gaps = pdme.snapshot().gaps_detected;
  p.applied_fraction =
      static_cast<double>(p.applied) / static_cast<double>(p.emitted);
  return p;
}

// ---------------------------------------------------------------------------
// Part 2: liveness supervision through a scripted hard partition.

struct LivenessResult {
  double heartbeat_interval_s = 0.0;
  double partition_at_s = 0.0;
  double stale_at_s = -1.0;
  double lost_at_s = -1.0;
  double recovered_at_s = -1.0;
  double lost_after_intervals = 0.0;  ///< (lost_at - partition_at) / interval
};

LivenessResult run_liveness() {
  ShipSystemConfig cfg;
  cfg.plant_count = 2;
  cfg.worker_threads = 2;
  cfg.network.jitter = SimTime::from_millis(1.0);
  cfg.seed = 0xE17;

  constexpr double kPartitionFrom = 600.0;
  constexpr double kPartitionTo = 1800.0;
  ShipSystem ship(cfg);
  ship.network().schedule_outage({"dc-1",
                                  SimTime::from_seconds(kPartitionFrom),
                                  SimTime::from_seconds(kPartitionTo), 1.0});

  LivenessResult r;
  r.heartbeat_interval_s = cfg.pdme.heartbeat_interval.seconds();
  r.partition_at_s = kPartitionFrom;

  const DcId dc1(1);
  for (double t = 15.0; t <= 2400.0; t += 15.0) {
    ship.advance_to(SimTime::from_seconds(t));
    const auto liveness = ship.pdme().dc_liveness(dc1);
    if (r.stale_at_s < 0 && liveness == pdme::DcLiveness::Stale) {
      r.stale_at_s = t;
    }
    if (r.lost_at_s < 0 && liveness == pdme::DcLiveness::Lost) {
      r.lost_at_s = t;
    }
    if (r.lost_at_s > 0 && r.recovered_at_s < 0 &&
        liveness == pdme::DcLiveness::Alive) {
      r.recovered_at_s = t;
    }
  }
  if (r.lost_at_s > 0) {
    r.lost_after_intervals =
        (r.lost_at_s - r.partition_at_s) / r.heartbeat_interval_s;
  }
  return r;
}

// ---------------------------------------------------------------------------

void write_json(const std::vector<SweepPoint>& sweep,
                const LivenessResult& live) {
  std::FILE* f = std::fopen("BENCH_FAULTS.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_faults: cannot write BENCH_FAULTS.json\n");
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"experiment\": \"E17\",\n"
               "  \"reports_per_run\": %zu,\n"
               "  \"delivery_sweep\": [\n",
               kReports);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    std::fprintf(f,
                 "    {\"drop_probability\": %.2f, \"reliable\": %s, "
                 "\"applied\": %llu, \"applied_fraction\": %.4f, "
                 "\"retransmits\": %llu, \"duplicates_dropped\": %llu, "
                 "\"gaps_detected\": %llu}%s\n",
                 p.drop, p.reliable ? "true" : "false",
                 static_cast<unsigned long long>(p.applied),
                 p.applied_fraction,
                 static_cast<unsigned long long>(p.retransmits),
                 static_cast<unsigned long long>(p.duplicates),
                 static_cast<unsigned long long>(p.gaps),
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n"
               "  \"liveness\": {\n"
               "    \"heartbeat_interval_s\": %.0f,\n"
               "    \"partition_at_s\": %.0f,\n"
               "    \"stale_at_s\": %.0f,\n"
               "    \"lost_at_s\": %.0f,\n"
               "    \"lost_after_missed_intervals\": %.2f,\n"
               "    \"recovered_alive_at_s\": %.0f\n"
               "  }\n"
               "}\n",
               live.heartbeat_interval_s, live.partition_at_s,
               live.stale_at_s, live.lost_at_s, live.lost_after_intervals,
               live.recovered_at_s);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const bool table_only = argc == 2 && std::strcmp(argv[1], "--table") == 0;
  std::printf(
      "\nE17 fault tolerance (ISSUE 3; acceptance: >=99%% applied at 20%%\n"
      "drop with retransmission, Lost within 3 missed heartbeats)\n\n");

  std::vector<SweepPoint> sweep;
  std::printf("%6s  %-9s  %8s  %8s  %12s  %6s\n", "drop", "mode", "applied",
              "fraction", "retransmits", "gaps");
  for (const double drop : {0.0, 0.1, 0.2, 0.4}) {
    for (const bool reliable : {false, true}) {
      const SweepPoint p = run_sweep(drop, reliable);
      std::printf("%6.2f  %-9s  %3llu/%zu  %8.4f  %12llu  %6llu\n", p.drop,
                  p.reliable ? "reliable" : "raw",
                  static_cast<unsigned long long>(p.applied), kReports,
                  p.applied_fraction,
                  static_cast<unsigned long long>(p.retransmits),
                  static_cast<unsigned long long>(p.gaps));
      sweep.push_back(p);
    }
  }

  const LivenessResult live = run_liveness();
  std::printf(
      "\npartition at %.0f s: Stale %.0f s, Lost %.0f s "
      "(%.2f missed intervals), Alive again %.0f s\n",
      live.partition_at_s, live.stale_at_s, live.lost_at_s,
      live.lost_after_intervals, live.recovered_at_s);
  if (table_only) return 0;

  write_json(sweep, live);
  std::printf("BENCH_FAULTS.json written\n");
  return 0;
}
