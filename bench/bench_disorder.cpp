// E9 — Knowledge fusion under hostile transport (§5.1).
//
// Paper requirement: KF "must be able to accommodate inputs which are
// incomplete, time-disordered, fragmentary, and which have gaps,
// inconsistencies, and contradictions." The harness delivers one fixed
// report set across increasingly hostile network settings and reports the
// fused-belief deviation from clean in-order delivery, plus throughput.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>

#include "mpros/net/network.hpp"
#include "mpros/oosm/ship_builder.hpp"
#include "mpros/pdme/pdme.hpp"

namespace {

using namespace mpros;
using domain::FailureMode;

std::vector<net::FailureReport> report_set(ObjectId motor, std::size_t n) {
  std::vector<net::FailureReport> reports;
  // Imbalance dominates (3:1 over the conflicting misalignment call), as a
  // real degraded machine's report stream would; a perfectly symmetric
  // conflict would sit at bel=0.5 where random loss could tip either way.
  const FailureMode modes[] = {FailureMode::MotorImbalance,
                               FailureMode::MotorImbalance,
                               FailureMode::MotorImbalance,
                               FailureMode::ShaftMisalignment};
  for (std::size_t i = 0; i < n; ++i) {
    net::FailureReport r;
    r.dc = DcId(1);
    r.knowledge_source = KnowledgeSourceId(1 + i % 4);
    r.sensed_object = motor;
    r.machine_condition = domain::condition_id(modes[i % 4]);
    r.severity = 0.5;
    r.belief = 0.35;
    r.timestamp = SimTime::from_seconds(10.0 * static_cast<double>(i));
    reports.push_back(r);
  }
  return reports;
}

struct FusedSummary {
  double imbalance = 0.0;
  double unknown = 0.0;
  std::uint64_t fused = 0;
};

FusedSummary run_delivery(const net::NetworkConfig& net_cfg, std::size_t n) {
  oosm::ObjectModel model;
  const auto ship = oosm::build_ship(model, "bench", 1, 1);
  pdme::PdmeExecutive pdme(model);
  net::SimNetwork network(net_cfg);
  pdme.attach_to_network(network);

  for (const auto& r : report_set(ship.plants[0].motor, n)) {
    network.send("dc-1", "pdme", net::wrap_batch_envelope(r.dc, 0, {&r, 1}),
                 r.timestamp);
  }
  network.flush();

  const auto state = pdme.group_state(ship.plants[0].motor,
                                      domain::LogicalGroup::RotorDynamics);
  FusedSummary s;
  s.imbalance = state.modes[0].belief;
  s.unknown = state.unknown;
  s.fused = pdme.snapshot().reports_accepted;
  return s;
}

void print_e9_summary() {
  constexpr std::size_t kReports = 16;
  net::NetworkConfig clean;
  clean.jitter = SimTime::from_millis(0.001);
  const FusedSummary baseline = run_delivery(clean, kReports);

  std::printf(
      "\nE9 fusion under hostile transport (paper §5.1)\n"
      "  %-34s %9s %9s %7s\n", "network", "bel(imb)", "unknown", "fused");
  std::printf("  %-34s %9.4f %9.4f %7llu\n", "clean, in order",
              baseline.imbalance, baseline.unknown,
              static_cast<unsigned long long>(baseline.fused));

  const struct {
    const char* label;
    double drop, dup;
    double jitter_s;
  } cases[] = {
      {"heavy jitter (reordering)", 0.0, 0.0, 300.0},
      {"20% duplicates", 0.0, 0.2, 1.0},
      {"25% loss", 0.25, 0.0, 1.0},
      {"25% loss + 20% dup + jitter", 0.25, 0.2, 300.0},
  };
  for (const auto& c : cases) {
    net::NetworkConfig cfg;
    cfg.drop_probability = c.drop;
    cfg.duplicate_probability = c.dup;
    cfg.jitter = SimTime::from_seconds(c.jitter_s);
    cfg.seed = 0xE9;
    const FusedSummary s = run_delivery(cfg, kReports);
    std::printf("  %-34s %9.4f %9.4f %7llu\n", c.label, s.imbalance,
                s.unknown, static_cast<unsigned long long>(s.fused));
  }
  std::printf(
      "  shape: reordering and duplication leave fused beliefs identical\n"
      "         (commutative combination + dedup); loss moves the belief\n"
      "         but the dominant conclusion stays dominant.\n\n");
}

void BM_HostileDelivery(benchmark::State& state) {
  net::NetworkConfig cfg;
  cfg.drop_probability = 0.25;
  cfg.duplicate_probability = 0.2;
  cfg.jitter = SimTime::from_seconds(300.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_delivery(cfg, 16));
  }
  state.SetItemsProcessed(state.iterations() * 16);
  state.SetLabel("reports through hostile transport");
}
BENCHMARK(BM_HostileDelivery);

}  // namespace

int main(int argc, char** argv) {
  print_e9_summary();
  // `--table` prints the summary alone: its networks are seeded, so its
  // stdout is pinned.
  if (argc == 2 && std::strcmp(argv[1], "--table") == 0) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
