// E12 — Future-work ablations (§10.1).
//
// (a) Dempster-Shafer vs Bayesian-network diagnostic fusion on the same
//     scripted report streams — the paper chose D-S because BN priors were
//     unavailable; the simulator can supply them, so we compare behaviour:
//     D-S needs no priors and keeps an explicit "unknown" mass; the BN
//     (given its priors) commits faster on corroborated evidence.
// (b) Prognostics with vs without Weibull hazard refinement: the refined
//     curve folds population wear-out into an optimistic report.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "mpros/common/rng.hpp"
#include "mpros/fusion/bayes_net.hpp"
#include "mpros/fusion/diagnostic_fusion.hpp"
#include "mpros/fusion/hazard.hpp"

namespace {

using namespace mpros;
using namespace mpros::fusion;
using domain::FailureMode;
using domain::LogicalGroup;

void print_diagnostic_ablation() {
  std::printf(
      "\nE12a diagnostic fusion ablation: Dempster-Shafer vs Bayes net\n"
      "  scenario: 1..4 agreeing reports (belief 0.6) that the motor\n"
      "  bearing is failing, then 1 contradicting report (compressor\n"
      "  bearing, 0.6) — beliefs for MotorBearingWear:\n"
      "  %-28s %12s %12s %10s\n", "after", "D-S belief", "D-S unknown",
      "BN P(mode)");

  DiagnosticFusion ds;
  GroupBayesFusion bn(LogicalGroup::Bearing);
  const ObjectId machine(1);

  for (int i = 1; i <= 4; ++i) {
    ds.update(machine, FailureMode::MotorBearingWear, 0.6);
    bn.add_report(machine, {FailureMode::MotorBearingWear, 0.6});
    const auto state = ds.state(machine, LogicalGroup::Bearing);
    std::printf("  %d agreeing report(s)          %12.4f %12.4f %10.4f\n", i,
                state.modes[0].belief, state.unknown,
                bn.mode_probability(machine, FailureMode::MotorBearingWear));
  }
  ds.update(machine, FailureMode::CompressorBearingWear, 0.6);
  bn.add_report(machine, {FailureMode::CompressorBearingWear, 0.6});
  const auto state = ds.state(machine, LogicalGroup::Bearing);
  std::printf("  + 1 contradicting report      %12.4f %12.4f %10.4f\n",
              state.modes[0].belief, state.unknown,
              bn.mode_probability(machine, FailureMode::MotorBearingWear));
  std::printf(
      "  shape: both converge on corroboration and retreat on conflict;\n"
      "         D-S uniquely tracks the residual 'unknown' mass the paper\n"
      "         highlights, while the BN redistributes it over its priors.\n");
}

void print_prognostic_ablation() {
  // An optimistic single report against a wear-out population model.
  const PrognosticVector report(
      {{SimTime::from_months(6.0), 0.10}, {SimTime::from_months(12.0), 0.4}});
  const WeibullModel population(3.0, 240.0);  // wear-out, ~8 month scale

  std::printf(
      "\nE12b prognostic hazard refinement (§10.1 'analysis of hazard and\n"
      "  survival data'): P(failure) by horizon, component age 6 months\n"
      "  %-12s %10s %14s\n", "horizon", "report", "hazard-refined");
  const PrognosticVector refined = refine_with_hazard(
      report, population, SimTime::from_months(6.0), 0.4);
  for (const double mo : {2.0, 4.0, 6.0, 9.0, 12.0}) {
    const SimTime t = SimTime::from_months(mo);
    std::printf("  %-12s %10.3f %14.3f\n",
                to_string(t).c_str(), report.probability_at(t),
                refined.probability_at(t));
  }
  std::printf("  shape: refinement pulls probabilities up for an aged\n"
              "         wear-out component, advancing maintenance.\n\n");
}

void BM_DempsterShaferStream(benchmark::State& state) {
  DiagnosticFusion fusion;
  Rng rng(1);
  const auto modes = domain::modes_in_group(LogicalGroup::Bearing);
  std::uint64_t i = 0;
  for (auto _ : state) {
    fusion.update(ObjectId(1 + i % 16), modes[i % modes.size()], 0.5);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DempsterShaferStream);

void BM_BayesNetStream(benchmark::State& state) {
  // The BN re-runs exact inference over all accumulated reports, so cost
  // grows with history; cap per-machine history like the PDME would.
  GroupBayesFusion fusion(LogicalGroup::Bearing);
  const auto modes = domain::modes_in_group(LogicalGroup::Bearing);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const ObjectId machine(1 + i % 64);
    fusion.add_report(machine, {modes[i % modes.size()], 0.5});
    benchmark::DoNotOptimize(fusion.posterior(machine));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BayesNetStream);

void BM_WeibullFit(benchmark::State& state) {
  Rng rng(2);
  std::vector<LifeRecord> records;
  for (int i = 0; i < 200; ++i) {
    const double u = rng.uniform(1e-6, 1.0 - 1e-6);
    records.push_back(
        {SimTime::from_days(150.0 * std::pow(-std::log(1.0 - u), 0.5)),
         i % 5 != 0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(WeibullModel::fit(records));
  }
  state.SetLabel("200-record MLE fits");
}
BENCHMARK(BM_WeibullFit);

void BM_HazardRefinement(benchmark::State& state) {
  const PrognosticVector report(
      {{SimTime::from_months(6.0), 0.10}, {SimTime::from_months(12.0), 0.4}});
  const WeibullModel population(3.0, 240.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(refine_with_hazard(
        report, population, SimTime::from_months(6.0), 0.4));
  }
}
BENCHMARK(BM_HazardRefinement);

}  // namespace

int main(int argc, char** argv) {
  print_diagnostic_ablation();
  print_prognostic_ablation();
  // `--table` prints the two ablations alone: they are deterministic, so
  // their stdout is pinned.
  if (argc == 2 && std::strcmp(argv[1], "--table") == 0) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
