// E6/E11 — Expert-system agreement and severity calibration.
//
// Paper claim (§6.1): the DLI expert system "exceeds 95% agreement with
// human expert analysts for machinery aboard the Nimitz class ships". Our
// ground truth is the injected fault, standing in for the analyst: the
// harness seeds every failure mode at randomized severities, runs the
// DC-resident analyzers (DLI rules + fuzzy logic), and scores top-1
// agreement plus a confusion summary. E11's severity-gradient mapping
// (Slight/Moderate/Serious/Extreme -> none/months/weeks/days) prints as a
// severity sweep.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <map>

#include "mpros/common/rng.hpp"
#include "mpros/fuzzy/chiller_fuzzy.hpp"
#include "mpros/plant/chiller.hpp"
#include "mpros/rules/dli_rules.hpp"

namespace {

using namespace mpros;
using domain::FailureMode;


/// One trial: seed `mode` at `severity`, run both analyzers, return the
/// top-ranked diagnosis (or nullopt when nothing fires).
std::optional<FailureMode> diagnose_trial(FailureMode mode, double severity,
                                          std::uint64_t seed) {
  plant::ChillerConfig cfg;
  cfg.seed = seed;
  plant::ChillerSimulator chiller(cfg);
  chiller.faults().schedule({mode, SimTime(0), SimTime(0), severity,
                             plant::GrowthProfile::Step});
  // Let process variables settle onto the fault's operating point.
  chiller.advance(SimTime::from_hours(1.0));

  const rules::FeatureExtractor extractor(chiller.signature());
  const rules::RuleEngine engine(rules::chiller_rulebase());
  const fuzzy::FuzzyDiagnoser fuzzy_dx;
  const rules::BelievabilityTable beliefs;
  const auto process = chiller.process_snapshot();

  std::optional<FailureMode> best;
  double best_severity = 0.0;
  const auto consider = [&](const rules::Diagnosis& d) {
    if (d.severity > best_severity) {
      best_severity = d.severity;
      best = d.mode;
    }
  };

  std::vector<double> vib(8192);
  for (const auto point :
       {plant::MachinePoint::Motor, plant::MachinePoint::Gearbox,
        plant::MachinePoint::Compressor}) {
    chiller.acquire_vibration(point, 40960.0, vib);
    rules::FeatureFrame frame;
    extractor.extract_vibration(vib, 40960.0, frame);
    if (point == plant::MachinePoint::Motor) {
      std::vector<double> current(32768);
      chiller.acquire_current(4096.0, current);
      extractor.extract_current(current, 4096.0, chiller.load(), frame);
    }
    for (const auto& [k, v] : process) frame.set(k, v);
    for (const auto& d : engine.evaluate(frame, beliefs)) consider(d);
  }
  for (const auto& d : fuzzy_dx.evaluate(process, beliefs)) consider(d);
  return best;
}

void print_agreement_table() {
  Rng rng(0xE6);
  constexpr int kTrialsPerMode = 12;
  std::size_t agree = 0, total = 0, missed = 0;
  std::map<std::pair<FailureMode, FailureMode>, int> confusion;

  std::printf("\nE6 expert-system agreement (paper: >95%% with analysts)\n");
  for (const FailureMode mode : domain::all_failure_modes()) {
    int mode_agree = 0;
    for (int t = 0; t < kTrialsPerMode; ++t) {
      const double severity = rng.uniform(0.6, 0.95);
      const auto result =
          diagnose_trial(mode, severity, 0xACC0 + 131 * total);
      ++total;
      if (result == mode) {
        ++agree;
        ++mode_agree;
      } else if (!result) {
        ++missed;
      } else {
        ++confusion[{mode, *result}];
      }
    }
    std::printf("  %-26s %2d/%d\n", domain::to_string(mode), mode_agree,
                kTrialsPerMode);
  }
  std::printf("  ------------------------------------\n");
  std::printf("  overall top-1 agreement : %.1f%%  (paper >95%%)\n",
              100.0 * static_cast<double>(agree) /
                  static_cast<double>(total));
  std::printf("  missed (nothing fired)  : %zu/%zu\n", missed, total);
  if (!confusion.empty()) {
    std::printf("  confusions:\n");
    for (const auto& [pair, count] : confusion) {
      std::printf("    %-24s -> %-24s x%d\n",
                  domain::to_string(pair.first),
                  domain::to_string(pair.second), count);
    }
  }
}

void print_severity_calibration() {
  std::printf("\nE11 severity gradients (paper: Slight/Moderate/Serious/"
              "Extreme => none/months/weeks/days)\n");
  std::printf("  %-10s %-10s %-10s %-14s\n", "injected", "score",
              "gradient", "P90 horizon");
  const rules::RuleEngine engine(rules::chiller_rulebase());
  const rules::BelievabilityTable beliefs;
  const rules::FeatureExtractor extractor(domain::navy_chiller_signature());

  for (const double injected : {0.25, 0.45, 0.65, 0.85, 1.0}) {
    plant::ChillerConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(injected * 1000);
    plant::ChillerSimulator chiller(cfg);
    chiller.faults().schedule({FailureMode::MotorImbalance, SimTime(0),
                               SimTime(0), injected,
                               plant::GrowthProfile::Step});
    chiller.advance(SimTime::from_seconds(10));
    std::vector<double> vib(8192);
    chiller.acquire_vibration(plant::MachinePoint::Motor, 40960.0, vib);
    rules::FeatureFrame frame;
    extractor.extract_vibration(vib, 40960.0, frame);
    frame.set(rules::feat::kLoad, chiller.load());

    const auto diagnoses = engine.evaluate(frame, beliefs);
    if (diagnoses.empty()) {
      std::printf("  %-10.2f %-10s %-10s %-14s\n", injected, "-", "None",
                  "--");
      continue;
    }
    const auto& d = diagnoses.front();
    std::string p90 = "--";
    for (const auto& p : d.prognosis) {
      if (p.probability >= 0.9) {
        p90 = to_string(p.horizon);
        break;
      }
    }
    std::printf("  %-10.2f %-10.2f %-10s %-14s\n", injected, d.severity,
                rules::to_string(d.gradient), p90.c_str());
  }
  std::printf("\n");
}

void BM_RuleEvaluation(benchmark::State& state) {
  const rules::RuleEngine engine(rules::chiller_rulebase());
  const rules::BelievabilityTable beliefs;
  rules::FeatureFrame frame;
  frame.set(rules::feat::kLoad, 0.85);
  frame.set(rules::feat::kOrder1, 0.3);
  frame.set(rules::feat::kOrder2, 0.1);
  frame.set(rules::feat::kBpfo, 0.08);
  frame.set(rules::feat::kKurtosis, 5.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.evaluate(frame, beliefs));
  }
  state.SetItemsProcessed(state.iterations() * engine.rulebase().size());
  state.SetLabel("rule-evaluations");
}
BENCHMARK(BM_RuleEvaluation);

void BM_FeatureExtraction(benchmark::State& state) {
  plant::ChillerSimulator chiller;
  chiller.advance(SimTime::from_seconds(1));
  std::vector<double> vib(8192);
  chiller.acquire_vibration(plant::MachinePoint::Motor, 40960.0, vib);
  const rules::FeatureExtractor extractor(chiller.signature());
  for (auto _ : state) {
    rules::FeatureFrame frame;
    extractor.extract_vibration(vib, 40960.0, frame);
    benchmark::DoNotOptimize(frame);
  }
  state.SetItemsProcessed(state.iterations() * vib.size());
  state.SetLabel("samples");
}
BENCHMARK(BM_FeatureExtraction);

}  // namespace

int main(int argc, char** argv) {
  print_agreement_table();
  print_severity_calibration();
  // `--table` prints the two tables alone: they are seeded, so their stdout
  // is pinned.
  if (argc == 2 && std::strcmp(argv[1], "--table") == 0) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
