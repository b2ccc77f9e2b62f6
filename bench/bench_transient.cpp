// E13 — Transitory phenomena: DLI steady-state rules vs the WNN.
//
// Paper (§1.1 item 3): the Wavelet Neural Network, "like DLI's, [is] aimed
// at vibration data, however, unlike DLI's, their algorithm will excel in
// drawing conclusions from transitory phenomena rather than steady state
// data." This ablation sweeps the burst duty cycle of an intermittent
// motor-bearing defect across three detectors:
//  - FFT-tone rules: the paper's characterization of DLI's core ("standard
//    machinery vibration FFT analysis") — envelope-spectrum tones only.
//    Window-averaged tone amplitudes dilute with duty, so this falls first.
//  - full rule engine: our production rulebase, whose kurtosis/crest
//    clauses add partial transient awareness.
//  - WNN: localized wavelet-map features trained with transient exposure.

#include <benchmark/benchmark.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <span>

#include "mpros/common/rng.hpp"
#include "mpros/mpros/wnn_training.hpp"
#include "mpros/plant/vibration.hpp"
#include "mpros/rules/dli_rules.hpp"

namespace {

using namespace mpros;
using domain::FailureMode;

constexpr double kRate = 40960.0;
constexpr std::size_t kWindow = 4096;
constexpr FailureMode kMode = FailureMode::MotorBearingWear;

std::vector<double> make_window(plant::VibrationSynthesizer& synth, Rng& rng,
                                double severity, double duty) {
  plant::Severities severities{};
  severities[static_cast<std::size_t>(kMode)] = severity;
  plant::TransientProfile transient;
  transient.duty = duty;
  std::vector<double> w(kWindow);
  synth.acceleration(plant::MachinePoint::Motor, severities,
                     rng.uniform(0.6, 0.95), rng.uniform(0.0, 100.0), kRate,
                     w, transient);
  return w;
}

/// FNV-1a over the bits of `values`.
std::uint64_t fnv1a(std::uint64_t h, std::span<const double> values) {
  for (const double v : values) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int b = 0; b < 64; b += 8) {
      h ^= (bits >> b) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

void print_e13_sweep() {
  // WNN trained with transient exposure, as its designers would have.
  WnnTrainingConfig train_cfg;
  train_cfg.windows_per_class = 28;
  train_cfg.min_duty = 0.08;
  train_cfg.min_severity = 0.35;
  train_cfg.classifier.train.epochs = 500;
  auto wnn = train_wnn_classifier(train_cfg);

  const rules::RuleEngine engine(rules::chiller_rulebase());
  // The paper-core spectral detector: envelope tones alone.
  std::vector<rules::Rule> spectral_rules;
  {
    rules::Rule r;
    r.mode = kMode;
    r.name = "bearing tones (FFT only)";
    r.clauses = {
        rules::Clause{rules::feat::kBpfo, 0.03, 0.15, 2.5, false,
                      std::nullopt, "outer-race tone"},
        rules::Clause{rules::feat::kBpfi, 0.03, 0.15, 2.5, false,
                      std::nullopt, "inner-race tone"},
    };
    spectral_rules.push_back(std::move(r));
  }
  const rules::RuleEngine spectral_engine(std::move(spectral_rules));
  const rules::BelievabilityTable beliefs;
  const rules::FeatureExtractor extractor(domain::navy_chiller_signature());
  plant::VibrationSynthesizer synth(domain::navy_chiller_signature(), 0x13);
  Rng rng(0xE13);

  std::printf(
      "\nE13 transitory-fault ablation (paper §1.1: WNN 'will excel in\n"
      "  drawing conclusions from transitory phenomena rather than steady\n"
      "  state data'). Intermittent motor-bearing defect, severity 0.7:\n"
      "  %-10s %14s %14s %14s\n", "burst duty", "FFT tones", "full rules",
      "WNN");

  constexpr int kTrials = 20;
  // The hit rates are whole percents over 20 trials, so a small move in
  // the burst-gated windows' bits could leave them as they are; the digest
  // of every window's samples cannot.
  std::uint64_t windows_h = 0xcbf29ce484222325ULL;
  for (const double duty : {1.0, 0.5, 0.25, 0.12}) {
    int spectral_hits = 0, dli_hits = 0, wnn_hits = 0;
    for (int t = 0; t < kTrials; ++t) {
      const auto w = make_window(synth, rng, 0.7, duty);
      windows_h = fnv1a(windows_h, w);

      rules::FeatureFrame frame;
      extractor.extract_vibration(w, kRate, frame);
      frame.set(rules::feat::kLoad, 0.85);
      for (const auto& d : spectral_engine.evaluate(frame, beliefs)) {
        if (d.mode == kMode) {
          ++spectral_hits;
          break;
        }
      }
      for (const auto& d : engine.evaluate(frame, beliefs)) {
        if (d.mode == kMode) {
          ++dli_hits;
          break;
        }
      }

      nn::WnnContext ctx;
      ctx.load_fraction = 0.85;
      ctx.bearing_temp_c = 70.0;  // the thermal context the WNN also sees
      // Detection = the classifier puts substantial posterior on the true
      // mode (the DC's reporting threshold, not a forced argmax).
      const auto p = wnn->probabilities(w, kRate, ctx);
      if (p[nn::wnn_label(kMode)] >= 0.30) ++wnn_hits;
    }
    std::printf("  %-10.2f %13.0f%% %13.0f%% %13.0f%%\n", duty,
                100.0 * spectral_hits / kTrials, 100.0 * dli_hits / kTrials,
                100.0 * wnn_hits / kTrials);
  }
  std::printf("  window digest: %016" PRIx64 " (FNV-1a, all %d windows)\n",
              windows_h, 4 * kTrials);
  std::printf(
      "  shape: all three agree at steady state; the FFT-tone detector\n"
      "         dilutes away as the defect turns intermittent, while the\n"
      "         WNN (and the rule engine's time-domain clauses) keep seeing\n"
      "         the bursts — the complementarity that justifies hosting\n"
      "         multiple analyzers per DC.\n\n");
}

void BM_WnnInference(benchmark::State& state) {
  WnnTrainingConfig cfg;
  cfg.windows_per_class = 6;
  cfg.classifier.train.epochs = 60;
  auto wnn = train_wnn_classifier(cfg);
  plant::VibrationSynthesizer synth(domain::navy_chiller_signature(), 7);
  Rng rng(8);
  const auto w = make_window(synth, rng, 0.8, 0.5);
  nn::WnnContext ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wnn->probabilities(w, kRate, ctx));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("feature extraction + forward pass");
}
BENCHMARK(BM_WnnInference);

void BM_TransientSynthesis(benchmark::State& state) {
  plant::VibrationSynthesizer synth(domain::navy_chiller_signature(), 9);
  Rng rng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_window(synth, rng, 0.8, 0.25));
  }
  state.SetItemsProcessed(state.iterations() * kWindow);
  state.SetLabel("samples synthesized");
}
BENCHMARK(BM_TransientSynthesis);

}  // namespace

int main(int argc, char** argv) {
  print_e13_sweep();
  // `--table` prints the sweep alone: it is seeded, so its stdout is pinned.
  if (argc == 2 && std::strcmp(argv[1], "--table") == 0) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
