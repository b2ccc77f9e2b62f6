// Neural substrate tests: layer gradients, training convergence, the WNN
// fault classifier on synthetic plant data.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "mpros/common/rng.hpp"
#include "mpros/mpros/wnn_training.hpp"
#include "mpros/nn/classifier.hpp"
#include "mpros/nn/layers.hpp"
#include "mpros/nn/network.hpp"
#include "mpros/plant/vibration.hpp"
#include "mpros/rules/believability.hpp"

namespace mpros::nn {
namespace {

TEST(SoftmaxTest, NormalizedAndOrderPreserving) {
  const std::vector<double> logits = {1.0, 3.0, 2.0};
  const std::vector<double> p = softmax(logits);
  double sum = 0.0;
  for (double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GT(p[1], p[2]);
  EXPECT_GT(p[2], p[0]);
}

TEST(SoftmaxTest, StableForLargeLogits) {
  const std::vector<double> logits = {1000.0, 999.0};
  const std::vector<double> p = softmax(logits);
  EXPECT_TRUE(std::isfinite(p[0]));
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
}

TEST(WaveletLayerTest, MexicanHatProperties) {
  EXPECT_DOUBLE_EQ(WaveletLayer::psi(0.0), 1.0);
  EXPECT_NEAR(WaveletLayer::psi(1.0), 0.0, 1e-12);  // zero crossing at |z|=1
  EXPECT_LT(WaveletLayer::psi(2.0), 0.0);           // negative side lobe
  EXPECT_NEAR(WaveletLayer::psi(6.0), 0.0, 1e-6);   // decays
  EXPECT_NEAR(WaveletLayer::dpsi(0.0), 0.0, 1e-12); // extremum at 0
}

/// Finite-difference check of a layer's input gradient.
template <typename MakeLayer>
void check_input_gradient(MakeLayer make_layer, std::size_t in,
                          std::size_t out) {
  Rng rng(55);
  auto layer = make_layer();
  std::vector<double> x(in);
  for (double& v : x) v = rng.uniform(-1, 1);
  std::vector<double> grad_out(out);
  for (double& v : grad_out) v = rng.uniform(-1, 1);

  // Analytic gradient.
  layer->forward(x);
  const auto grad_span = layer->backward(grad_out);
  const std::vector<double> analytic(grad_span.begin(), grad_span.end());

  // Numeric gradient of L = grad_out . layer(x).
  const auto loss = [&](const std::vector<double>& input) {
    const auto y = layer->forward(input);
    double l = 0.0;
    for (std::size_t i = 0; i < out; ++i) l += grad_out[i] * y[i];
    return l;
  };
  constexpr double kEps = 1e-6;
  for (std::size_t i = 0; i < in; ++i) {
    std::vector<double> xp = x, xm = x;
    xp[i] += kEps;
    xm[i] -= kEps;
    const double numeric = (loss(xp) - loss(xm)) / (2.0 * kEps);
    EXPECT_NEAR(analytic[i], numeric, 1e-4) << "input " << i;
  }
}

TEST(DenseLayerTest, InputGradientMatchesFiniteDifference) {
  Rng rng(56);
  check_input_gradient(
      [&] { return std::make_unique<DenseLayer>(5, 3, Activation::Tanh, rng); },
      5, 3);
}

TEST(WaveletLayerTest, InputGradientMatchesFiniteDifference) {
  Rng rng(57);
  check_input_gradient(
      [&] { return std::make_unique<WaveletLayer>(4, 6, rng); }, 4, 6);
}

TEST(NetworkTest, LearnsXor) {
  Rng rng(58);
  Network net;
  net.add_dense(2, 8, Activation::Tanh, rng);
  net.add_dense(8, 2, Activation::Linear, rng);

  std::vector<Example> examples = {
      {{0.0, 0.0}, 0}, {{0.0, 1.0}, 1}, {{1.0, 0.0}, 1}, {{1.0, 1.0}, 0}};
  TrainConfig cfg;
  cfg.learning_rate = 0.1;
  cfg.epochs = 2000;
  cfg.batch_size = 4;
  cfg.target_loss = 0.02;
  const TrainStats stats = net.train(examples, cfg, rng);
  EXPECT_LT(stats.final_loss, 0.1);
  EXPECT_DOUBLE_EQ(net.accuracy(examples), 1.0);
}

TEST(NetworkTest, WaveletNetworkLearnsLocalizedFunction) {
  // A bump classifier: class 1 iff |x - 0.5| < 0.2 — localization is what
  // wavelons are for.
  Rng rng(59);
  Network net;
  net.add_wavelet(1, 10, rng);
  net.add_dense(10, 2, Activation::Linear, rng);

  std::vector<Example> examples;
  for (int i = 0; i <= 60; ++i) {
    const double x = i / 60.0;
    examples.push_back({{x}, std::fabs(x - 0.5) < 0.2 ? 1u : 0u});
  }
  TrainConfig cfg;
  cfg.learning_rate = 0.05;
  cfg.epochs = 1500;
  cfg.target_loss = 0.05;
  net.train(examples, cfg, rng);
  EXPECT_GT(net.accuracy(examples), 0.9);
}

TEST(NetworkTest, PredictReturnsDistribution) {
  Rng rng(60);
  Network net;
  net.add_dense(3, 4, Activation::Tanh, rng);
  net.add_dense(4, 5, Activation::Linear, rng);
  const std::vector<double> x = {0.1, -0.5, 2.0};
  const std::vector<double> p = net.predict(x);
  ASSERT_EQ(p.size(), 5u);
  double sum = 0.0;
  for (double v : p) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(WnnLabelTest, RoundTrip) {
  EXPECT_EQ(wnn_label(std::nullopt), 0u);
  EXPECT_FALSE(wnn_mode(0).has_value());
  for (const auto m : domain::all_failure_modes()) {
    EXPECT_EQ(wnn_mode(wnn_label(m)), m);
  }
  EXPECT_EQ(kWnnClassCount, 13u);
}

TEST(WnnClassifierTest, FeatureVectorMatchesDeclaredSize) {
  const WnnClassifier classifier;
  std::vector<double> waveform(4096, 0.1);
  const auto f = classifier.features(waveform, 40960.0, WnnContext{});
  EXPECT_EQ(f.size(), classifier.feature_count());
}

// FNV-1a over the bits of `values`.
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

TEST(WnnClassifierTest, TrainingSetAndFeatureDigestsPinned) {
  // E13's training set (bench_transient's config): burst-gated windows at
  // assorted duties, and the feature vector of each. The digests were
  // recorded on x86-64 with GCC 12 and glibc 2.36; a change to plant
  // synthesis moves both, a change to any WNN feature moves the second.
  WnnTrainingConfig cfg;
  cfg.windows_per_class = 28;
  cfg.min_duty = 0.08;
  cfg.min_severity = 0.35;
  cfg.classifier.train.epochs = 500;
  const auto windows = make_training_windows(cfg);
  const WnnClassifier classifier(cfg.classifier);

  std::uint64_t windows_h = 0xcbf29ce484222325ULL;
  std::uint64_t features_h = 0xcbf29ce484222325ULL;
  for (const LabelledWindow& w : windows) {
    const double head[] = {static_cast<double>(w.label), w.sample_rate_hz,
                           w.context.bearing_temp_c, w.context.shaft_hz,
                           w.context.load_fraction};
    windows_h = fnv1a(fnv1a(windows_h, head), w.waveform);
    features_h = fnv1a(
        features_h, classifier.features(w.waveform, w.sample_rate_hz,
                                        w.context));
  }
  EXPECT_EQ(windows.size(), 252u);
  EXPECT_EQ(windows_h, 0x2F2625F9DDA02E07ULL) << std::hex << windows_h;
  EXPECT_EQ(features_h, 0x3D6ED51C8F6519ADULL) << std::hex << features_h;
}

TEST(WnnClassifierTest, TrainsToHighAccuracyOnSyntheticFaults) {
  WnnTrainingConfig cfg;
  cfg.windows_per_class = 8;
  cfg.classifier.train.epochs = 150;
  const auto windows = make_training_windows(cfg);
  WnnClassifier classifier(cfg.classifier, 123);
  const TrainStats stats = classifier.train(windows);
  EXPECT_GT(stats.final_accuracy, 0.85);
}

TEST(WnnClassifierTest, DiagnosesInjectedImbalance) {
  WnnTrainingConfig cfg;
  cfg.windows_per_class = 8;
  cfg.classifier.train.epochs = 150;
  auto classifier = train_wnn_classifier(cfg);

  // A fresh imbalance window from a different seed.
  plant::VibrationSynthesizer synth(domain::navy_chiller_signature(), 999);
  plant::Severities severities{};
  severities[static_cast<std::size_t>(domain::FailureMode::MotorImbalance)] =
      0.8;
  std::vector<double> waveform(4096);
  synth.acceleration(plant::MachinePoint::Motor, severities, 0.8, 0.0,
                     40960.0, waveform);

  rules::BelievabilityTable beliefs;
  WnnContext ctx;
  ctx.load_fraction = 0.8;
  const auto diagnoses =
      classifier->diagnose(waveform, 40960.0, ctx, beliefs, 0.3);
  ASSERT_FALSE(diagnoses.empty());
  EXPECT_EQ(diagnoses.front().mode, domain::FailureMode::MotorImbalance);
}

TEST(WeightFlashingTest, ExportImportReproducesPredictions) {
  Rng rng(71);
  Network trained;
  trained.add_wavelet(4, 6, rng);
  trained.add_dense(6, 3, Activation::Linear, rng);
  std::vector<Example> examples;
  Rng data_rng(72);
  for (int i = 0; i < 60; ++i) {
    std::vector<double> f = {data_rng.uniform(-1, 1), data_rng.uniform(-1, 1),
                             data_rng.uniform(-1, 1), data_rng.uniform(-1, 1)};
    examples.push_back({f, f[0] > 0 ? (f[1] > 0 ? 0u : 1u) : 2u});
  }
  TrainConfig cfg;
  cfg.epochs = 150;
  trained.train(examples, cfg, rng);

  // "Flash" into a fresh network with the identical architecture but
  // different random initialization.
  Rng other(999);
  Network flashed;
  flashed.add_wavelet(4, 6, other);
  flashed.add_dense(6, 3, Activation::Linear, other);
  const auto weights = trained.export_weights();
  EXPECT_EQ(weights.size(), trained.weight_count());
  flashed.import_weights(weights);

  for (const Example& e : examples) {
    const auto pa = trained.predict(e.features);
    const auto pb = flashed.predict(e.features);
    for (std::size_t c = 0; c < pa.size(); ++c) {
      EXPECT_NEAR(pa[c], pb[c], 1e-12);
    }
  }
}

TEST(WeightFlashingTest, ClassifierFlashPreservesDiagnosis) {
  WnnTrainingConfig cfg;
  cfg.windows_per_class = 6;
  cfg.classifier.train.epochs = 80;
  auto trained = train_wnn_classifier(cfg);

  WnnClassifier flashed(cfg.classifier, /*seed=*/424242);
  flashed.import_weights(trained->export_weights());
  EXPECT_TRUE(flashed.trained());

  plant::VibrationSynthesizer synth(domain::navy_chiller_signature(), 31);
  plant::Severities severities{};
  severities[static_cast<std::size_t>(domain::FailureMode::MotorImbalance)] =
      0.8;
  std::vector<double> w(4096);
  synth.acceleration(plant::MachinePoint::Motor, severities, 0.8, 0.0,
                     40960.0, w);
  WnnContext ctx;
  const auto pa = trained->probabilities(w, 40960.0, ctx);
  const auto pb = flashed.probabilities(w, 40960.0, ctx);
  for (std::size_t c = 0; c < pa.size(); ++c) {
    EXPECT_NEAR(pa[c], pb[c], 1e-12);
  }
}

}  // namespace
}  // namespace mpros::nn
