// DLI-substitute rule engine tests: clause semantics, gating (the paper's
// load-sensitized looseness rule), severity gradients (E11), believability,
// and detection of synthesized fault signatures.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "mpros/telemetry/metrics.hpp"

#include "mpros/plant/vibration.hpp"
#include "mpros/rules/believability.hpp"
#include "mpros/rules/dli_rules.hpp"
#include "mpros/rules/engine.hpp"
#include "mpros/rules/features.hpp"
#include "mpros/rules/severity.hpp"

namespace mpros::rules {
namespace {

using domain::FailureMode;

TEST(FeatureFrameTest, GetWithFallbackAndMaybe) {
  FeatureFrame f;
  f.set("a", 1.5);
  EXPECT_DOUBLE_EQ(f.get("a"), 1.5);
  EXPECT_DOUBLE_EQ(f.get("missing", -1.0), -1.0);
  EXPECT_FALSE(f.maybe("missing").has_value());
  EXPECT_TRUE(f.has("a"));
}

TEST(ClauseTest, UpwardRamp) {
  FeatureFrame f;
  const Clause c{"x", 1.0, 3.0, 1.0, false, std::nullopt, ""};
  f.set("x", 0.5);
  EXPECT_DOUBLE_EQ(*clause_evidence(c, f), 0.0);
  f.set("x", 2.0);
  EXPECT_DOUBLE_EQ(*clause_evidence(c, f), 0.5);
  f.set("x", 5.0);
  EXPECT_DOUBLE_EQ(*clause_evidence(c, f), 1.0);
}

TEST(ClauseTest, DownwardRampForLowIsBad) {
  // warn 200 -> alarm 100: oil pressure style.
  const Clause c{"p", 200.0, 100.0, 1.0, false, std::nullopt, ""};
  FeatureFrame f;
  f.set("p", 250.0);
  EXPECT_DOUBLE_EQ(*clause_evidence(c, f), 0.0);
  f.set("p", 150.0);
  EXPECT_DOUBLE_EQ(*clause_evidence(c, f), 0.5);
  f.set("p", 50.0);
  EXPECT_DOUBLE_EQ(*clause_evidence(c, f), 1.0);
}

TEST(ClauseTest, GateExcludesClause) {
  Clause c{"x", 0.0, 1.0, 1.0, false, Gate{"load", 0.3, 1.1}, ""};
  FeatureFrame f;
  f.set("x", 1.0);
  f.set("load", 0.1);
  EXPECT_FALSE(clause_evidence(c, f).has_value());
  f.set("load", 0.8);
  EXPECT_TRUE(clause_evidence(c, f).has_value());
}

TEST(ClauseTest, MissingFeatureAbstains) {
  const Clause c{"x", 0.0, 1.0, 1.0, false, std::nullopt, ""};
  FeatureFrame f;
  EXPECT_FALSE(clause_evidence(c, f).has_value());
}

TEST(RuleEngineTest, RequiredClauseBlocksWhenZero) {
  Rule r;
  r.mode = FailureMode::MotorImbalance;
  r.name = "test";
  r.clauses = {
      Clause{"must", 1.0, 2.0, 1.0, true, std::nullopt, "must"},
      Clause{"extra", 0.0, 1.0, 5.0, false, std::nullopt, "extra"},
  };
  RuleEngine engine({r});
  BelievabilityTable beliefs;

  FeatureFrame f;
  f.set("must", 0.5);   // below warn -> zero evidence on required clause
  f.set("extra", 1.0);  // strong but not enough alone
  EXPECT_TRUE(engine.evaluate(f, beliefs).empty());

  f.set("must", 1.8);
  EXPECT_FALSE(engine.evaluate(f, beliefs).empty());
}

TEST(RuleEngineTest, LoadGateSuppressesLoosenessAtLowLoad) {
  // The paper's flagship example (§6.1): no looseness call at low load.
  RuleEngine engine(chiller_rulebase());
  BelievabilityTable beliefs;

  FeatureFrame f;
  f.set(feat::kSubharmonics, 0.4);     // screaming looseness signature
  f.set(feat::kHarmonicSeries, 0.8);
  f.set(feat::kLoad, 0.05);            // ...but the machine is unloaded

  for (const Diagnosis& d : engine.evaluate(f, beliefs)) {
    EXPECT_NE(d.mode, FailureMode::BearingHousingLooseness);
  }

  f.set(feat::kLoad, 0.9);
  bool found = false;
  for (const Diagnosis& d : engine.evaluate(f, beliefs)) {
    if (d.mode == FailureMode::BearingHousingLooseness) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(RuleEngineTest, DiagnosesSortedBySeverity) {
  RuleEngine engine(chiller_rulebase());
  BelievabilityTable beliefs;
  FeatureFrame f;
  f.set(feat::kLoad, 0.9);
  f.set(feat::kOrder1, 0.5);   // extreme imbalance
  f.set(feat::kOrder2, 0.18);  // moderate misalignment
  f.set(feat::kOrder3, 0.06);
  const auto diagnoses = engine.evaluate(f, beliefs);
  ASSERT_GE(diagnoses.size(), 2u);
  for (std::size_t i = 1; i < diagnoses.size(); ++i) {
    EXPECT_GE(diagnoses[i - 1].severity, diagnoses[i].severity);
  }
  EXPECT_EQ(diagnoses[0].mode, FailureMode::MotorImbalance);
}

TEST(RuleEngineTest, OnlyElectricalModesReadTheCurrentRecord) {
  std::vector<FailureMode> modes;
  for (const Rule& r : chiller_rulebase()) {
    if (reads_current(r)) modes.push_back(r.mode);
  }
  EXPECT_EQ(modes, (std::vector<FailureMode>{FailureMode::RotorBarDefect,
                                             FailureMode::StatorWindingFault}));
}

// --- Severity gradients (E11) ----------------------------------------------

TEST(SeverityTest, GradientBoundaries) {
  EXPECT_EQ(gradient_of(0.05), Gradient::None);
  EXPECT_EQ(gradient_of(0.25), Gradient::Slight);
  EXPECT_EQ(gradient_of(0.45), Gradient::Moderate);
  EXPECT_EQ(gradient_of(0.70), Gradient::Serious);
  EXPECT_EQ(gradient_of(0.95), Gradient::Extreme);
}

TEST(SeverityTest, GradientToTimeToFailureShape) {
  // §6.1: Slight/Moderate/Serious/Extreme = no foreseeable failure /
  // months / weeks / days.
  EXPECT_TRUE(default_prognosis(0.05).empty());

  const auto at_90 = [](double severity) {
    const auto prog = default_prognosis(severity);
    for (const PrognosticPoint& p : prog) {
      if (p.probability >= 0.9) return p.horizon;
    }
    return prog.empty() ? SimTime(0) : prog.back().horizon;
  };
  const SimTime moderate = at_90(0.5);
  const SimTime serious = at_90(0.7);
  const SimTime extreme = at_90(0.9);
  EXPECT_GT(moderate.days(), 60.0);              // months
  EXPECT_GT(serious.days(), 7.0);                // weeks
  EXPECT_LT(serious.days(), moderate.days());
  EXPECT_LE(extreme.days(), 7.0);                // days
  EXPECT_LT(extreme.days(), serious.days());
}

TEST(SeverityTest, HigherScoreWithinBandPredictsEarlier) {
  const auto first_horizon = [](double severity) {
    return default_prognosis(severity).front().horizon;
  };
  EXPECT_LE(first_horizon(0.78).micros(), first_horizon(0.62).micros());
}

TEST(SeverityTest, PrognosisProbabilitiesMonotone) {
  for (const double s : {0.25, 0.5, 0.7, 0.9}) {
    const auto prog = default_prognosis(s);
    for (std::size_t i = 1; i < prog.size(); ++i) {
      EXPECT_GE(prog[i].probability, prog[i - 1].probability);
      EXPECT_GT(prog[i].horizon, prog[i - 1].horizon);
    }
  }
}

// --- Believability (§6.1) ---------------------------------------------------

TEST(BelievabilityTest, PriorEncodes95PercentAgreement) {
  const BelievabilityTable t;
  EXPECT_NEAR(t.belief(FailureMode::MotorImbalance), 0.95, 1e-9);
}

TEST(BelievabilityTest, ReversalsLowerBelief) {
  BelievabilityTable t;
  for (int i = 0; i < 10; ++i) t.record_reversal(FailureMode::GearMeshWear);
  EXPECT_LT(t.belief(FailureMode::GearMeshWear), 0.70);
  // Other modes unaffected.
  EXPECT_NEAR(t.belief(FailureMode::MotorImbalance), 0.95, 1e-9);
}

TEST(BelievabilityTest, ConfirmationsRaiseBelief) {
  BelievabilityTable t(1.0, 1.0);  // weak prior
  for (int i = 0; i < 50; ++i) {
    t.record_confirmation(FailureMode::PumpCavitation);
  }
  EXPECT_GT(t.belief(FailureMode::PumpCavitation), 0.9);
}

// --- Synthesized-signature detection ----------------------------------------

class SignatureDetectionTest
    : public ::testing::TestWithParam<FailureMode> {
 protected:
  static constexpr double kRate = 40960.0;
  static constexpr std::size_t kWindow = 8192;
};

TEST_P(SignatureDetectionTest, FullSeverityFaultFiresItsRule) {
  const FailureMode mode = GetParam();
  plant::VibrationSynthesizer synth(domain::navy_chiller_signature(), 77);
  plant::Severities severities{};
  severities[static_cast<std::size_t>(mode)] = 0.9;

  // Sense at the point that owns the fault.
  plant::MachinePoint point = plant::MachinePoint::Motor;
  if (mode == FailureMode::GearMeshWear) point = plant::MachinePoint::Gearbox;
  if (mode == FailureMode::CompressorBearingWear ||
      mode == FailureMode::BearingHousingLooseness ||
      mode == FailureMode::PumpCavitation) {
    point = plant::MachinePoint::Compressor;
  }

  std::vector<double> waveform(kWindow);
  synth.acceleration(point, severities, 0.85, 0.0, kRate, waveform);

  FeatureExtractor extractor(domain::navy_chiller_signature());
  FeatureFrame frame;
  extractor.extract_vibration(waveform, kRate, frame);
  frame.set(feat::kLoad, 0.85);
  if (mode == FailureMode::RotorBarDefect) {
    std::vector<double> current(kWindow);
    synth.motor_current(severities, 0.85, 0.0, kRate, current);
    extractor.extract_current(current, kRate, 0.85, frame);
  }

  RuleEngine engine(chiller_rulebase());
  BelievabilityTable beliefs;
  bool fired = false;
  for (const Diagnosis& d : engine.evaluate(frame, beliefs)) {
    if (d.mode == mode) {
      fired = true;
      EXPECT_GE(d.severity, 0.2);
      EXPECT_FALSE(d.explanation.empty());
      EXPECT_FALSE(d.prognosis.empty());
    }
  }
  EXPECT_TRUE(fired) << "rule for " << domain::to_string(mode)
                     << " did not fire";
}

INSTANTIATE_TEST_SUITE_P(
    VibrationModes, SignatureDetectionTest,
    ::testing::Values(FailureMode::MotorImbalance,
                      FailureMode::ShaftMisalignment,
                      FailureMode::BearingHousingLooseness,
                      FailureMode::RotorBarDefect,
                      FailureMode::MotorBearingWear,
                      FailureMode::CompressorBearingWear,
                      FailureMode::GearMeshWear,
                      FailureMode::PumpCavitation),
    [](const auto& inst) { return domain::to_string(inst.param); });

TEST(FeatureExtractionTest, FrameBitwiseStableAcrossRepeatedCalls) {
  // The cached-plan / scratch-arena DSP path must be deterministic: the same
  // waveform through the same extractor yields bit-identical features, call
  // after call (ISSUE 2 acceptance).
  constexpr double kRate = 40960.0;
  plant::VibrationSynthesizer synth(domain::navy_chiller_signature(), 91);
  plant::Severities severities{};
  severities[static_cast<std::size_t>(FailureMode::MotorBearingWear)] = 0.6;
  std::vector<double> waveform(8192);
  synth.acceleration(plant::MachinePoint::Motor, severities, 0.8, 0.0, kRate,
                     waveform);

  FeatureExtractor extractor(domain::navy_chiller_signature());
  FeatureFrame first;
  extractor.extract_vibration(waveform, kRate, first);
  ASSERT_GT(first.size(), 0u);

  for (int pass = 0; pass < 3; ++pass) {
    FeatureFrame again;
    extractor.extract_vibration(waveform, kRate, again);
    ASSERT_EQ(again.size(), first.size());
    for (const auto& [key, value] : first.all()) {
      const auto got = again.maybe(key);
      ASSERT_TRUE(got.has_value()) << key;
      EXPECT_EQ(*got, value) << key << " drifted on pass " << pass;
    }
  }
}

TEST(FeatureExtractionTest, FrameBitwiseStableAcrossThreads) {
  // Each thread owns its own scratch arena; results must not depend on which
  // thread runs the extraction or on how warm its caches are.
  constexpr double kRate = 40960.0;
  plant::VibrationSynthesizer synth(domain::navy_chiller_signature(), 92);
  std::vector<double> waveform(8192);
  synth.acceleration(plant::MachinePoint::Compressor, plant::Severities{},
                     0.85, 0.0, kRate, waveform);

  FeatureExtractor extractor(domain::navy_chiller_signature());
  FeatureFrame reference;
  extractor.extract_vibration(waveform, kRate, reference);

  constexpr int kThreads = 4;
  std::vector<FeatureFrame> frames(kThreads);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Two extractions per thread: the first on a cold per-thread arena,
        // the second fully warm — both must match the reference.
        FeatureFrame cold;
        extractor.extract_vibration(waveform, kRate, cold);
        frames[static_cast<std::size_t>(t)] = std::move(cold);
        extractor.extract_vibration(waveform, kRate,
                                    frames[static_cast<std::size_t>(t)]);
      });
    }
  }
  for (const FeatureFrame& frame : frames) {
    ASSERT_EQ(frame.size(), reference.size());
    for (const auto& [key, value] : reference.all()) {
      const auto got = frame.maybe(key);
      ASSERT_TRUE(got.has_value()) << key;
      EXPECT_EQ(*got, value) << key;
    }
  }
}

TEST(SignatureDetectionTest, HealthyMachineFiresNothingVibrational) {
  plant::VibrationSynthesizer synth(domain::navy_chiller_signature(), 78);
  std::vector<double> waveform(8192);
  synth.acceleration(plant::MachinePoint::Motor, plant::Severities{}, 0.85,
                     0.0, 40960.0, waveform);

  FeatureExtractor extractor(domain::navy_chiller_signature());
  FeatureFrame frame;
  extractor.extract_vibration(waveform, 40960.0, frame);
  frame.set(feat::kLoad, 0.85);

  RuleEngine engine(chiller_rulebase());
  BelievabilityTable beliefs;
  EXPECT_TRUE(engine.evaluate(frame, beliefs).empty());
}

TEST(FeatureFrameTest, RefusesNonFiniteValuesAndCounts) {
  auto& nonfinite =
      telemetry::Registry::instance().counter("rules.nonfinite_inputs");
  const std::uint64_t before = nonfinite.value();

  FeatureFrame f;
  f.set("nan", std::numeric_limits<double>::quiet_NaN());
  f.set("inf", std::numeric_limits<double>::infinity());
  f.set("neg_inf", -std::numeric_limits<double>::infinity());
  f.set("fine", 2.0);

  // Poisoned features read as "unmeasured" so clauses abstain on them.
  EXPECT_EQ(f.size(), 1u);
  EXPECT_FALSE(f.has("nan"));
  EXPECT_FALSE(f.maybe("inf").has_value());
  EXPECT_DOUBLE_EQ(f.get("fine"), 2.0);
  EXPECT_EQ(nonfinite.value(), before + 3);
}

TEST(RuleEngineTest, NonFiniteFeatureNeverBecomesDiagnosis) {
  // A NaN where the 1x amplitude should be must read as "not measured":
  // the imbalance rule abstains instead of producing a NaN-severity report.
  FeatureFrame poisoned;
  poisoned.set(feat::kOrder1, std::numeric_limits<double>::quiet_NaN());
  RuleEngine engine(chiller_rulebase());
  BelievabilityTable beliefs;
  for (const Diagnosis& d : engine.evaluate(poisoned, beliefs)) {
    EXPECT_TRUE(std::isfinite(d.severity));
    EXPECT_TRUE(std::isfinite(d.belief));
  }
}

}  // namespace
}  // namespace mpros::rules
