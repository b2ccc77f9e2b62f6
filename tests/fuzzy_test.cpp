// Fuzzy-logic analyzer tests: membership algebra, Mamdani inference, the
// chiller process rulebase.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "mpros/fuzzy/chiller_fuzzy.hpp"
#include "mpros/fuzzy/engine.hpp"
#include "mpros/fuzzy/membership.hpp"
#include "mpros/rules/features.hpp"

namespace mpros::fuzzy {
namespace {

using domain::FailureMode;

TEST(MembershipTest, TriangularShape) {
  const MembershipFunction mf = Triangular{0.0, 5.0, 10.0};
  EXPECT_DOUBLE_EQ(mf.grade(0.0), 0.0);
  EXPECT_DOUBLE_EQ(mf.grade(2.5), 0.5);
  EXPECT_DOUBLE_EQ(mf.grade(5.0), 1.0);
  EXPECT_DOUBLE_EQ(mf.grade(7.5), 0.5);
  EXPECT_DOUBLE_EQ(mf.grade(12.0), 0.0);
}

TEST(MembershipTest, TriangularShoulders) {
  const MembershipFunction left = Triangular{0.0, 0.0, 4.0};
  EXPECT_DOUBLE_EQ(left.grade(-1.0), 1.0);
  EXPECT_DOUBLE_EQ(left.grade(0.0), 1.0);
  EXPECT_DOUBLE_EQ(left.grade(2.0), 0.5);
  const MembershipFunction right = Triangular{4.0, 8.0, 8.0};
  EXPECT_DOUBLE_EQ(right.grade(9.0), 1.0);
}

TEST(MembershipTest, TrapezoidalPlateau) {
  const MembershipFunction mf = Trapezoidal{0.0, 2.0, 6.0, 8.0};
  EXPECT_DOUBLE_EQ(mf.grade(1.0), 0.5);
  EXPECT_DOUBLE_EQ(mf.grade(4.0), 1.0);
  EXPECT_DOUBLE_EQ(mf.grade(7.0), 0.5);
  EXPECT_DOUBLE_EQ(mf.grade(9.0), 0.0);
}

TEST(MembershipTest, GaussianSymmetric) {
  const MembershipFunction mf = Gaussian{5.0, 1.0};
  EXPECT_DOUBLE_EQ(mf.grade(5.0), 1.0);
  EXPECT_NEAR(mf.grade(4.0), mf.grade(6.0), 1e-12);
  EXPECT_LT(mf.grade(8.0), 0.02);
}

TEST(LinguisticVariableTest, LowNormalHighPartition) {
  const LinguisticVariable v =
      make_low_normal_high("temp", 0.0, 30.0, 70.0, 100.0);
  EXPECT_DOUBLE_EQ(v.grade("low", 10.0), 1.0);
  EXPECT_DOUBLE_EQ(v.grade("normal", 50.0), 1.0);
  EXPECT_DOUBLE_EQ(v.grade("high", 90.0), 1.0);
  // At an edge, low and normal overlap.
  EXPECT_GT(v.grade("low", 30.0), 0.0);
  EXPECT_GT(v.grade("normal", 30.0), 0.0);
}

TEST(LinguisticVariableTest, GradeClampsToUniverse) {
  const LinguisticVariable v =
      make_low_normal_high("x", 0.0, 3.0, 7.0, 10.0);
  EXPECT_DOUBLE_EQ(v.grade("high", 50.0), 1.0);   // clamped to max
  EXPECT_DOUBLE_EQ(v.grade("low", -50.0), 1.0);   // clamped to min
}

// Engine inputs read process channels; the demo engines read the oil
// temperature as "temp" and the superheat as "x".
using domain::Channel;
using domain::ProcessValues;
constexpr const char* kTemp = rules::feat::kOilTemp;
constexpr const char* kX = rules::feat::kSuperheat;

ProcessValues temp(double value) {
  ProcessValues v;
  v.set(Channel::OilTemp, value);
  return v;
}

MamdaniEngine make_demo_engine() {
  std::vector<LinguisticVariable> in;
  in.push_back(make_low_normal_high(kTemp, 0.0, 30.0, 70.0, 100.0));
  LinguisticVariable out("risk", 0.0, 1.0);
  out.add_term("low", Triangular{0.0, 0.0, 0.5});
  out.add_term("high", Triangular{0.5, 1.0, 1.0});
  MamdaniEngine e(std::move(in), std::move(out));
  e.add_rule({{{kTemp, "high"}}, "high"});
  e.add_rule({{{kTemp, "low"}}, "low"});
  e.add_rule({{{kTemp, "normal"}}, "low"});
  return e;
}

TEST(MamdaniTest, CrispExtremesMapToExtremes) {
  const MamdaniEngine e = make_demo_engine();
  EXPECT_GT(e.infer(temp(95.0)), 0.7);
  EXPECT_LT(e.infer(temp(10.0)), 0.3);
}

TEST(MamdaniTest, OutputMonotoneInInput) {
  // Centroid defuzzification wiggles slightly where memberships overlap;
  // require monotonicity up to a small tolerance.
  const MamdaniEngine e = make_demo_engine();
  double prev = -1.0;
  for (double t = 10.0; t <= 95.0; t += 5.0) {
    const double risk = e.infer(temp(t));
    EXPECT_GE(risk, prev - 0.05) << "at temp " << t;
    prev = std::max(prev, risk);
  }
}

TEST(MamdaniTest, NegatedAntecedent) {
  std::vector<LinguisticVariable> in;
  in.push_back(make_low_normal_high(kTemp, 0.0, 30.0, 70.0, 100.0));
  LinguisticVariable out("risk", 0.0, 1.0);
  out.add_term("low", Triangular{0.0, 0.0, 0.5});
  out.add_term("high", Triangular{0.5, 1.0, 1.0});
  MamdaniEngine e(std::move(in), std::move(out));
  e.add_rule({{{kTemp, "low", /*negated=*/true}}, "high"});
  e.add_rule({{{kTemp, "low"}}, "low"});
  EXPECT_GT(e.infer(temp(90.0)), 0.6);
  EXPECT_LT(e.infer(temp(5.0)), 0.4);
}

TEST(MamdaniTest, NothingFiredReturnsUniverseMinimum) {
  std::vector<LinguisticVariable> in;
  LinguisticVariable x(kX, 0.0, 10.0);
  x.add_term("mid", Triangular{4.0, 5.0, 6.0});
  in.push_back(x);
  LinguisticVariable out("y", 0.0, 1.0);
  out.add_term("high", Triangular{0.5, 1.0, 1.0});
  MamdaniEngine e(std::move(in), std::move(out));
  e.add_rule({{{kX, "mid"}}, "high"});
  ProcessValues x0;
  x0.set(Channel::Superheat, 0.0);
  EXPECT_DOUBLE_EQ(e.infer(x0), 0.0);
}

TEST(MamdaniTest, MeanOfMaximumDefuzzifier) {
  const MamdaniEngine e = make_demo_engine();
  const double mom = e.infer(temp(95.0), Defuzzifier::MeanOfMaximum);
  EXPECT_GT(mom, 0.8);
}

TEST(MamdaniTest, FiringStrengthsExposed) {
  const MamdaniEngine e = make_demo_engine();
  std::array<double, 3> strengths{};
  e.firing_strengths(temp(95.0), strengths);
  EXPECT_GT(strengths[0], 0.9);   // "high" rule
  EXPECT_LT(strengths[1], 0.05);  // "low" rule
}

// --- Chiller process diagnoser -----------------------------------------------

ProcessValues healthy_snapshot() {
  const auto nom = domain::navy_chiller_nominals();
  ProcessValues s;
  s.set(Channel::Load, 0.8);
  s.set(Channel::OilPressure, nom.oil_pressure_kpa);
  s.set(Channel::OilTemp, nom.oil_temperature_c);
  s.set(Channel::BearingTemp, nom.bearing_temp_c);
  s.set(Channel::WindingTemp, nom.motor_winding_temp_c);
  s.set(Channel::EvapPressure, nom.evap_pressure_kpa);
  s.set(Channel::CondPressure, nom.cond_pressure_kpa);
  s.set(Channel::Superheat, nom.superheat_c);
  s.set(Channel::ChwSupplyTemp, nom.chilled_water_supply_c);
  s.set(Channel::CondApproach, 4.0);
  s.set(Channel::MotorCurrent, nom.motor_current_a);
  return s;
}

TEST(FuzzyDiagnoserTest, HealthyPlantIsQuiet) {
  const FuzzyDiagnoser diagnoser;
  const rules::BelievabilityTable beliefs;
  EXPECT_TRUE(diagnoser.evaluate(healthy_snapshot(), beliefs).empty());
}

TEST(FuzzyDiagnoserTest, RefrigerantLeakSignatureFires) {
  const FuzzyDiagnoser diagnoser;
  const rules::BelievabilityTable beliefs;
  const auto nom = domain::navy_chiller_nominals();
  ProcessValues s = healthy_snapshot();
  s.set(Channel::EvapPressure, nom.evap_pressure_kpa - 90.0);
  s.set(Channel::Superheat, nom.superheat_c + 9.0);
  s.set(Channel::ChwSupplyTemp, nom.chilled_water_supply_c + 4.0);

  const auto diagnoses = diagnoser.evaluate(s, beliefs);
  ASSERT_FALSE(diagnoses.empty());
  EXPECT_EQ(diagnoses.front().mode, FailureMode::RefrigerantLeak);
  EXPECT_GT(diagnoses.front().severity, 0.5);
  EXPECT_FALSE(diagnoses.front().prognosis.empty());
}

TEST(FuzzyDiagnoserTest, OilDegradationSignatureFires) {
  const FuzzyDiagnoser diagnoser;
  const rules::BelievabilityTable beliefs;
  const auto nom = domain::navy_chiller_nominals();
  ProcessValues s = healthy_snapshot();
  s.set(Channel::OilTemp, nom.oil_temperature_c + 22.0);
  s.set(Channel::OilPressure, nom.oil_pressure_kpa - 100.0);

  const auto diagnoses = diagnoser.evaluate(s, beliefs);
  ASSERT_FALSE(diagnoses.empty());
  EXPECT_EQ(diagnoses.front().mode, FailureMode::OilDegradation);
  EXPECT_GT(diagnoses.front().severity, 0.55);
}

TEST(FuzzyDiagnoserTest, CondenserFoulingSignatureFires) {
  const FuzzyDiagnoser diagnoser;
  const rules::BelievabilityTable beliefs;
  const auto nom = domain::navy_chiller_nominals();
  ProcessValues s = healthy_snapshot();
  s.set(Channel::CondPressure, nom.cond_pressure_kpa + 300.0);
  s.set(Channel::CondApproach, 12.0);
  s.set(Channel::MotorCurrent, nom.motor_current_a * 1.15);

  const auto diagnoses = diagnoser.evaluate(s, beliefs);
  ASSERT_FALSE(diagnoses.empty());
  EXPECT_EQ(diagnoses.front().mode, FailureMode::CondenserFouling);
}

TEST(FuzzyDiagnoserTest, SeverityScalesWithDeviation) {
  const FuzzyDiagnoser diagnoser;
  const auto nom = domain::navy_chiller_nominals();
  ProcessValues mild = healthy_snapshot();
  mild.set(Channel::OilTemp, nom.oil_temperature_c + 11.0);
  ProcessValues severe = healthy_snapshot();
  severe.set(Channel::OilTemp, nom.oil_temperature_c + 24.0);
  severe.set(Channel::OilPressure, nom.oil_pressure_kpa - 110.0);

  EXPECT_LT(diagnoser.severity(FailureMode::OilDegradation, mild),
            diagnoser.severity(FailureMode::OilDegradation, severe));
}

TEST(FuzzyDiagnoserTest, CoversProcessModes) {
  const FuzzyDiagnoser diagnoser;
  const auto modes = diagnoser.covered_modes();
  EXPECT_GE(modes.size(), 5u);
  // Every covered mode is process-observable (not a pure vibration mode).
  for (const FailureMode m : modes) {
    EXPECT_NE(m, FailureMode::MotorImbalance);
    EXPECT_NE(m, FailureMode::GearMeshWear);
  }
}

TEST(FuzzyDiagnoserTest, MissingSensorMeansAbstain) {
  // §5.1: inputs may be fragmentary — an engine missing one of its inputs
  // abstains instead of crashing or guessing.
  const FuzzyDiagnoser diagnoser;
  const rules::BelievabilityTable beliefs;
  const auto nom = domain::navy_chiller_nominals();
  ProcessValues s = healthy_snapshot();
  s.set(Channel::OilTemp, nom.oil_temperature_c + 25.0);
  s.erase(Channel::OilPressure);  // oil-pressure sensor lost

  for (const auto& d : diagnoser.evaluate(s, beliefs)) {
    EXPECT_NE(d.mode, FailureMode::OilDegradation);
  }
}

}  // namespace
}  // namespace mpros::fuzzy
