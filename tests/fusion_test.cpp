// Knowledge-fusion tests. E1 (the paper's Dempster-Shafer worked example)
// and E2 (the prognostic fusion examples) live here, alongside property
// tests on the algebra.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mpros/common/rng.hpp"
#include "mpros/fusion/bayes_net.hpp"
#include "mpros/fusion/dempster_shafer.hpp"
#include "mpros/fusion/diagnostic_fusion.hpp"
#include "mpros/fusion/hazard.hpp"
#include "mpros/fusion/prognostic_fusion.hpp"

namespace mpros::fusion {
namespace {

using domain::FailureMode;
using domain::LogicalGroup;

// --- E1: the paper's §5.3 worked example ------------------------------------

TEST(DempsterShaferTest, PaperWorkedExampleE1) {
  // "given a belief of 40% that A will occur and another belief of 75% that
  // B or C will occur, it will [be] concluded that A is 14% likely, 'B or
  // C' is 64% likely and there is 22% of belief assigned to unknown
  // possibilities."
  const FrameOfDiscernment frame({"A", "B", "C"});
  const HypothesisSet a = frame.singleton(0);
  const HypothesisSet bc = frame.singleton(1) | frame.singleton(2);

  const MassFunction m1 = MassFunction::simple_support(frame, a, 0.40);
  const MassFunction m2 = MassFunction::simple_support(frame, bc, 0.75);
  const CombinationResult result = combine(m1, m2);

  EXPECT_NEAR(result.fused.mass(a), 0.142857, 1e-5);
  EXPECT_NEAR(result.fused.mass(bc), 0.642857, 1e-5);
  EXPECT_NEAR(result.fused.unknown(), 0.214286, 1e-5);
  EXPECT_NEAR(result.conflict, 0.30, 1e-12);

  // Rounded to the paper's two digits: 14%, 64%, 22%.
  EXPECT_EQ(std::round(result.fused.mass(a) * 100.0), 14.0);
  EXPECT_EQ(std::round(result.fused.mass(bc) * 100.0), 64.0);
  EXPECT_EQ(std::round(result.fused.unknown() * 100.0), 21.0);
}

TEST(DempsterShaferTest, MassesSumToOne) {
  const FrameOfDiscernment frame({"x", "y", "z"});
  Rng rng(21);
  MassFunction acc = MassFunction::vacuous(frame);
  for (int i = 0; i < 10; ++i) {
    const HypothesisSet focus = static_cast<HypothesisSet>(
        rng.integer(1, frame.theta()));
    acc = combine(acc, MassFunction::simple_support(frame, focus,
                                                    rng.uniform(0.0, 0.95)))
              .fused;
    double total = 0.0;
    for (const auto& [set, mass] : acc.focal_elements()) total += mass;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(DempsterShaferTest, CombinationIsCommutative) {
  const FrameOfDiscernment frame({"x", "y", "z"});
  const MassFunction m1 =
      MassFunction::simple_support(frame, frame.singleton(0), 0.6);
  const MassFunction m2 = MassFunction::simple_support(
      frame, frame.singleton(1) | frame.singleton(2), 0.8);
  const MassFunction ab = combine(m1, m2).fused;
  const MassFunction ba = combine(m2, m1).fused;
  for (const auto& [set, mass] : ab.focal_elements()) {
    EXPECT_NEAR(ba.mass(set), mass, 1e-12);
  }
}

TEST(DempsterShaferTest, VacuousIsIdentity) {
  const FrameOfDiscernment frame({"x", "y"});
  const MassFunction m =
      MassFunction::simple_support(frame, frame.singleton(0), 0.7);
  const CombinationResult r = combine(m, MassFunction::vacuous(frame));
  EXPECT_NEAR(r.conflict, 0.0, 1e-12);
  EXPECT_NEAR(r.fused.mass(frame.singleton(0)), 0.7, 1e-12);
}

TEST(DempsterShaferTest, ReinforcingEvidenceStrengthens) {
  const FrameOfDiscernment frame({"x", "y"});
  const MassFunction m =
      MassFunction::simple_support(frame, frame.singleton(0), 0.6);
  const MassFunction fused = combine(m, m).fused;
  EXPECT_GT(fused.belief(frame.singleton(0)), 0.6);
  EXPECT_NEAR(fused.belief(frame.singleton(0)), 1.0 - 0.4 * 0.4, 1e-12);
}

TEST(DempsterShaferTest, ConflictingCertaintiesFallBackToVacuous) {
  const FrameOfDiscernment frame({"x", "y"});
  const MassFunction m1 =
      MassFunction::simple_support(frame, frame.singleton(0), 1.0);
  const MassFunction m2 =
      MassFunction::simple_support(frame, frame.singleton(1), 1.0);
  const CombinationResult r = combine(m1, m2);
  EXPECT_NEAR(r.conflict, 1.0, 1e-12);
  EXPECT_NEAR(r.fused.unknown(), 1.0, 1e-12);
}

TEST(DempsterShaferTest, BeliefAndPlausibilityBracketMass) {
  const FrameOfDiscernment frame({"x", "y", "z"});
  const MassFunction m = combine(
      MassFunction::simple_support(frame, frame.singleton(0), 0.5),
      MassFunction::simple_support(
          frame, frame.singleton(0) | frame.singleton(1), 0.5)).fused;
  const HypothesisSet x = frame.singleton(0);
  EXPECT_LE(m.belief(x), m.plausibility(x));
  EXPECT_GE(m.plausibility(x), m.mass(x));
}

TEST(FrameTest, DescribeRendersSubsets) {
  const FrameOfDiscernment frame({"A", "B", "C"});
  EXPECT_EQ(frame.describe(frame.singleton(1)), "B");
  EXPECT_EQ(frame.describe(frame.singleton(0) | frame.singleton(2)), "A|C");
  EXPECT_EQ(frame.describe(frame.theta()), "Θ");
}

// --- Diagnostic fusion with logical groups (§5.3) ---------------------------

TEST(DiagnosticFusionTest, GroupsShareProbabilityIndependently) {
  DiagnosticFusion fusion;
  const ObjectId machine(42);

  // A bearing-group report must not touch the electrical group: "there can,
  // in fact, be several failures at one time".
  fusion.update(machine, FailureMode::MotorBearingWear, 0.8);
  fusion.update(machine, FailureMode::RotorBarDefect, 0.7);

  const GroupState bearing =
      fusion.state(machine, LogicalGroup::Bearing);
  const GroupState electrical =
      fusion.state(machine, LogicalGroup::Electrical);

  EXPECT_NEAR(bearing.modes[0].belief, 0.8, 1e-9);   // MotorBearingWear
  EXPECT_NEAR(electrical.modes[0].belief, 0.7, 1e-9);  // RotorBarDefect
  EXPECT_EQ(bearing.report_count, 1u);
  EXPECT_EQ(electrical.report_count, 1u);
}

TEST(DiagnosticFusionTest, ReinforcementWithinGroup) {
  DiagnosticFusion fusion;
  const ObjectId machine(1);
  fusion.update(machine, FailureMode::MotorBearingWear, 0.6);
  const GroupState after =
      fusion.update(machine, FailureMode::MotorBearingWear, 0.6);
  EXPECT_NEAR(after.modes[0].belief, 1.0 - 0.4 * 0.4, 1e-9);
  EXPECT_LT(after.unknown, 0.4);
}

TEST(DiagnosticFusionTest, ConflictWithinGroupSplitsBelief) {
  DiagnosticFusion fusion;
  const ObjectId machine(1);
  fusion.update(machine, FailureMode::MotorBearingWear, 0.7);
  const GroupState s =
      fusion.update(machine, FailureMode::CompressorBearingWear, 0.7);
  // Both suspect, neither dominant, and the combination recorded conflict.
  EXPECT_GT(s.last_conflict, 0.0);
  const double b0 = s.modes[0].belief;  // MotorBearingWear
  const double b1 = s.modes[1].belief;  // CompressorBearingWear
  EXPECT_NEAR(b0, b1, 1e-9);
  EXPECT_GT(b0, 0.2);
  EXPECT_LT(b0, 0.7);
}

TEST(DiagnosticFusionTest, UnknownMassTracked) {
  DiagnosticFusion fusion;
  const ObjectId machine(1);
  const GroupState before = fusion.state(machine, LogicalGroup::Process);
  EXPECT_NEAR(before.unknown, 1.0, 1e-12);
  const GroupState after =
      fusion.update(machine, FailureMode::RefrigerantLeak, 0.75);
  EXPECT_NEAR(after.unknown, 0.25, 1e-9);
}

TEST(DiagnosticFusionTest, DisjunctiveEvidenceSupported) {
  DiagnosticFusion fusion;
  const ObjectId machine(1);
  const FailureMode set[] = {FailureMode::MotorBearingWear,
                             FailureMode::OilDegradation};
  const GroupState s = fusion.update_set(machine, set, 0.8);
  // Mass on the pair: each singleton has zero belief but 0.8 plausibility.
  EXPECT_NEAR(s.modes[0].belief, 0.0, 1e-12);
  EXPECT_NEAR(s.modes[0].plausibility, 1.0, 1e-12);
  const auto& frame = fusion.frame(LogicalGroup::Bearing);
  (void)frame;
}

TEST(DiagnosticFusionTest, MachinesAreIndependent) {
  DiagnosticFusion fusion;
  fusion.update(ObjectId(1), FailureMode::GearMeshWear, 0.9);
  const GroupState other =
      fusion.state(ObjectId(2), LogicalGroup::GearTrain);
  EXPECT_NEAR(other.unknown, 1.0, 1e-12);
}

/// What DiagnosticFusion::for_each_mode(m) visits, in visit order.
struct Visited {
  FailureMode mode{};
  double belief = 0.0;
  double plausibility = 0.0;
  std::size_t reports = 0;
};

std::vector<Visited> visit(const DiagnosticFusion& fusion, ObjectId m) {
  std::vector<Visited> out;
  fusion.for_each_mode(m, [&](const ModeBelief& mb, std::size_t reports) {
    out.push_back({mb.mode, mb.belief, mb.plausibility, reports});
  });
  return out;
}

TEST(DiagnosticFusionTest, ResetForgetsMachine) {
  DiagnosticFusion fusion;
  fusion.update(ObjectId(1), FailureMode::GearMeshWear, 0.9);
  fusion.reset(ObjectId(1));
  EXPECT_TRUE(visit(fusion, ObjectId(1)).empty());
}

TEST(DiagnosticFusionTest, StatesCoverOnlyTheAskedMachine) {
  // Neighbouring machine ids sit next to m's cells in the (machine, group)
  // order; the walk over m must stop at m's run and visit exactly what
  // state() reports for each group m has, in group order.
  DiagnosticFusion fusion;
  const ObjectId m(41);
  for (const std::uint64_t id : {40u, 41u, 42u}) {
    const ObjectId machine(id);
    fusion.update(machine, FailureMode::MotorImbalance, 0.3 + 0.1 * (id - 40));
    fusion.update(machine, FailureMode::GearMeshWear, 0.6);
    fusion.update(machine, FailureMode::OilDegradation, 0.5);
  }
  fusion.update(ObjectId(40), FailureMode::StatorWindingFault, 0.7);
  fusion.update(ObjectId(42), FailureMode::RefrigerantLeak, 0.7);
  fusion.update(m, FailureMode::MotorImbalance, 0.45);  // a second Rotor report

  std::vector<Visited> want;
  for (const LogicalGroup g : {LogicalGroup::RotorDynamics,
                               LogicalGroup::Bearing, LogicalGroup::GearTrain}) {
    const GroupState ref = fusion.state(m, g);
    for (const ModeBelief& mb : ref.modes) {
      want.push_back({mb.mode, mb.belief, mb.plausibility, ref.report_count});
    }
  }
  const std::vector<Visited> got = visit(fusion, m);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].mode, want[i].mode);
    EXPECT_EQ(got[i].belief, want[i].belief);
    EXPECT_EQ(got[i].plausibility, want[i].plausibility);
    EXPECT_EQ(got[i].reports, want[i].reports);
  }
  EXPECT_EQ(got.front().reports, 2u);

  EXPECT_TRUE(visit(fusion, ObjectId(7)).empty());
  EXPECT_TRUE(visit(fusion, ObjectId(43)).empty());

  fusion.reset(m);
  EXPECT_TRUE(visit(fusion, m).empty());
  // Rotor, electrical, bearing and gear-train modes: 3 + 2 + 3 + 1.
  EXPECT_EQ(visit(fusion, ObjectId(40)).size(), 9u);
  // Rotor, bearing, gear-train and process modes: 3 + 3 + 1 + 3.
  EXPECT_EQ(visit(fusion, ObjectId(42)).size(), 10u);
}

TEST(DiagnosticFusionTest, OrderInvariance) {
  // §5.1: inputs may arrive time-disordered; Dempster combination is
  // commutative/associative so fused state must not depend on order.
  DiagnosticFusion f1, f2;
  const ObjectId m(9);
  f1.update(m, FailureMode::MotorBearingWear, 0.5);
  f1.update(m, FailureMode::OilDegradation, 0.6);
  f1.update(m, FailureMode::MotorBearingWear, 0.4);

  f2.update(m, FailureMode::MotorBearingWear, 0.4);
  f2.update(m, FailureMode::OilDegradation, 0.6);
  f2.update(m, FailureMode::MotorBearingWear, 0.5);

  const GroupState s1 = f1.state(m, LogicalGroup::Bearing);
  const GroupState s2 = f2.state(m, LogicalGroup::Bearing);
  for (std::size_t i = 0; i < s1.modes.size(); ++i) {
    EXPECT_NEAR(s1.modes[i].belief, s2.modes[i].belief, 1e-9);
  }
  EXPECT_NEAR(s1.unknown, s2.unknown, 1e-9);
}

// --- E2: prognostic fusion (§5.4) -------------------------------------------

PrognosticVector months(std::initializer_list<std::pair<double, double>> pts) {
  std::vector<PrognosticPoint> v;
  for (const auto& [mo, p] : pts) {
    v.push_back({SimTime::from_months(mo), p});
  }
  return PrognosticVector(std::move(v));
}

TEST(PrognosticFusionTest, PaperExampleWeakSecondReportIgnoredE2) {
  // "((3 months, .01) (4 months, .5) (5 months, .99)) ... combine ...
  // ((4.5 months, .12)) then we will ignore the second report."
  const PrognosticVector a = months({{3, 0.01}, {4, 0.5}, {5, 0.99}});
  const PrognosticVector weak = months({{4.5, 0.12}});
  const PrognosticVector fused = fuse_conservative(a, weak);

  // The fused curve equals A everywhere A is defined.
  for (const double mo : {3.0, 3.5, 4.0, 4.5, 5.0}) {
    EXPECT_NEAR(fused.probability_at(SimTime::from_months(mo)),
                a.probability_at(SimTime::from_months(mo)), 1e-9)
        << "at " << mo << " months";
  }
}

TEST(PrognosticFusionTest, PaperExampleStrongSecondReportDominatesE2) {
  // "If, however, the second report indicates a much higher likelihood of
  // failure ((4.5 months, .95)) then this report would dominate, and the
  // extrapolation ... would indicate an even earlier demise ... than the
  // original which would be some time after 5 months."
  const PrognosticVector a = months({{3, 0.01}, {4, 0.5}, {5, 0.99}});
  const PrognosticVector strong = months({{4.5, 0.95}});
  const PrognosticVector fused = fuse_conservative(a, strong);

  EXPECT_NEAR(fused.probability_at(SimTime::from_months(4.5)), 0.95, 1e-9);

  const auto original_99 = a.time_to_probability(0.99);
  const auto fused_99 = fused.time_to_probability(0.99);
  ASSERT_TRUE(original_99.has_value());
  ASSERT_TRUE(fused_99.has_value());
  EXPECT_LT(fused_99->months(), original_99->months());
  EXPECT_NEAR(original_99->months(), 5.0, 0.01);
}

TEST(PrognosticVectorTest, InterpolatesLinearly) {
  const PrognosticVector v = months({{2, 0.2}, {4, 0.6}});
  EXPECT_NEAR(v.probability_at(SimTime::from_months(3)), 0.4, 1e-9);
  EXPECT_NEAR(v.probability_at(SimTime::from_months(1)), 0.1, 1e-9);
  EXPECT_NEAR(v.probability_at(SimTime(0)), 0.0, 1e-12);
}

TEST(PrognosticVectorTest, ExtrapolatesAlongLastSegmentClamped) {
  const PrognosticVector v = months({{2, 0.4}, {4, 0.8}});
  EXPECT_NEAR(v.probability_at(SimTime::from_months(5)), 1.0, 1e-9);
  // Single point: flat beyond.
  const PrognosticVector single = months({{3, 0.3}});
  EXPECT_NEAR(single.probability_at(SimTime::from_months(10)), 0.3, 1e-9);
}

TEST(PrognosticVectorTest, EnforcesMonotoneProbabilities) {
  const PrognosticVector v = months({{1, 0.5}, {2, 0.3}, {3, 0.9}});
  EXPECT_NEAR(v.probability_at(SimTime::from_months(2)), 0.5, 1e-9);
  EXPECT_NEAR(v.probability_at(SimTime::from_months(3)), 0.9, 1e-9);
}

TEST(PrognosticVectorTest, SortsUnorderedInput) {
  const PrognosticVector v = months({{4, 0.8}, {1, 0.1}, {2, 0.4}});
  EXPECT_NEAR(v.probability_at(SimTime::from_months(2)), 0.4, 1e-9);
}

TEST(PrognosticVectorTest, TimeToProbabilityInverts) {
  const PrognosticVector v = months({{2, 0.2}, {6, 0.9}});
  const auto t = v.time_to_probability(0.55);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(t->months(), 4.0, 0.01);
  EXPECT_FALSE(months({{2, 0.2}}).time_to_probability(0.9).has_value());
}

TEST(PrognosticFusionTest, FusionIsCommutativeAndIdempotent) {
  const PrognosticVector a = months({{1, 0.1}, {3, 0.6}});
  const PrognosticVector b = months({{2, 0.5}, {4, 0.7}});
  const PrognosticVector ab = fuse_conservative(a, b);
  const PrognosticVector ba = fuse_conservative(b, a);
  for (double mo = 0.5; mo <= 5.0; mo += 0.5) {
    const SimTime t = SimTime::from_months(mo);
    EXPECT_NEAR(ab.probability_at(t), ba.probability_at(t), 1e-9);
  }
  // Every reported constraint is honoured conservatively: the fused curve
  // is at least as pessimistic at each curve's own reported points.
  for (const PrognosticVector* v : {&a, &b}) {
    for (const PrognosticPoint& p : v->points()) {
      EXPECT_GE(ab.probability_at(p.horizon), p.probability - 1e-12);
    }
  }
  // Fusing the result with an input again changes nothing.
  const PrognosticVector again = fuse_conservative(ab, a);
  for (double mo = 0.5; mo <= 5.0; mo += 0.5) {
    const SimTime t = SimTime::from_months(mo);
    EXPECT_NEAR(again.probability_at(t), ab.probability_at(t), 1e-9);
  }
}

TEST(PrognosticFusionTest, FoldOverManyCurves) {
  std::vector<PrognosticVector> curves;
  curves.push_back(months({{1, 0.1}}));
  curves.push_back(months({{2, 0.6}}));
  curves.push_back(months({{3, 0.3}}));
  const PrognosticVector fused = fuse_conservative(curves);
  EXPECT_NEAR(fused.probability_at(SimTime::from_months(2)), 0.6, 1e-9);
}

// --- Bayesian-network extension (E12 substrate) ------------------------------

TEST(BayesNetTest, SprinklerStyleInference) {
  BayesNet net;
  const auto rain = net.add_node("rain", {"yes", "no"}, {0.2, 0.8});
  const auto wet = net.add_node(
      "wet", {"yes", "no"}, {rain},
      {0.9, 0.1,    // rain=yes
       0.15, 0.85}  // rain=no
  );
  const auto posterior = net.posterior(rain, {{wet, 0}});
  // P(rain|wet) = 0.2*0.9 / (0.2*0.9 + 0.8*0.15) = 0.6.
  EXPECT_NEAR(posterior[0], 0.6, 1e-9);
}

TEST(BayesNetTest, NoEvidenceReturnsPrior) {
  BayesNet net;
  const auto n = net.add_node("n", {"a", "b", "c"}, {0.5, 0.3, 0.2});
  const auto p = net.posterior(n, {});
  EXPECT_NEAR(p[0], 0.5, 1e-12);
  EXPECT_NEAR(p[2], 0.2, 1e-12);
}

TEST(GroupBayesFusionTest, ReportsShiftPosterior) {
  GroupBayesFusion fusion(LogicalGroup::Bearing);
  const ObjectId machine(5);
  const auto prior = fusion.posterior(machine);
  EXPECT_NEAR(prior.back(), 0.90, 1e-9);  // P(none)

  fusion.add_report(machine, {FailureMode::MotorBearingWear, 0.9});
  fusion.add_report(machine, {FailureMode::MotorBearingWear, 0.9});
  const double p = fusion.mode_probability(machine,
                                           FailureMode::MotorBearingWear);
  EXPECT_GT(p, 0.5);
  EXPECT_LT(fusion.posterior(machine).back(), 0.5);
}

TEST(GroupBayesFusionTest, ConflictingReportsStayUncertain) {
  GroupBayesFusion fusion(LogicalGroup::Bearing);
  const ObjectId machine(5);
  fusion.add_report(machine, {FailureMode::MotorBearingWear, 0.9});
  fusion.add_report(machine, {FailureMode::CompressorBearingWear, 0.9});
  const double a =
      fusion.mode_probability(machine, FailureMode::MotorBearingWear);
  const double b =
      fusion.mode_probability(machine, FailureMode::CompressorBearingWear);
  EXPECT_NEAR(a, b, 1e-9);
}

// --- Weibull hazard extension (§10.1) ----------------------------------------

TEST(WeibullTest, CdfAndHazardShapes) {
  const WeibullModel wearout(3.0, 100.0);  // increasing hazard
  EXPECT_NEAR(wearout.cdf(SimTime(0)), 0.0, 1e-12);
  EXPECT_NEAR(wearout.cdf(SimTime::from_days(100.0)), 1.0 - std::exp(-1.0),
              1e-9);
  EXPECT_GT(wearout.hazard_per_day(SimTime::from_days(90.0)),
            wearout.hazard_per_day(SimTime::from_days(10.0)));

  const WeibullModel infant(0.6, 100.0);  // decreasing hazard
  EXPECT_LT(infant.hazard_per_day(SimTime::from_days(90.0)),
            infant.hazard_per_day(SimTime::from_days(10.0)));
}

TEST(WeibullTest, ConditionalCdfAgesTheComponent) {
  const WeibullModel m(2.5, 200.0);
  const double fresh = m.cdf(SimTime::from_days(50.0));
  const double aged =
      m.conditional_cdf(SimTime::from_days(150.0), SimTime::from_days(50.0));
  EXPECT_GT(aged, fresh);  // wear-out: old units fail sooner
}

TEST(WeibullTest, FitRecoversParameters) {
  Rng rng(31);
  const double true_shape = 2.0, true_scale = 120.0;
  std::vector<LifeRecord> records;
  for (int i = 0; i < 400; ++i) {
    // Inverse-CDF sampling.
    const double u = rng.uniform(1e-6, 1.0 - 1e-6);
    const double days =
        true_scale * std::pow(-std::log(1.0 - u), 1.0 / true_shape);
    records.push_back({SimTime::from_days(days), true});
  }
  const auto fit = WeibullModel::fit(records);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->shape(), true_shape, 0.2);
  EXPECT_NEAR(fit->scale_days(), true_scale, 10.0);
}

TEST(WeibullTest, FitHandlesCensoring) {
  Rng rng(32);
  std::vector<LifeRecord> records;
  for (int i = 0; i < 300; ++i) {
    const double u = rng.uniform(1e-6, 1.0 - 1e-6);
    const double days = 120.0 * std::pow(-std::log(1.0 - u), 1.0 / 2.0);
    // Right-censor at 150 days (units removed from service).
    if (days > 150.0) {
      records.push_back({SimTime::from_days(150.0), false});
    } else {
      records.push_back({SimTime::from_days(days), true});
    }
  }
  const auto fit = WeibullModel::fit(records);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->shape(), 2.0, 0.35);
  EXPECT_NEAR(fit->scale_days(), 120.0, 18.0);
}

TEST(WeibullTest, FitRejectsDegenerateData) {
  EXPECT_FALSE(WeibullModel::fit({}).has_value());
  const std::vector<LifeRecord> censored_only = {
      {SimTime::from_days(10.0), false}, {SimTime::from_days(20.0), false}};
  EXPECT_FALSE(WeibullModel::fit(censored_only).has_value());
}

TEST(HazardRefinementTest, BlendsTowardPopulationModel) {
  const WeibullModel model(3.0, 90.0);
  const PrognosticVector optimistic = months({{6, 0.05}});
  const PrognosticVector refined = refine_with_hazard(
      optimistic, model, /*component_age=*/SimTime::from_days(80.0), 0.5);
  // An aged wear-out component must look worse than the optimistic vector.
  const SimTime probe = SimTime::from_months(2.0);
  EXPECT_GT(refined.probability_at(probe),
            optimistic.probability_at(probe));
}

TEST(HazardRefinementTest, ZeroWeightIsIdentityOnKnots) {
  const WeibullModel model(2.0, 100.0);
  const PrognosticVector v = months({{1, 0.2}, {3, 0.7}});
  const PrognosticVector refined =
      refine_with_hazard(v, model, SimTime::from_days(10.0), 0.0);
  for (const double mo : {1.0, 3.0}) {
    const SimTime t = SimTime::from_months(mo);
    EXPECT_NEAR(refined.probability_at(t), v.probability_at(t), 1e-9);
  }
}

}  // namespace
}  // namespace mpros::fusion
