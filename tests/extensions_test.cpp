// Tests for the Phase-2 / §10.1 extensions: wire message envelopes, the
// PDME-resident fleet analyzer, the adaptive retest loop, spatial
// reasoning, health rollup, and temporal trend projection.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "mpros/common/rng.hpp"
#include "mpros/fusion/trend.hpp"
#include "mpros/mpros/mpros.hpp"
#include "mpros/pdme/health.hpp"
#include "mpros/pdme/resident.hpp"
#include "mpros/pdme/spatial.hpp"
#include "submit_one.hpp"

namespace mpros {
namespace {

using domain::FailureMode;

// --- Message envelopes -------------------------------------------------------

TEST(MessagesTest, SensorDataRoundTrip) {
  net::SensorDataMessage m;
  m.dc = DcId(3);
  m.machine = ObjectId(12);
  m.timestamp = SimTime::from_seconds(55.5);
  m.values = {{"process.cond_pressure_kpa", 1017.0},
              {"process.load", 0.8}};
  const auto bytes = net::wrap(m);
  EXPECT_EQ(net::try_peek_type(bytes), net::MessageType::SensorData);
  const auto back = net::try_unwrap_sensor_data(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, m);
}

TEST(MessagesTest, TestCommandRoundTrip) {
  net::TestCommandMessage m;
  m.target = DcId(7);
  m.command = net::TestCommandMessage::Command::VibrationTest;
  m.reason = "closer look";
  const auto bytes = net::wrap(m);
  EXPECT_EQ(net::try_peek_type(bytes), net::MessageType::TestCommand);
  const auto back = net::try_unwrap_test_command(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, m);
}

TEST(MessagesTest, ReportEnvelopeRoundTrip) {
  net::FailureReport r;
  r.dc = DcId(1);
  r.knowledge_source = KnowledgeSourceId(2);
  r.sensed_object = ObjectId(3);
  r.machine_condition = domain::condition_id(FailureMode::GearMeshWear);
  r.severity = 0.4;
  r.belief = 0.6;
  r.timestamp = SimTime::from_seconds(9.0);
  // A lone report is an unsequenced batch of one.
  const auto bytes = net::wrap_batch_envelope(r.dc, 0, {&r, 1});
  EXPECT_EQ(net::try_peek_type(bytes),
            net::MessageType::ReportBatchEnvelopeMsg);
  std::vector<net::ReportEnvelope> arena;
  const auto view = net::try_unwrap_reports_into(bytes, arena);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->sequence, 0u);
  ASSERT_EQ(view->count, 1u);
  EXPECT_EQ(arena[0].report, r);
}

// --- Sensor-data intake + fleet-comparative analyzer (§5.7) ------------------

class ResidentTest : public ::testing::Test {
 protected:
  ResidentTest()
      : ship_(oosm::build_ship(model_, "Test", 2, 2)), pdme_(model_) {}

  void publish(std::size_t plant, const std::string& key, double value) {
    net::SensorDataMessage m;
    m.dc = DcId(plant + 1);
    m.machine = ship_.plants[plant].chiller;
    m.timestamp = SimTime::from_hours(1.0);
    m.values = {{key, value}};
    pdme_.accept(m);
  }

  oosm::ObjectModel model_;
  oosm::ShipModel ship_;
  pdme::PdmeExecutive pdme_;
};

TEST_F(ResidentTest, SensorDataLandsOnOosmObject) {
  publish(0, "process.cond_pressure_kpa", 1020.0);
  const auto v =
      model_.property(ship_.plants[0].chiller, "process.cond_pressure_kpa");
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(v->numeric(), 1020.0);
  EXPECT_EQ(pdme_.snapshot().sensor_batches, 1u);
  // Raw telemetry is not a report.
  EXPECT_EQ(pdme_.snapshot().reports_accepted, 0u);
}

TEST_F(ResidentTest, FleetOutlierFlagged) {
  // Three sisters at nominal head pressure; the fourth runs 300 kPa high.
  for (std::size_t p = 0; p < 3; ++p) {
    publish(p, "process.cond_pressure_kpa", 1015.0 + 4.0 * p);
  }
  publish(3, "process.cond_pressure_kpa", 1330.0);

  pdme::FleetComparativeAnalyzer analyzer(pdme_);
  const auto issued = analyzer.scan(SimTime::from_hours(1.0));
  ASSERT_EQ(issued.size(), 1u);
  EXPECT_EQ(issued[0].sensed_object, ship_.plants[3].chiller);
  EXPECT_EQ(issued[0].machine_condition,
            domain::condition_id(FailureMode::CondenserFouling));
  EXPECT_EQ(issued[0].knowledge_source, pdme::kPdmeModelBased);

  // The conclusion was fused like any other report.
  const auto list = pdme_.prioritized_list(ship_.plants[3].chiller);
  ASSERT_FALSE(list.empty());
  EXPECT_EQ(list.front().mode, FailureMode::CondenserFouling);
}

TEST_F(ResidentTest, UniformFleetStaysQuiet) {
  for (std::size_t p = 0; p < 4; ++p) {
    publish(p, "process.cond_pressure_kpa", 1010.0 + 6.0 * p);
    publish(p, "process.evap_pressure_kpa", 353.0 + 2.0 * p);
  }
  pdme::FleetComparativeAnalyzer analyzer(pdme_);
  EXPECT_TRUE(analyzer.scan(SimTime::from_hours(1.0)).empty());
}

TEST_F(ResidentTest, LowEvapOutlierIsRefrigerantCall) {
  for (std::size_t p = 0; p < 3; ++p) {
    publish(p, "process.evap_pressure_kpa", 354.0 + 2.0 * p);
  }
  publish(3, "process.evap_pressure_kpa", 270.0);
  pdme::FleetComparativeAnalyzer analyzer(pdme_);
  const auto issued = analyzer.scan(SimTime::from_hours(1.0));
  ASSERT_EQ(issued.size(), 1u);
  EXPECT_EQ(issued[0].machine_condition,
            domain::condition_id(FailureMode::RefrigerantLeak));
}

TEST_F(ResidentTest, TooFewSistersNoComparison) {
  publish(0, "process.cond_pressure_kpa", 1015.0);
  publish(1, "process.cond_pressure_kpa", 1400.0);
  pdme::FleetComparativeAnalyzer analyzer(pdme_);
  EXPECT_TRUE(analyzer.scan(SimTime::from_hours(1.0)).empty());
}

// --- Adaptive retest (the §6.3 "closer look") --------------------------------

TEST(AutoRetestTest, SevereUncorroboratedReportTriggersCommand) {
  oosm::ObjectModel model;
  const auto ship = oosm::build_ship(model, "Test", 1, 1);
  pdme::PdmeConfig cfg;
  cfg.auto_retest = true;
  pdme::PdmeExecutive pdme(model, cfg);
  net::SimNetwork network;
  pdme.attach_to_network(network);

  std::vector<net::TestCommandMessage> commands;
  network.register_endpoint("dc-1", [&](const net::Message& m) {
    if (const auto cmd = net::try_unwrap_test_command(m.payload)) {
      commands.push_back(*cmd);
    }
  });

  net::FailureReport r;
  r.dc = DcId(1);
  r.knowledge_source = KnowledgeSourceId(1);
  r.sensed_object = ship.plants[0].motor;
  r.machine_condition = domain::condition_id(FailureMode::MotorImbalance);
  r.severity = 0.85;  // severe...
  r.belief = 0.6;     // ...but group still carries real unknown mass
  r.timestamp = SimTime::from_seconds(100.0);
  submit_one(pdme, r);
  network.flush();

  ASSERT_EQ(commands.size(), 1u);
  EXPECT_EQ(commands[0].target, DcId(1));
  EXPECT_EQ(pdme.snapshot().retests_commanded, 1u);

  // Backoff: an immediate repeat does not re-command.
  r.timestamp = SimTime::from_seconds(200.0);
  submit_one(pdme, r);
  network.flush();
  EXPECT_EQ(commands.size(), 1u);
}

TEST(AutoRetestTest, CorroboratedConclusionNotRetested) {
  oosm::ObjectModel model;
  const auto ship = oosm::build_ship(model, "Test", 1, 1);
  pdme::PdmeConfig cfg;
  cfg.auto_retest = true;
  pdme::PdmeExecutive pdme(model, cfg);
  net::SimNetwork network;
  pdme.attach_to_network(network);
  network.register_endpoint("dc-1", [](const net::Message&) {});

  // First, a mild report corroborates the mode without tripping the
  // severity threshold...
  net::FailureReport r;
  r.dc = DcId(1);
  r.knowledge_source = KnowledgeSourceId(1);
  r.sensed_object = ship.plants[0].motor;
  r.machine_condition = domain::condition_id(FailureMode::MotorImbalance);
  r.severity = 0.40;
  r.belief = 0.95;
  r.timestamp = SimTime::from_seconds(100.0);
  submit_one(pdme, r);
  // ...then the severe confirmation arrives into an already-collapsed
  // group: no closer look needed.
  r.knowledge_source = KnowledgeSourceId(3);
  r.severity = 0.85;
  r.timestamp = SimTime::from_seconds(200.0);
  submit_one(pdme, r);
  EXPECT_EQ(pdme.snapshot().retests_commanded, 0u);
}

TEST(AutoRetestTest, ClosedLoopThroughShipSystem) {
  ShipSystemConfig cfg;
  cfg.plant_count = 1;
  cfg.pdme.auto_retest = true;
  cfg.dc_template.vibration_period = SimTime::from_seconds(1200);
  ShipSystem ship(cfg);
  ship.chiller(0).faults().schedule({FailureMode::MotorImbalance, SimTime(0),
                                     SimTime(0), 0.95,
                                     plant::GrowthProfile::Step});
  ship.run_until(SimTime::from_hours(1.5));

  // The first severe report commands an extra test, so the DC runs more
  // vibration tests than its periodic schedule alone (4 in 1.5h at 1200s).
  EXPECT_GT(ship.pdme().snapshot().retests_commanded, 0u);
  EXPECT_GT(ship.concentrator(0).stats().vibration_tests, 4u);
}

// --- DC command handling ------------------------------------------------------

TEST(DcCommandTest, MisroutedCommandIgnored) {
  plant::ChillerSimulator chiller;
  dc::DcConfig cfg;
  cfg.id = DcId(2);
  dc::DataConcentrator dc(cfg,
                          dc::MachineRefs{ObjectId(1), ObjectId(2),
                                          ObjectId(3), ObjectId(4)},
                          chiller);
  net::TestCommandMessage cmd;
  cmd.target = DcId(9);  // someone else's DC
  dc.handle_command(cmd);
  dc.advance_to(SimTime::from_seconds(30));
  EXPECT_EQ(dc.stats().vibration_tests, 0u);

  cmd.target = DcId(2);
  cmd.reason = "unit test";
  dc.handle_command(cmd);
  dc.advance_to(SimTime::from_seconds(60));
  EXPECT_EQ(dc.stats().vibration_tests, 1u);
}

TEST(DcSensorTest, PublishesEveryNthScan) {
  plant::ChillerSimulator chiller;
  dc::DcConfig cfg;
  cfg.process_period = SimTime::from_seconds(60);
  cfg.sensor_publish_every = 5;
  dc::DataConcentrator dc(cfg,
                          dc::MachineRefs{ObjectId(1), ObjectId(2),
                                          ObjectId(3), ObjectId(4)},
                          chiller);
  dc.advance_to(SimTime::from_hours(1.0));  // 60 scans
  const auto batches = dc.drain_sensor_data();
  EXPECT_EQ(batches.size(), 12u);
  ASSERT_FALSE(batches.empty());
  EXPECT_EQ(batches[0].machine, ObjectId(1));
  EXPECT_EQ(batches[0].values.size(), 11u);
  // Drained: second call is empty.
  EXPECT_TRUE(dc.drain_sensor_data().empty());
}

// --- Spatial reasoning (§10.1) -----------------------------------------------

class SpatialTest : public ::testing::Test {
 protected:
  SpatialTest()
      : ship_(oosm::build_ship(model_, "Test", 1, 1)), pdme_(model_) {}

  void report(ObjectId machine, FailureMode mode, double severity,
              double belief, double t = 100.0) {
    net::FailureReport r;
    r.dc = DcId(1);
    r.knowledge_source = KnowledgeSourceId(1);
    r.sensed_object = machine;
    r.machine_condition = domain::condition_id(mode);
    r.severity = severity;
    r.belief = belief;
    r.timestamp = SimTime::from_seconds(t);
    submit_one(pdme_, r);
  }

  oosm::ObjectModel model_;
  oosm::ShipModel ship_;
  pdme::PdmeExecutive pdme_;
};

TEST_F(SpatialTest, WeakNeighbourDiagnosisDiscounted) {
  const auto& plant = ship_.plants[0];
  // Motor shaking wildly (strong, corroborated)...
  report(plant.motor, FailureMode::MotorImbalance, 0.9, 0.9, 100);
  report(plant.motor, FailureMode::MotorImbalance, 0.9, 0.9, 200);
  // ...and the proximate gearbox shows a weak imbalance-type symptom.
  report(plant.gearbox, FailureMode::ShaftMisalignment, 0.4, 0.3, 150);

  const pdme::SpatialReasoner reasoner;
  const auto refined = reasoner.refine(pdme_);

  bool motor_kept = false, gearbox_discounted = false;
  for (const auto& item : refined) {
    if (item.item.machine == plant.motor) {
      EXPECT_FALSE(item.discounted);
      motor_kept = true;
    }
    if (item.item.machine == plant.gearbox) {
      EXPECT_TRUE(item.discounted);
      EXPECT_EQ(item.attributed_to, plant.motor);
      gearbox_discounted = true;
    }
  }
  EXPECT_TRUE(motor_kept);
  EXPECT_TRUE(gearbox_discounted);
  // The culprit outranks the sympathetic vibration after discounting.
  EXPECT_EQ(refined.front().item.machine, plant.motor);
}

TEST_F(SpatialTest, StrongDiagnosisNotDiscounted) {
  const auto& plant = ship_.plants[0];
  report(plant.motor, FailureMode::MotorImbalance, 0.9, 0.9, 100);
  report(plant.motor, FailureMode::MotorImbalance, 0.9, 0.9, 200);
  // Gearbox conclusion is itself strong: keep it.
  report(plant.gearbox, FailureMode::ShaftMisalignment, 0.8, 0.9, 150);
  report(plant.gearbox, FailureMode::ShaftMisalignment, 0.8, 0.9, 250);

  const pdme::SpatialReasoner reasoner;
  for (const auto& item : reasoner.refine(pdme_)) {
    EXPECT_FALSE(item.discounted);
  }
}

TEST_F(SpatialTest, NonTransmissibleModesUntouched) {
  const auto& plant = ship_.plants[0];
  report(plant.motor, FailureMode::MotorImbalance, 0.9, 0.9, 100);
  report(plant.motor, FailureMode::MotorImbalance, 0.9, 0.9, 200);
  // Bearing envelope tones do not travel like raw imbalance shake.
  report(plant.gearbox, FailureMode::GearMeshWear, 0.4, 0.3, 150);

  const pdme::SpatialReasoner reasoner;
  for (const auto& item : reasoner.refine(pdme_)) {
    if (item.item.machine == plant.gearbox) {
      EXPECT_FALSE(item.discounted);
    }
  }
}

TEST_F(SpatialTest, FlowSuspicionPropagatesDownstream) {
  const auto& plant = ship_.plants[0];
  // Confirmed oil degradation at the compressor.
  report(plant.compressor, FailureMode::OilDegradation, 0.8, 0.9, 100);
  report(plant.compressor, FailureMode::OilDegradation, 0.8, 0.9, 200);

  const pdme::SpatialReasoner reasoner;
  const auto suspicions = reasoner.flow_suspicions(pdme_);
  ASSERT_FALSE(suspicions.empty());
  for (const auto& s : suspicions) {
    EXPECT_EQ(s.source, plant.compressor);
    EXPECT_EQ(s.source_mode, FailureMode::OilDegradation);
    EXPECT_GT(s.suspicion, 0.0);
  }
  // The refrigerant loop reaches condenser and evaporator downstream.
  EXPECT_GE(suspicions.size(), 2u);
}

TEST_F(SpatialTest, WeakFaultGeneratesNoFlowSuspicion) {
  report(ship_.plants[0].compressor, FailureMode::OilDegradation, 0.4, 0.4);
  const pdme::SpatialReasoner reasoner;
  EXPECT_TRUE(reasoner.flow_suspicions(pdme_).empty());
}

// --- Health rollup (§10.1) ----------------------------------------------------

// Two plants so rollup dilution across siblings is observable.
class HealthTest : public ::testing::Test {
 protected:
  HealthTest()
      : ship_(oosm::build_ship(model_, "Test", 1, 2)), pdme_(model_) {}

  void report(ObjectId machine, FailureMode mode, double severity,
              double belief, double t = 100.0) {
    net::FailureReport r;
    r.dc = DcId(1);
    r.knowledge_source = KnowledgeSourceId(1);
    r.sensed_object = machine;
    r.machine_condition = domain::condition_id(mode);
    r.severity = severity;
    r.belief = belief;
    r.timestamp = SimTime::from_seconds(t);
    submit_one(pdme_, r);
  }

  oosm::ObjectModel model_;
  oosm::ShipModel ship_;
  pdme::PdmeExecutive pdme_;
};

TEST_F(HealthTest, HealthyShipScoresOne) {
  const pdme::HealthRollup rollup;
  EXPECT_DOUBLE_EQ(rollup.health_of(pdme_, ship_.ship), 1.0);
}

TEST_F(HealthTest, PartFailureDegradesAncestors) {
  const auto& plant = ship_.plants[0];
  report(plant.motor, FailureMode::MotorImbalance, 0.9, 0.9, 100);
  report(plant.motor, FailureMode::MotorImbalance, 0.9, 0.9, 200);

  const pdme::HealthRollup rollup;
  const auto health = rollup.compute(pdme_);
  const double motor_h = health.at(plant.motor).rolled;
  const double chiller_h = health.at(plant.chiller).rolled;
  const double ship_h = health.at(ship_.ship).rolled;

  EXPECT_LT(motor_h, 0.3);       // badly degraded part
  EXPECT_LT(chiller_h, 1.0);     // parent suffers...
  EXPECT_GT(chiller_h, motor_h); // ...but less than the part itself
  EXPECT_LT(ship_h, 1.0);        // the ship notices...
  EXPECT_GT(ship_h, chiller_h);  // ...dampened by the healthy sister plant
}

TEST_F(HealthTest, OwnVsRolledDistinguished) {
  const auto& plant = ship_.plants[0];
  report(plant.motor, FailureMode::MotorImbalance, 0.9, 0.9, 100);
  const pdme::HealthRollup rollup;
  const auto health = rollup.compute(pdme_);
  // The chiller has no conclusions of its own, only a sick child.
  EXPECT_DOUBLE_EQ(health.at(plant.chiller).own, 1.0);
  EXPECT_LT(health.at(plant.chiller).rolled, 1.0);
}

TEST_F(HealthTest, RenderTreeMentionsWorstComponent) {
  const auto& plant = ship_.plants[0];
  report(plant.motor, FailureMode::MotorImbalance, 0.9, 0.9, 100);
  const pdme::HealthRollup rollup;
  const std::string tree = rollup.render_tree(pdme_, ship_.ship);
  EXPECT_NE(tree.find("A/C Compressor Motor 1"), std::string::npos);
  EXPECT_NE(tree.find("health"), std::string::npos);
}

// --- Trend projection (§10.1 temporal reasoning) -------------------------------

TEST(TrendTest, FitsLinearDegradation) {
  fusion::TrendProjector trend;
  for (int day = 0; day <= 10; ++day) {
    trend.observe(SimTime::from_days(day), 0.1 + 0.05 * day);
  }
  const auto fit = trend.fit();
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->slope_per_day, 0.05, 1e-9);
  EXPECT_GT(fit->r_squared, 0.999);
}

TEST(TrendTest, ProjectsTimeToFailure) {
  fusion::TrendProjector trend;
  for (int day = 0; day <= 10; ++day) {
    trend.observe(SimTime::from_days(day), 0.1 + 0.05 * day);
  }
  // severity(t) = 0.1 + 0.05 t reaches 1.0 at t = 18; from now (day 10)
  // that's 8 days out.
  const auto ttf = trend.time_to_failure(SimTime::from_days(10));
  ASSERT_TRUE(ttf.has_value());
  EXPECT_NEAR(ttf->days(), 8.0, 0.1);

  const auto prognosis = trend.project(SimTime::from_days(10));
  EXPECT_NEAR(prognosis.probability_at(SimTime::from_days(8.0)), 0.5, 0.01);
}

TEST(TrendTest, FlatOrImprovingTrendsDoNotProject) {
  fusion::TrendProjector trend;
  for (int day = 0; day <= 10; ++day) {
    trend.observe(SimTime::from_days(day), 0.5);
  }
  EXPECT_FALSE(trend.time_to_failure(SimTime::from_days(10)).has_value());

  fusion::TrendProjector improving;
  for (int day = 0; day <= 10; ++day) {
    improving.observe(SimTime::from_days(day), 0.5 - 0.02 * day);
  }
  EXPECT_FALSE(improving.time_to_failure(SimTime::from_days(10)).has_value());
}

TEST(TrendTest, OutOfOrderSamplesHandled) {
  fusion::TrendProjector a, b;
  const double sev[] = {0.1, 0.2, 0.3, 0.4};
  for (int i = 0; i < 4; ++i) a.observe(SimTime::from_days(i), sev[i]);
  for (int i = 3; i >= 0; --i) b.observe(SimTime::from_days(i), sev[i]);
  ASSERT_TRUE(a.fit().has_value());
  ASSERT_TRUE(b.fit().has_value());
  EXPECT_NEAR(a.fit()->slope_per_day, b.fit()->slope_per_day, 1e-12);
}

TEST(TrendTest, UnderSampledTrackAbstains) {
  fusion::TrendProjector trend;
  trend.observe(SimTime::from_days(0), 0.2);
  trend.observe(SimTime::from_days(1), 0.4);
  EXPECT_FALSE(trend.fit().has_value());  // min_points = 3
}

TEST(TrendTest, SlidingWindowForgetsAncientHistory) {
  fusion::TrendConfig cfg;
  cfg.max_points = 8;
  fusion::TrendProjector trend(cfg);
  // Long flat prefix, then a sharp recent ramp: the window must see the
  // ramp, not the average of both regimes.
  for (int day = 0; day < 50; ++day) {
    trend.observe(SimTime::from_days(day), 0.1);
  }
  for (int day = 50; day < 58; ++day) {
    trend.observe(SimTime::from_days(day), 0.1 + 0.1 * (day - 50));
  }
  EXPECT_EQ(trend.history_size(), 8u);
  const auto fit = trend.fit();
  ASSERT_TRUE(fit.has_value());
  EXPECT_GT(fit->slope_per_day, 0.05);
}

TEST(TrendTest, FitMatchesTimeOrderedTwoPass) {
  // fit() walks the circular window in place; it must give exactly the bits
  // of the textbook two-pass fit over a time-ordered copy of the window.
  fusion::TrendConfig cfg;
  cfg.max_points = 16;
  fusion::TrendProjector trend(cfg);
  std::vector<std::pair<SimTime, double>> window;  // time-ordered reference
  const auto observe = [&](SimTime t, double severity) {
    trend.observe(t, severity);
    const auto pos = std::upper_bound(
        window.begin(), window.end(), t,
        [](SimTime v, const auto& s) { return v < s.first; });
    window.insert(pos, {t, severity});
    if (window.size() > cfg.max_points) window.erase(window.begin());
  };
  const auto reference_fit = [&] {
    const double n = static_cast<double>(window.size());
    double sum_t = 0.0, sum_s = 0.0;
    for (const auto& [t, s] : window) {
      sum_t += t.days();
      sum_s += s;
    }
    const double mean_t = sum_t / n;
    const double mean_s = sum_s / n;
    double sxx = 0.0, sxy = 0.0, syy = 0.0;
    for (const auto& [t, s] : window) {
      const double dt = t.days() - mean_t;
      const double ds = s - mean_s;
      sxx += dt * dt;
      sxy += dt * ds;
      syy += ds * ds;
    }
    fusion::TrendFit f;
    f.slope_per_day = sxy / sxx;
    f.intercept = mean_s - f.slope_per_day * mean_t;
    f.r_squared = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
    return f;
  };
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto expect_matches = [&](SimTime now) {
    const auto got = trend.fit();
    ASSERT_TRUE(got.has_value());
    const fusion::TrendFit want = reference_fit();
    EXPECT_EQ(bits(got->slope_per_day), bits(want.slope_per_day));
    EXPECT_EQ(bits(got->intercept), bits(want.intercept));
    EXPECT_EQ(bits(got->r_squared), bits(want.r_squared));

    ASSERT_GE(want.slope_per_day, cfg.min_slope_per_day);
    ASSERT_GE(want.r_squared, cfg.min_r_squared);
    const double days_to_failure =
        (cfg.failure_severity -
         (want.intercept + want.slope_per_day * now.days())) /
        want.slope_per_day;
    const auto ttf = trend.time_to_failure(now);
    ASSERT_TRUE(ttf.has_value());
    EXPECT_EQ(ttf->micros(),
              days_to_failure <= 0.0
                  ? 0
                  : SimTime::from_days(days_to_failure).micros());
  };

  // A noisy ramp with sub-second timestamps, so days() rounds.
  Rng rng(0x7E4D);
  const auto severity_at = [&](double day) {
    return std::clamp(0.05 + 0.3 * day + rng.normal(0.0, 0.01), 0.0, 1.0);
  };
  SimTime t;
  for (int i = 0; i < 37; ++i) {  // 37 > 16 in order: the window has wrapped
    t += SimTime(4'321'987'654 + 1'000'003 * i);
    observe(t, severity_at(t.days()));
  }
  expect_matches(t);

  // An out-of-order arrival lands mid-window (the projector linearizes).
  const SimTime late = t - SimTime::from_hours(6.0) + SimTime(17);
  observe(late, severity_at(late.days()));
  expect_matches(t);

  // In-order arrivals wrap it again.
  for (int i = 0; i < 5; ++i) {
    t += SimTime(3'999'999'999 + 7 * i);
    observe(t, severity_at(t.days()));
  }
  expect_matches(t);
}

}  // namespace
}  // namespace mpros
