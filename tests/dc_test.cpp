// Data Concentrator tests: scheduler, analyzer orchestration, DC database,
// report emission.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "mpros/common/rng.hpp"
#include "mpros/dc/data_concentrator.hpp"
#include "mpros/dc/scheduler.hpp"
#include "mpros/dc/supervisor.hpp"
#include "mpros/rules/features.hpp"
#include "mpros/telemetry/metrics.hpp"

namespace mpros::dc {
namespace {

using domain::Channel;
using domain::FailureMode;

/// Rows of the DC's `diagnostics` table that name `condition`.
std::size_t diagnostics_naming(const db::Database& db, std::int64_t condition) {
  const auto& rows = db.table("diagnostics").rows();
  return static_cast<std::size_t>(
      std::count_if(rows.begin(), rows.end(), [&](const auto& entry) {
        return entry.second[4].as_integer() == condition;
      }));
}

TEST(EventSchedulerTest, PeriodicTasksFireInOrder) {
  EventScheduler sched;
  std::vector<std::pair<std::string, double>> log;
  sched.add_periodic("fast", SimTime::from_seconds(10), SimTime::from_seconds(10),
                     [&](SimTime now) { log.push_back({"fast", now.seconds()}); });
  sched.add_periodic("slow", SimTime::from_seconds(25), SimTime::from_seconds(25),
                     [&](SimTime now) { log.push_back({"slow", now.seconds()}); });

  sched.run_until(SimTime::from_seconds(50));
  // fast: 10,20,30,40,50; slow: 25,50.
  ASSERT_EQ(log.size(), 7u);
  EXPECT_EQ(log[0].first, "fast");
  EXPECT_EQ(log[2].first, "slow");
  double prev = 0.0;
  for (const auto& [name, t] : log) {
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(EventSchedulerTest, RunUntilReturnsExecutionCount) {
  EventScheduler sched;
  sched.add_periodic("t", SimTime::from_seconds(1), SimTime::from_seconds(1),
                     [](SimTime) {});
  EXPECT_EQ(sched.run_until(SimTime::from_seconds(5)), 5u);
  EXPECT_EQ(sched.run_until(SimTime::from_seconds(5)), 0u);  // nothing new
}

TEST(EventSchedulerTest, RequestNowInjectsExtraRun) {
  EventScheduler sched;
  int runs = 0;
  const auto id = sched.add_periodic("t", SimTime::from_seconds(100),
                                     SimTime::from_seconds(100),
                                     [&](SimTime) { ++runs; });
  sched.request_now(id, SimTime::from_seconds(1));
  sched.run_until(SimTime::from_seconds(1));
  EXPECT_EQ(runs, 1);  // on-demand run before the first natural slot
  sched.run_until(SimTime::from_seconds(100));
  EXPECT_EQ(runs, 2);  // natural period unaffected
}

class DataConcentratorTest : public ::testing::Test {
 protected:
  DataConcentratorTest() : chiller_(make_chiller_config()) {}

  static plant::ChillerConfig make_chiller_config() {
    plant::ChillerConfig cfg;
    cfg.load_fraction = 0.85;
    cfg.seed = 0xD0;
    return cfg;
  }

  DcConfig dc_config() {
    DcConfig cfg;
    cfg.id = DcId(7);
    cfg.vibration_period = SimTime::from_seconds(300);
    cfg.process_period = SimTime::from_seconds(60);
    return cfg;
  }

  MachineRefs refs_{ObjectId(1), ObjectId(2), ObjectId(3), ObjectId(4)};
  plant::ChillerSimulator chiller_;
};

TEST_F(DataConcentratorTest, HealthyPlantStaysMostlyQuiet) {
  DataConcentrator dc(dc_config(), refs_, chiller_);
  const auto reports = dc.advance_to(SimTime::from_hours(1.0));
  EXPECT_LE(reports.size(), 2u);  // noise may cause an occasional blip
  EXPECT_EQ(dc.stats().vibration_tests, 12u);
  EXPECT_EQ(dc.stats().process_scans, 60u);
}

TEST_F(DataConcentratorTest, ImbalanceProducesDliReportAgainstMotor) {
  chiller_.faults().schedule({FailureMode::MotorImbalance, SimTime(0),
                              SimTime(0), 0.9,
                              plant::GrowthProfile::Step});
  DataConcentrator dc(dc_config(), refs_, chiller_);
  const auto reports = dc.advance_to(SimTime::from_hours(1.0));

  bool found = false;
  for (const net::FailureReport& r : reports) {
    if (r.machine_condition ==
            domain::condition_id(FailureMode::MotorImbalance) &&
        r.knowledge_source == kDliExpertSystem) {
      found = true;
      EXPECT_EQ(r.sensed_object, refs_.motor);
      EXPECT_EQ(r.dc, DcId(7));
      EXPECT_GT(r.severity, 0.3);
      EXPECT_GT(r.belief, 0.5);
      EXPECT_FALSE(r.prognostics.empty());
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(DataConcentratorTest, ProcessFaultProducesFuzzyReport) {
  chiller_.faults().schedule({FailureMode::RefrigerantLeak, SimTime(0),
                              SimTime(0), 1.0, plant::GrowthProfile::Step});
  DataConcentrator dc(dc_config(), refs_, chiller_);
  const auto reports = dc.advance_to(SimTime::from_hours(1.0));

  bool fuzzy_found = false;
  for (const net::FailureReport& r : reports) {
    if (r.knowledge_source == kFuzzyLogic &&
        r.machine_condition ==
            domain::condition_id(FailureMode::RefrigerantLeak)) {
      fuzzy_found = true;
      EXPECT_EQ(r.sensed_object, refs_.chiller);
    }
  }
  EXPECT_TRUE(fuzzy_found);
}

TEST_F(DataConcentratorTest, SbfrThresholdMachineReportsOnTrend) {
  // A hard bearing-temperature fault drives the SBFR threshold machine.
  chiller_.faults().schedule({FailureMode::CompressorBearingWear, SimTime(0),
                              SimTime(0), 1.0, plant::GrowthProfile::Step});
  DataConcentrator dc(dc_config(), refs_, chiller_);
  const auto reports = dc.advance_to(SimTime::from_hours(2.0));

  bool sbfr_found = false;
  for (const net::FailureReport& r : reports) {
    if (r.knowledge_source == kSbfr) sbfr_found = true;
  }
  EXPECT_TRUE(sbfr_found);
}

TEST_F(DataConcentratorTest, DatabaseAccumulatesMeasurementsAndDiagnostics) {
  chiller_.faults().schedule({FailureMode::MotorImbalance, SimTime(0),
                              SimTime(0), 0.9, plant::GrowthProfile::Step});
  DataConcentrator dc(dc_config(), refs_, chiller_);
  dc.advance_to(SimTime::from_hours(1.0));

  // 60 process scans x 11 variables.
  EXPECT_EQ(dc.database().table("measurements").row_count(), 60u * 11u);
  EXPECT_GT(dc.database().table("diagnostics").row_count(), 0u);
  EXPECT_GT(dc.database().table("test_log").row_count(), 0u);

  // Diagnostics record the condition id.
  const auto imbalance = static_cast<std::int64_t>(
      domain::condition_id(FailureMode::MotorImbalance).value());
  EXPECT_GT(diagnostics_naming(dc.database(), imbalance), 0u);
}

TEST_F(DataConcentratorTest, DatabaseKeepsOneHourAcrossWedge) {
  chiller_.faults().schedule({FailureMode::MotorImbalance, SimTime(0),
                              SimTime(0), 0.9, plant::GrowthProfile::Step});
  const auto imbalance = static_cast<std::int64_t>(
      domain::condition_id(FailureMode::MotorImbalance).value());
  const auto check_window = [&](DataConcentrator& dc, SimTime now) {
    const db::Database& db = dc.database();
    // One hour of 60-s scans x 11 variables, however long the DC has run.
    EXPECT_EQ(db.table("measurements").row_count(), 60u * 11u);
    std::uint64_t rows = 0;
    for (const char* name : {"measurements", "diagnostics", "test_log"}) {
      const db::Table& t = db.table(name);
      EXPECT_GT(t.row_count(), 0u) << name;
      for (const auto& [key, row] : t.rows()) {
        EXPECT_GT(row[1].as_integer(),
                  (now - SimTime::from_hours(1.0)).micros())
            << name << " row " << key;
      }
      rows += t.row_count();
    }
    EXPECT_EQ(dc.stats().log_rows, rows);
    // Recent diagnostics still name the imbalance after the trim.
    EXPECT_GT(diagnostics_naming(db, imbalance), 0u);
  };

  DataConcentrator dc(dc_config(), refs_, chiller_);
  (void)dc.advance_to(SimTime::from_hours(3.0));
  EXPECT_EQ(dc.stats().process_scans, 180u);
  check_window(dc, SimTime::from_hours(3.0));

  // A wedge freezes the tables; once cleared, the DC catches up through
  // the missed interval and keeps trimming them.
  dc.set_wedged(true);
  (void)dc.advance_to(SimTime::from_hours(3.5));
  dc.set_wedged(false);
  (void)dc.advance_to(SimTime::from_hours(4.0));
  EXPECT_EQ(dc.stats().process_scans, 240u);
  check_window(dc, SimTime::from_hours(4.0));
}

TEST_F(DataConcentratorTest, OnDemandVibrationTestRunsEarly) {
  chiller_.faults().schedule({FailureMode::MotorImbalance, SimTime(0),
                              SimTime(0), 0.9, plant::GrowthProfile::Step});
  DataConcentrator dc(dc_config(), refs_, chiller_);
  dc.request_vibration_test();
  const auto reports = dc.advance_to(SimTime::from_seconds(30.0));
  // The periodic slot (300 s) has not arrived, yet the commanded test ran.
  EXPECT_EQ(dc.stats().vibration_tests, 1u);
  EXPECT_FALSE(reports.empty());
}

TEST_F(DataConcentratorTest, CommandedTestIsStampedWhenItRuns) {
  chiller_.faults().schedule({FailureMode::MotorImbalance, SimTime(0),
                              SimTime(0), 0.9, plant::GrowthProfile::Step});
  DcConfig cfg = dc_config();
  cfg.vibration_period = SimTime::from_hours(2.0);  // no periodic test here
  DataConcentrator dc(cfg, refs_, chiller_);
  const SimTime commanded = SimTime::from_seconds(1200.0);
  (void)dc.advance_to(commanded);
  net::TestCommandMessage cmd;
  cmd.target = cfg.id;
  cmd.reason = "retest";
  dc.handle_command(cmd);
  const auto reports = dc.advance_to(commanded + SimTime::from_seconds(60.0));
  ASSERT_EQ(dc.stats().vibration_tests, 1u);

  // Its reports and its test_log rows carry the time the command arrived,
  // not time zero.
  std::size_t dli = 0;
  for (const net::FailureReport& r : reports) {
    if (r.knowledge_source != kDliExpertSystem) continue;
    ++dli;
    EXPECT_EQ(r.timestamp.micros(), commanded.micros());
  }
  EXPECT_GT(dli, 0u);
  const db::Table& log = dc.database().table("test_log");
  EXPECT_EQ(log.row_count(), 2u);  // "commanded: retest", then the run
  for (const auto& [key, row] : log.rows()) {
    EXPECT_EQ(row[1].as_integer(), commanded.micros()) << row[2].as_text();
  }
}

TEST_F(DataConcentratorTest, DisabledAnalyzersStaySilent) {
  chiller_.faults().schedule({FailureMode::MotorImbalance, SimTime(0),
                              SimTime(0), 0.9, plant::GrowthProfile::Step});
  DcConfig cfg = dc_config();
  cfg.enable_dli = false;
  cfg.enable_fuzzy = false;
  cfg.enable_sbfr = false;
  DataConcentrator dc(cfg, refs_, chiller_);
  const auto reports = dc.advance_to(SimTime::from_hours(1.0));
  EXPECT_TRUE(reports.empty());
}

TEST_F(DataConcentratorTest, KnowledgeSourceNames) {
  EXPECT_STREQ(knowledge_source_name(kDliExpertSystem), "DLI Expert System");
  EXPECT_STREQ(knowledge_source_name(kSbfr), "SBFR");
  EXPECT_STREQ(knowledge_source_name(kWaveletNeuralNet),
               "Wavelet Neural Net");
  EXPECT_STREQ(knowledge_source_name(kFuzzyLogic), "Fuzzy Logic");
  EXPECT_STREQ(knowledge_source_name(kSensorValidator), "Sensor Validator");
}

// --- Sensor validation -------------------------------------------------------

TEST(SensorValidatorTest, FlatlineWindowQuarantinesThenCleanRunsRelease) {
  SensorValidator v;
  const std::vector<double> stuck(256, 4.2);
  std::vector<double> live(256, 0.0);
  for (std::size_t i = 0; i < live.size(); ++i) {
    live[i] = 0.1 * static_cast<double>(i % 7);
  }

  const auto verdict = v.check_window(Channel::VibMotor, stuck);
  ASSERT_TRUE(verdict.fault.has_value());
  EXPECT_EQ(*verdict.fault, domain::SensorFaultKind::Flatline);
  EXPECT_TRUE(verdict.newly_quarantined);
  EXPECT_TRUE(v.quarantined(Channel::VibMotor));

  // Three consecutive clean acquisitions restore trust (release_after=3).
  EXPECT_FALSE(v.check_window(Channel::VibMotor, live).released);
  EXPECT_FALSE(v.check_window(Channel::VibMotor, live).released);
  const auto released = v.check_window(Channel::VibMotor, live);
  EXPECT_TRUE(released.released);
  ASSERT_TRUE(released.cleared_kind.has_value());
  EXPECT_EQ(*released.cleared_kind, domain::SensorFaultKind::Flatline);
  EXPECT_FALSE(v.quarantined(Channel::VibMotor));
  EXPECT_EQ(v.stats().quarantines, 1u);
  EXPECT_EQ(v.stats().releases, 1u);
}

TEST(SensorValidatorTest, DropoutRangeAndSpikeScreens) {
  SensorValidator v;
  std::vector<double> w(256, 0.0);
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = 0.5 * static_cast<double>(i % 11) - 2.0;
  }

  std::vector<double> with_nan = w;
  with_nan[100] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(v.check_window(Channel::VibGearbox, with_nan).fault,
            domain::SensorFaultKind::Dropout);

  std::vector<double> biased = w;
  for (double& s : biased) s += 500.0;  // way past the 80 g accel range
  EXPECT_EQ(v.check_window(Channel::VibCompressor, biased).fault,
            domain::SensorFaultKind::OutOfRange);

  std::vector<double> spiky = w;
  for (std::size_t i = 0; i < spiky.size(); i += 32) spiky[i] = 300.0;
  EXPECT_EQ(v.check_window(Channel::CurrentMotor, spiky).fault,
            domain::SensorFaultKind::Spike);

  // Scalar screens: NaN reading and physically absurd temperature.
  EXPECT_EQ(v.check_value(Channel::OilTemp,
                          std::numeric_limits<double>::quiet_NaN())
                .fault,
            domain::SensorFaultKind::Dropout);
  EXPECT_EQ(v.check_value(Channel::OilTemp, 900.0).fault,
            domain::SensorFaultKind::OutOfRange);
}

TEST(SensorValidatorTest, LongWindowScreensNonFiniteValuesAndTheSpikeCount) {
  // A current-record-length window, screened through the sampled bracket:
  // non-finite values anywhere, sampled or not, are dropouts, and the spike
  // verdict turns on exactly spike_min_count samples past the limit.
  SensorValidator v;
  const SensorValidatorConfig cfg;
  Rng rng(0x5C2E);
  std::vector<double> w(32768);
  for (double& s : w) s = rng.normal(0.0, 1.0);
  EXPECT_FALSE(v.check_window(Channel::CurrentMotor, w).fault.has_value());

  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    for (const std::size_t at : {std::size_t{0}, std::size_t{1},
                                 w.size() / 2, w.size() - 1}) {
      std::vector<double> broken = w;
      broken[at] = bad;
      EXPECT_EQ(v.check_window(Channel::CurrentMotor, broken).fault,
                domain::SensorFaultKind::Dropout)
          << bad << " at " << at;
    }
  }

  // Dropout outranks a flat window, and a flat window a biased one.
  std::vector<double> flat(32768, 2000.0);
  EXPECT_EQ(v.check_window(Channel::CurrentMotor, flat).fault,
            domain::SensorFaultKind::Flatline);
  flat[7] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(v.check_window(Channel::CurrentMotor, flat).fault,
            domain::SensorFaultKind::Dropout);

  std::vector<double> spiky = w;
  for (std::size_t i = 0; i + 1 < cfg.spike_min_count; ++i) {
    spiky[1000 + 997 * i] = 200.0;
  }
  EXPECT_FALSE(v.check_window(Channel::CurrentMotor, spiky).fault.has_value());
  spiky[30000] = -200.0;
  EXPECT_EQ(v.check_window(Channel::CurrentMotor, spiky).fault,
            domain::SensorFaultKind::Spike);
}

TEST(SensorValidatorTest, ScalarStuckAtNeedsExactRepeats) {
  SensorValidator v;
  // Three identical readings are still believable...
  EXPECT_FALSE(v.check_value(Channel::BearingTemp, 55.1).fault.has_value());
  EXPECT_FALSE(v.check_value(Channel::BearingTemp, 55.1).fault.has_value());
  EXPECT_FALSE(v.check_value(Channel::BearingTemp, 55.1).fault.has_value());
  // ...the fourth exact repeat is a frozen loop.
  EXPECT_EQ(v.check_value(Channel::BearingTemp, 55.1).fault,
            domain::SensorFaultKind::Flatline);
  EXPECT_TRUE(v.quarantined(Channel::BearingTemp));
}

TEST(SensorValidatorTest, ExemptChannelsMayRepeatExactly) {
  // The commanded-load echo carries no instrument noise; exact repeats are
  // its normal behavior, not a stuck DAC.
  SensorValidator v;
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(v.check_value(Channel::Load, 0.85).fault.has_value());
  }
  EXPECT_FALSE(v.quarantined(Channel::Load));
}

TEST_F(DataConcentratorTest, StuckAccelerometerQuarantinedAndReported) {
  chiller_.sensor_faults().schedule(
      {std::string(domain::name(Channel::VibMotor)),
       plant::SensorFaultType::StuckAt, SimTime(0), SimTime::from_hours(2.0),
       3.3});
  DataConcentrator dc(dc_config(), refs_, chiller_);
  const auto reports = dc.advance_to(SimTime::from_hours(1.0));

  EXPECT_TRUE(dc.validator().quarantined(Channel::VibMotor));
  EXPECT_GE(dc.stats().sensor_fault_reports, 1u);
  bool found = false;
  for (const net::FailureReport& r : reports) {
    if (r.knowledge_source != kSensorValidator) continue;
    found = true;
    EXPECT_EQ(r.machine_condition,
              domain::sensor_fault_condition(domain::SensorFaultKind::Flatline));
    EXPECT_DOUBLE_EQ(r.severity, 1.0);
    EXPECT_NE(r.explanation.find("vib.motor"), std::string::npos);
  }
  EXPECT_TRUE(found);
  // The motor channel is muzzled but the rest of the train still runs.
  EXPECT_EQ(dc.stats().vibration_tests, 12u);
}

TEST_F(DataConcentratorTest, QuarantinedMotorAccelerometerKeepsCurrentSignature) {
  // The motor point's current record is its own channel: a stuck motor
  // accelerometer must not silence the rotor-bar rule, whose 1x clause
  // abstains on the missing vibration feature.
  chiller_.faults().schedule({FailureMode::RotorBarDefect, SimTime(0),
                              SimTime(0), 0.9, plant::GrowthProfile::Step});
  const auto dli_reports = [](const std::vector<net::FailureReport>& all,
                              FailureMode mode) {
    std::size_t n = 0;
    for (const net::FailureReport& r : all) {
      n += r.knowledge_source == kDliExpertSystem &&
           r.machine_condition == domain::condition_id(mode);
    }
    return n;
  };

  plant::ChillerSimulator healthy_chiller(make_chiller_config());
  healthy_chiller.faults().schedule({FailureMode::RotorBarDefect, SimTime(0),
                                     SimTime(0), 0.9,
                                     plant::GrowthProfile::Step});
  DataConcentrator healthy(dc_config(), refs_, healthy_chiller);
  const auto healthy_reports = healthy.advance_to(SimTime::from_hours(1.0));
  EXPECT_EQ(dli_reports(healthy_reports, FailureMode::RotorBarDefect), 2u);

  chiller_.sensor_faults().schedule(
      {std::string(domain::name(Channel::VibMotor)),
       plant::SensorFaultType::StuckAt, SimTime(0), SimTime::from_hours(2.0),
       3.3});
  DataConcentrator dc(dc_config(), refs_, chiller_);
  const auto reports = dc.advance_to(SimTime::from_hours(1.0));
  ASSERT_TRUE(dc.validator().quarantined(Channel::VibMotor));
  ASSERT_FALSE(dc.validator().quarantined(Channel::CurrentMotor));
  EXPECT_GE(dli_reports(reports, FailureMode::RotorBarDefect), 1u);
  for (const net::FailureReport& r : reports) {
    if (r.machine_condition ==
        domain::condition_id(FailureMode::RotorBarDefect)) {
      EXPECT_EQ(r.sensed_object, refs_.motor);
    }
  }
  // Rules that need the motor's vibration spectrum stay silent.
  EXPECT_EQ(dli_reports(reports, FailureMode::MotorImbalance), 0u);
  EXPECT_EQ(dli_reports(reports, FailureMode::ShaftMisalignment), 0u);
}

TEST_F(DataConcentratorTest, QuarantinedMotorAccelerometerIsNotReadFromHeat) {
  // A compressor bearing defect heats the bearings. With the motor
  // accelerometer quarantined, the motor bearing rule's vibration clauses
  // abstain, and the temperature clause alone must not blame the motor.
  chiller_.faults().schedule({FailureMode::CompressorBearingWear, SimTime(0),
                              SimTime(0), 0.9, plant::GrowthProfile::Step});
  chiller_.sensor_faults().schedule(
      {std::string(domain::name(Channel::VibMotor)),
       plant::SensorFaultType::StuckAt, SimTime(0), SimTime::from_hours(2.0),
       3.3});
  DataConcentrator dc(dc_config(), refs_, chiller_);
  const auto reports = dc.advance_to(SimTime::from_hours(1.0));
  ASSERT_TRUE(dc.validator().quarantined(Channel::VibMotor));
  for (const net::FailureReport& r : reports) {
    EXPECT_NE(r.machine_condition,
              domain::condition_id(FailureMode::MotorBearingWear));
  }
}

TEST_F(DataConcentratorTest, QuarantineSuppressesFalseMachineryDiagnoses) {
  // An open-circuit bearing RTD reads NaN: without validation the fuzzy
  // analyzer would be fed garbage; with it, the channel is quarantined and
  // no machinery conclusion cites it.
  chiller_.sensor_faults().schedule({"process.bearing_temp_c",
                                     plant::SensorFaultType::Dropout,
                                     SimTime(0), SimTime::from_hours(2.0)});
  DataConcentrator dc(dc_config(), refs_, chiller_);
  const auto reports = dc.advance_to(SimTime::from_hours(1.0));

  EXPECT_TRUE(dc.validator().quarantined(Channel::BearingTemp));
  for (const net::FailureReport& r : reports) {
    EXPECT_TRUE(std::isfinite(r.severity));
    EXPECT_TRUE(std::isfinite(r.belief));
  }
  EXPECT_EQ(dc.stats().process_scans, 60u);  // scans keep running
}

TEST_F(DataConcentratorTest, NonFiniteFeatureAndConclusionShareOneCounter) {
  // Both refusal sites count under the one `rules.nonfinite_inputs` counter.
  telemetry::Counter& nonfinite = rules::nonfinite_inputs();
  EXPECT_EQ(&nonfinite,
            &telemetry::Registry::instance().counter("rules.nonfinite_inputs"));

  std::uint64_t before = nonfinite.value();
  rules::FeatureFrame frame;
  frame.set("nan", std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(nonfinite.value(), before + 1);

  // An oil-temperature RTD biased far out of range, with validation off,
  // makes the fuzzy analyzer fire; an infinite believability prior makes
  // every belief NaN, so emit_raw must refuse each conclusion. With the DLI
  // off no FeatureFrame is built, so only emit_raw moves the counter.
  chiller_.sensor_faults().schedule({"process.oil_temp_c",
                                     plant::SensorFaultType::OutOfRange,
                                     SimTime(0), SimTime::from_hours(2.0),
                                     900.0});
  DcConfig cfg = dc_config();
  cfg.enable_sensor_validation = false;
  cfg.enable_dli = false;
  DataConcentrator dc(cfg, refs_, chiller_);
  dc.believability() =
      rules::BelievabilityTable(std::numeric_limits<double>::infinity(), 1.0);
  before = nonfinite.value();
  const auto reports = dc.advance_to(SimTime::from_hours(1.0));
  EXPECT_GT(nonfinite.value(), before);
  for (const net::FailureReport& r : reports) {
    EXPECT_TRUE(std::isfinite(r.severity));
    EXPECT_TRUE(std::isfinite(r.belief));
  }
}

TEST_F(DataConcentratorTest, SensorRecoveryEmitsAllClear) {
  // Fault window covers only the first 10 minutes; after three clean scans
  // the channel is trusted again and a severity-0 report goes out.
  chiller_.sensor_faults().schedule({"process.oil_temp_c",
                                     plant::SensorFaultType::OutOfRange,
                                     SimTime(0), SimTime::from_seconds(600),
                                     900.0});
  DataConcentrator dc(dc_config(), refs_, chiller_);
  const auto reports = dc.advance_to(SimTime::from_hours(1.0));

  EXPECT_FALSE(dc.validator().quarantined(Channel::OilTemp));
  bool quarantined_seen = false;
  bool cleared_seen = false;
  for (const net::FailureReport& r : reports) {
    if (r.knowledge_source != kSensorValidator) continue;
    if (r.severity > 0.5) quarantined_seen = true;
    if (r.severity == 0.0 &&
        r.explanation.find("process.oil_temp_c") != std::string::npos) {
      cleared_seen = true;
    }
  }
  EXPECT_TRUE(quarantined_seen);
  EXPECT_TRUE(cleared_seen);
  EXPECT_EQ(dc.validator().stats().releases, 1u);
}

TEST_F(DataConcentratorTest, HeartbeatsAccumulateInWireOutbox) {
  DcConfig cfg = dc_config();
  cfg.heartbeat_period = SimTime::from_seconds(60.0);
  DataConcentrator dc(cfg, refs_, chiller_);
  (void)dc.advance_to(SimTime::from_seconds(600));

  // The beat grid is offset by DC 7's seeded heartbeat phase.
  const SimTime phase =
      net::desync_phase((cfg.id.value() << 1) | 1, cfg.heartbeat_period);
  std::vector<SimTime> expected;
  for (SimTime at = phase + cfg.heartbeat_period;
       at <= SimTime::from_seconds(600); at += cfg.heartbeat_period) {
    expected.push_back(at);
  }
  auto wire = dc.drain_wire_outbox();
  EXPECT_EQ(dc.stats().heartbeats_sent, expected.size());
  std::vector<SimTime> beats;
  for (const auto& dgram : wire) {
    const auto hb = net::try_unwrap_heartbeat(dgram.payload);
    if (!hb.has_value()) continue;
    beats.push_back(hb->timestamp);
    EXPECT_EQ(hb->dc, DcId(7));
    EXPECT_EQ(hb->timestamp, dgram.at);
  }
  EXPECT_EQ(beats, expected);
  EXPECT_TRUE(dc.drain_wire_outbox().empty());  // drained
}

TEST(EventSchedulerTest, SetPeriodTakesEffectAtNextReschedule) {
  EventScheduler sched;
  std::vector<double> fired;
  const auto id = sched.add_periodic(
      "t", SimTime::from_seconds(100), SimTime::from_seconds(100),
      [&](SimTime now) { fired.push_back(now.seconds()); });
  EXPECT_EQ(sched.period(id), SimTime::from_seconds(100));

  // The already-queued slot at t=100 keeps its place; later slots use the
  // new period.
  sched.set_period(id, SimTime::from_seconds(25));
  EXPECT_EQ(sched.period(id), SimTime::from_seconds(25));
  sched.run_until(SimTime::from_seconds(200));
  ASSERT_EQ(fired.size(), 5u);
  EXPECT_DOUBLE_EQ(fired[0], 100.0);
  EXPECT_DOUBLE_EQ(fired[1], 125.0);
  EXPECT_DOUBLE_EQ(fired[4], 200.0);
}

// ---------------------------------------------------------------------------
// The runtime control plane (§4.9): apply, reject, persist, recover.

TEST_F(DataConcentratorTest, ApplyCommandAppliesRejectsAndCounts) {
  DataConcentrator dc(dc_config(), refs_, chiller_);
  ASSERT_EQ(dc.config_revision(), 0u);

  net::CommandMessage cmd;
  cmd.target = DcId(7);
  cmd.revision = 5;
  cmd.settings = {{"dc.report_hysteresis", 0.10},
                  {"validator.spike_sigmas", 9.0},
                  {"dc.enable_fuzzy", 0.0},
                  {"dc.nonsense", 1.0},            // unknown key
                  {"dc.report_hysteresis", 5.0},   // out of range
                  {"dc.enable_dli", 0.5}};         // toggles are exact 0/1
  cmd.reason = "test churn";
  dc.apply_command(cmd, SimTime::from_seconds(10.0));

  EXPECT_EQ(dc.config_revision(), 5u);
  EXPECT_EQ(dc.stats().config_commands, 1u);
  EXPECT_EQ(dc.stats().config_applied, 3u);
  EXPECT_EQ(dc.stats().config_rejected, 3u);
  EXPECT_EQ(dc.runtime_setting("dc.report_hysteresis"), 0.10);
  EXPECT_EQ(dc.runtime_setting("validator.spike_sigmas"), 9.0);
  EXPECT_EQ(dc.runtime_setting("dc.enable_fuzzy"), 0.0);
  EXPECT_EQ(dc.runtime_setting("dc.enable_dli"), 1.0);  // reject left it be
  EXPECT_FALSE(dc.runtime_setting("dc.nonsense").has_value());

  // A disordered older revision is a stale no-op, not a rollback.
  net::CommandMessage old_cmd;
  old_cmd.target = DcId(7);
  old_cmd.revision = 3;
  old_cmd.settings = {{"dc.report_hysteresis", 0.01}};
  dc.apply_command(old_cmd, SimTime::from_seconds(20.0));
  EXPECT_EQ(dc.config_revision(), 5u);
  EXPECT_EQ(dc.stats().config_stale, 1u);
  EXPECT_EQ(dc.runtime_setting("dc.report_hysteresis"), 0.10);
}

TEST_F(DataConcentratorTest, CommandEnvelopeOverWireAppliesOnceAndAcks) {
  DataConcentrator dc(dc_config(), refs_, chiller_);

  net::CommandEnvelope env;
  env.dc = DcId(7);
  env.sequence = 1;
  env.command.target = DcId(7);
  env.command.revision = 1;
  env.command.settings = {{"dc.wnn_report_threshold", 0.6}};
  const net::Message msg{"pdme", "dc-7", net::wrap(env), SimTime(0),
                         SimTime::from_seconds(1.0)};
  dc.handle_wire(msg);
  EXPECT_EQ(dc.runtime_setting("dc.wnn_report_threshold"), 0.6);
  EXPECT_EQ(dc.stats().config_commands, 1u);

  // The retransmitted duplicate is re-acked but not re-applied.
  dc.handle_wire(msg);
  EXPECT_EQ(dc.stats().config_commands, 1u);

  std::size_t acks = 0;
  for (const auto& dgram : dc.drain_wire_outbox()) {
    const auto ack = net::try_unwrap_ack(dgram.payload);
    if (!ack.has_value()) continue;
    ++acks;
    EXPECT_EQ(ack->dc, DcId(7));
    EXPECT_EQ(ack->cumulative, 1u);
  }
  EXPECT_EQ(acks, 2u);

  // A command mis-routed to the wrong DC is ignored entirely.
  env.command.target = DcId(9);
  env.dc = DcId(9);
  env.sequence = 2;
  dc.handle_wire({"pdme", "dc-7", net::wrap(env), SimTime(0),
                  SimTime::from_seconds(2.0)});
  EXPECT_EQ(dc.stats().config_commands, 1u);
}

TEST_F(DataConcentratorTest, RestoredConfigIsAdoptedQuietly) {
  DataConcentrator dc(dc_config(), refs_, chiller_);
  (void)dc.advance_to(SimTime::from_seconds(120.0));

  // What a durable ship's dc_config mirror hands a rebuilt DC after a crash.
  dc.restore_config({{"validator.spike_sigmas", 8.5},
                     {"dc.report_hysteresis", 0.12},
                     {"dc.enable_sbfr", 0.0},
                     {"__revision", 4.0}});
  EXPECT_EQ(dc.config_revision(), 4u);
  EXPECT_EQ(dc.runtime_setting("validator.spike_sigmas"), 8.5);
  EXPECT_EQ(dc.runtime_setting("dc.report_hysteresis"), 0.12);
  EXPECT_EQ(dc.runtime_setting("dc.enable_sbfr"), 0.0);
  // The restore is quiet: no counter moves and nothing is queued to be
  // mirrored back.
  EXPECT_EQ(dc.stats().config_applied, 0u);
  EXPECT_TRUE(dc.drain_config_updates().empty());

  // And the revision gate holds against the restored revision.
  net::CommandMessage stale;
  stale.target = DcId(7);
  stale.revision = 2;
  stale.settings = {{"validator.spike_sigmas", 3.0}};
  dc.apply_command(stale, SimTime::from_seconds(200.0));
  EXPECT_EQ(dc.stats().config_stale, 1u);
  EXPECT_EQ(dc.runtime_setting("validator.spike_sigmas"), 8.5);
}

TEST_F(DataConcentratorTest, WedgedDcFreezesProgressAndIgnoresWire) {
  DataConcentrator dc(dc_config(), refs_, chiller_);
  (void)dc.advance_to(SimTime::from_seconds(60.0));
  const std::uint64_t tick = dc.progress();
  EXPECT_GT(tick, 0u);

  dc.set_wedged(true);
  EXPECT_TRUE(dc.advance_to(SimTime::from_seconds(600.0)).empty());
  EXPECT_EQ(dc.progress(), tick);  // the tick the supervisor watches froze

  net::CommandEnvelope env;
  env.dc = DcId(7);
  env.sequence = 1;
  env.command.target = DcId(7);
  env.command.revision = 1;
  env.command.settings = {{"dc.report_hysteresis", 0.2}};
  dc.handle_wire({"pdme", "dc-7", net::wrap(env), SimTime(0),
                  SimTime::from_seconds(90.0)});
  EXPECT_EQ(dc.stats().config_commands, 0u);  // wire input ignored too

  dc.set_wedged(false);
  (void)dc.advance_to(SimTime::from_seconds(660.0));
  EXPECT_GT(dc.progress(), tick);
}

TEST(DcSupervisorTest, DetectsWedgeRearmsAndCountsRestarts) {
  DcSupervisorConfig cfg;
  cfg.wedge_timeout = SimTime::from_seconds(300.0);
  DcSupervisor sup(cfg);
  const DcId dc(3);

  EXPECT_FALSE(sup.observe(dc, 1, SimTime::from_seconds(0.0)));
  EXPECT_FALSE(sup.observe(dc, 2, SimTime::from_seconds(60.0)));
  // Progress freezes at tick 2; the verdict fires once the silence exceeds
  // the timeout, and only once (re-armed until progress moves again).
  EXPECT_FALSE(sup.observe(dc, 2, SimTime::from_seconds(300.0)));
  EXPECT_TRUE(sup.observe(dc, 2, SimTime::from_seconds(361.0)));
  EXPECT_FALSE(sup.observe(dc, 2, SimTime::from_seconds(420.0)));
  EXPECT_EQ(sup.stats().wedges_detected, 1u);

  sup.notify_restarted(dc, 7, SimTime::from_seconds(480.0));
  EXPECT_EQ(sup.stats().restarts, 1u);
  EXPECT_FALSE(sup.observe(dc, 8, SimTime::from_seconds(540.0)));
  // A healthy DC that keeps ticking never trips the watchdog.
  EXPECT_FALSE(sup.observe(dc, 9, SimTime::from_seconds(900.0)));

  // The replacement wedging again is caught again.
  EXPECT_FALSE(sup.observe(dc, 9, SimTime::from_seconds(1000.0)));
  EXPECT_TRUE(sup.observe(dc, 9, SimTime::from_seconds(1300.0)));
  EXPECT_EQ(sup.stats().wedges_detected, 2u);
}

}  // namespace
}  // namespace mpros::dc
