// End-to-end MPROS tests over the assembled ShipSystem: Fig 1 dataflow,
// disorder robustness (E9 substrate), fleet behaviour.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "mpros/mpros/mpros.hpp"
#include "mpros/pdme/mimosa.hpp"
#include "mpros/telemetry/metrics.hpp"
#include "submit_one.hpp"

namespace mpros {
namespace {

using domain::FailureMode;

ShipSystemConfig small_config() {
  ShipSystemConfig cfg;
  cfg.plant_count = 2;
  cfg.dc_template.vibration_period = SimTime::from_seconds(600);
  cfg.dc_template.process_period = SimTime::from_seconds(60);
  cfg.worker_threads = 2;
  return cfg;
}

TEST(ShipSystemTest, AssemblesTopology) {
  ShipSystem ship(small_config());
  EXPECT_EQ(ship.plant_count(), 2u);
  EXPECT_GT(ship.model().object_count(), 20u);
  EXPECT_EQ(ship.model().name(ship.plant_objects(0).motor),
            "A/C Compressor Motor 1");
}

TEST(ShipSystemTest, WarnsWhenHeartbeatIntervalConflictsWithDcPeriod) {
  // ShipSystem overrides pdme.heartbeat_interval with the DC template's
  // heartbeat_period (the watchdog must match the beat cadence). That used
  // to be silent; a caller who tuned the watchdog deserves to hear that
  // their value lost.
  auto& warnings =
      telemetry::Registry::instance().counter("mpros.log_warnings");

  ShipSystemConfig cfg = small_config();
  cfg.pdme.heartbeat_interval = SimTime::from_seconds(5.0);  // conflicts
  const std::uint64_t before = warnings.value();
  ShipSystem ship(cfg);
  EXPECT_GT(warnings.value(), before);

  // No warning when the caller left the default or matched the DC period.
  const std::uint64_t mid = warnings.value();
  ShipSystem untouched(small_config());
  ShipSystemConfig matched = small_config();
  matched.pdme.heartbeat_interval = matched.dc_template.heartbeat_period;
  ShipSystem agreeing(matched);
  EXPECT_EQ(warnings.value(), mid);
}

TEST(ShipSystemTest, HealthyFleetProducesFewReports) {
  ShipSystem ship(small_config());
  ship.run_until(SimTime::from_hours(1.0));
  EXPECT_LE(ship.pdme().snapshot().reports_accepted, 4u);
}

TEST(ShipSystemTest, FaultFlowsEndToEnd) {
  ShipSystem ship(small_config());
  ship.chiller(0).faults().schedule({FailureMode::MotorImbalance, SimTime(0),
                                     SimTime(0), 0.9,
                                     plant::GrowthProfile::Step});
  ship.run_until(SimTime::from_hours(1.0));

  const ObjectId motor = ship.plant_objects(0).motor;
  const auto list = ship.pdme().prioritized_list(motor);
  ASSERT_FALSE(list.empty());
  EXPECT_EQ(list.front().mode, FailureMode::MotorImbalance);
  EXPECT_GT(list.front().fused_belief, 0.8);  // reinforced over repeats

  // The unfaulted plant stays clean.
  EXPECT_TRUE(
      ship.pdme().prioritized_list(ship.plant_objects(1).motor).empty());
}

TEST(ShipSystemTest, MultipleSimultaneousFaultsAcrossGroups) {
  // §5.3: "there can, in fact, be several failures at one time".
  ShipSystem ship(small_config());
  ship.chiller(0).faults().schedule({FailureMode::MotorImbalance, SimTime(0),
                                     SimTime(0), 0.9,
                                     plant::GrowthProfile::Step});
  ship.chiller(0).faults().schedule({FailureMode::RefrigerantLeak, SimTime(0),
                                     SimTime(0), 1.0,
                                     plant::GrowthProfile::Step});
  ship.run_until(SimTime::from_hours(1.0));

  const auto motor_list =
      ship.pdme().prioritized_list(ship.plant_objects(0).motor);
  const auto chiller_list =
      ship.pdme().prioritized_list(ship.plant_objects(0).chiller);
  ASSERT_FALSE(motor_list.empty());
  ASSERT_FALSE(chiller_list.empty());
  EXPECT_EQ(motor_list.front().mode, FailureMode::MotorImbalance);
  EXPECT_EQ(chiller_list.front().mode, FailureMode::RefrigerantLeak);
}

TEST(ShipSystemTest, ProgressiveFaultEscalatesSeverity) {
  ShipSystem ship(small_config());
  ship.chiller(0).faults().schedule({FailureMode::MotorImbalance, SimTime(0),
                                     SimTime::from_hours(3.0), 0.9,
                                     plant::GrowthProfile::Linear});
  const ObjectId motor = ship.plant_objects(0).motor;

  ship.run_until(SimTime::from_hours(1.0));
  const auto early = ship.pdme().prioritized_list(motor);
  const double early_sev = early.empty() ? 0.0 : early.front().max_severity;

  ship.run_until(SimTime::from_hours(3.0));
  const auto late = ship.pdme().prioritized_list(motor);
  ASSERT_FALSE(late.empty());
  EXPECT_GT(late.front().max_severity, early_sev);
  EXPECT_EQ(late.front().mode, FailureMode::MotorImbalance);
}

TEST(ShipSystemTest, NetworkStatsAccumulate) {
  ShipSystem ship(small_config());
  ship.chiller(0).faults().schedule({FailureMode::MotorImbalance, SimTime(0),
                                     SimTime(0), 0.9,
                                     plant::GrowthProfile::Step});
  ship.run_until(SimTime::from_hours(1.0));
  const auto stats = ship.fleet_stats();
  EXPECT_GT(stats.samples_processed, 100000u);
  EXPECT_GT(stats.reports_emitted, 0u);
  // Sent datagrams = failure reports + sensor-data batches.
  EXPECT_GE(stats.network.sent, stats.reports_emitted);
  // Every delivered datagram lands in exactly one bucket: fused reports,
  // sensor batches, dedup/malformed drops, liveness heartbeats into the
  // PDME, or cumulative acks back out to the DCs (lossless transport here,
  // so every ack sent is an ack delivered).
  const pdme::PdmeExecutive::Stats ps = ship.pdme().snapshot();
  EXPECT_EQ(stats.reports_fused,
            stats.network.delivered - ps.sensor_batches -
                ps.duplicates_dropped - ps.malformed_dropped -
                ps.heartbeats_received - ps.acks_sent);
}

TEST(DisorderTest, LossyJitteryNetworkStillConverges) {
  // E9: the transport drops, delays and duplicates; fused conclusions must
  // still identify the fault (dedup absorbs duplicates, D-S commutativity
  // absorbs reordering, repetition absorbs loss).
  ShipSystemConfig cfg = small_config();
  cfg.network.drop_probability = 0.25;
  cfg.network.duplicate_probability = 0.35;
  cfg.network.jitter = SimTime::from_seconds(30.0);
  cfg.dc_template.vibration_period = SimTime::from_seconds(300);
  ShipSystem ship(cfg);
  ship.chiller(0).faults().schedule({FailureMode::MotorImbalance, SimTime(0),
                                     SimTime(0), 0.9,
                                     plant::GrowthProfile::Step});
  ship.run_until(SimTime::from_hours(2.0));

  const auto list =
      ship.pdme().prioritized_list(ship.plant_objects(0).motor);
  ASSERT_FALSE(list.empty());
  EXPECT_EQ(list.front().mode, FailureMode::MotorImbalance);
  EXPECT_GT(list.front().fused_belief, 0.8);
  EXPECT_GT(ship.network().stats().dropped, 0u);
  EXPECT_GT(ship.network().stats().duplicated, 0u);
}

TEST(DisorderTest, OrderInvarianceOfFusedState) {
  // Same report set, two delivery orders -> identical fused beliefs.
  oosm::ObjectModel model1, model2;
  const auto ship1 = oosm::build_ship(model1, "a", 1, 1);
  const auto ship2 = oosm::build_ship(model2, "b", 1, 1);
  pdme::PdmeExecutive p1(model1), p2(model2);

  std::vector<net::FailureReport> reports;
  for (int i = 0; i < 6; ++i) {
    net::FailureReport r;
    r.dc = DcId(1);
    r.knowledge_source = KnowledgeSourceId(1 + i % 4);
    r.sensed_object = ship1.plants[0].motor;
    r.machine_condition = domain::condition_id(
        i % 2 == 0 ? FailureMode::MotorImbalance
                   : FailureMode::ShaftMisalignment);
    r.severity = 0.5;
    r.belief = 0.55;
    r.timestamp = SimTime::from_seconds(100.0 * i);
    reports.push_back(r);
  }

  for (const auto& r : reports) submit_one(p1, r);
  for (auto it = reports.rbegin(); it != reports.rend(); ++it) {
    auto r = *it;
    r.sensed_object = ship2.plants[0].motor;
    submit_one(p2, r);
  }

  const auto s1 = p1.group_state(ship1.plants[0].motor,
                                 domain::LogicalGroup::RotorDynamics);
  const auto s2 = p2.group_state(ship2.plants[0].motor,
                                 domain::LogicalGroup::RotorDynamics);
  for (std::size_t i = 0; i < s1.modes.size(); ++i) {
    EXPECT_NEAR(s1.modes[i].belief, s2.modes[i].belief, 1e-9);
  }
  EXPECT_NEAR(s1.unknown, s2.unknown, 1e-9);
}

TEST(LoadGatingTest, LoosenessSuppressedAtLowLoadEndToEnd) {
  // §6.1's flagship example, end to end: "a false positive bearing
  // looseness call is not made when the compressor enters a low load
  // period of operation." Same fault, two operating points.
  const auto run_at_load = [](double load) {
    ShipSystemConfig cfg;
    cfg.plant_count = 1;
    cfg.initial_load = load;
    cfg.dc_template.vibration_period = SimTime::from_seconds(600);
    ShipSystem ship(cfg);
    ship.chiller(0).faults().schedule(
        {FailureMode::BearingHousingLooseness, SimTime(0), SimTime(0), 0.9,
         plant::GrowthProfile::Step});
    ship.run_until(SimTime::from_hours(1.0));
    for (const auto& item :
         ship.pdme().prioritized_list(ship.plant_objects(0).compressor)) {
      if (item.mode == FailureMode::BearingHousingLooseness) return true;
    }
    return false;
  };

  EXPECT_FALSE(run_at_load(0.10));  // unloaded: rattling is normal
  EXPECT_TRUE(run_at_load(0.85));   // loaded: the call is made
}

TEST(FleetAnalyzerIntegrationTest, ResidentAnalyzerClosesTheLoop) {
  // §5.7 end to end: DCs publish telemetry, the PDME-resident analyzer
  // compares sisters and flags the fouling plant without any DC-side call.
  ShipSystemConfig cfg;
  cfg.plant_count = 4;
  cfg.enable_fleet_analyzer = true;
  cfg.dc_template.enable_fuzzy = false;  // leave the call to the resident
  cfg.dc_template.enable_sbfr = false;
  cfg.dc_template.enable_dli = false;
  cfg.dc_template.sensor_publish_every = 2;
  ShipSystem ship(cfg);
  ship.chiller(2).faults().schedule({FailureMode::CondenserFouling,
                                     SimTime(0), SimTime(0), 1.0,
                                     plant::GrowthProfile::Step});
  ship.run_until(SimTime::from_hours(1.0));

  ASSERT_NE(ship.fleet_analyzer(), nullptr);
  EXPECT_GT(ship.fleet_analyzer()->stats().reports_issued, 0u);
  const auto list =
      ship.pdme().prioritized_list(ship.plant_objects(2).chiller);
  ASSERT_FALSE(list.empty());
  EXPECT_EQ(list.front().mode, FailureMode::CondenserFouling);
  // Healthy sisters stay clean.
  EXPECT_TRUE(
      ship.pdme().prioritized_list(ship.plant_objects(0).chiller).empty());
}

TEST(StartupScenarioTest, LoadRampFollowsSchedule) {
  // §3.3 milestone: "simulation of Carrier Chiller startup" — the plant
  // ramps from idle to full load along scheduled setpoints.
  plant::ChillerConfig cfg;
  cfg.load_fraction = 0.05;
  plant::ChillerSimulator chiller(cfg);
  chiller.schedule_load(SimTime::from_seconds(600), 0.05);
  chiller.schedule_load(SimTime::from_seconds(1800), 0.85);

  chiller.advance(SimTime::from_seconds(300));
  EXPECT_NEAR(chiller.load(), 0.05, 1e-9);       // before the ramp
  chiller.advance(SimTime::from_seconds(900));   // t = 1200: halfway up
  EXPECT_NEAR(chiller.load(), 0.45, 1e-9);
  chiller.advance(SimTime::from_seconds(1200));  // t = 2400: past the end
  EXPECT_NEAR(chiller.load(), 0.85, 1e-9);
}

TEST(StartupScenarioTest, GatedRulesQuietDuringStartupEndToEnd) {
  // The looseness fault is present from t=0, but the plant starts unloaded
  // and ramps up over the first hour: no call during startup, call after.
  ShipSystemConfig cfg;
  cfg.plant_count = 1;
  cfg.initial_load = 0.05;
  cfg.dc_template.vibration_period = SimTime::from_seconds(600);
  ShipSystem ship(cfg);
  ship.chiller(0).faults().schedule(
      {FailureMode::BearingHousingLooseness, SimTime(0), SimTime(0), 0.9,
       plant::GrowthProfile::Step});
  ship.chiller(0).schedule_load(SimTime::from_hours(1.0), 0.05);
  ship.chiller(0).schedule_load(SimTime::from_hours(1.5), 0.9);

  const ObjectId compressor = ship.plant_objects(0).compressor;
  ship.run_until(SimTime::from_hours(1.0));
  for (const auto& item : ship.pdme().prioritized_list(compressor)) {
    EXPECT_NE(item.mode, FailureMode::BearingHousingLooseness)
        << "false positive during startup";
  }

  ship.run_until(SimTime::from_hours(3.0));
  bool called = false;
  for (const auto& item : ship.pdme().prioritized_list(compressor)) {
    if (item.mode == FailureMode::BearingHousingLooseness) called = true;
  }
  EXPECT_TRUE(called);
}

TEST(BelievabilityLoopTest, ReversalsLowerFutureReportBeliefs) {
  // §6.1: believability factors track "how often each [diagnosis] was
  // reversed or modified by a human analyst". Reverse the imbalance call
  // repeatedly and the DC's subsequent reports carry less belief.
  ShipSystemConfig cfg;
  cfg.plant_count = 1;
  cfg.dc_template.vibration_period = SimTime::from_seconds(600);
  ShipSystem ship(cfg);
  ship.chiller(0).faults().schedule({FailureMode::MotorImbalance, SimTime(0),
                                     SimTime(0), 0.9,
                                     plant::GrowthProfile::Step});
  ship.run_until(SimTime::from_hours(0.5));

  const ObjectId motor = ship.plant_objects(0).motor;
  const auto before = ship.pdme().reports_for(motor);
  ASSERT_FALSE(before.empty());
  const double belief_before = before.front().belief;

  // The analyst reverses the call ten times across overhauls.
  for (int i = 0; i < 10; ++i) {
    ship.record_maintenance_outcome(0, FailureMode::MotorImbalance,
                                    /*confirmed=*/false);
  }
  // Post-maintenance reset wiped the fused state.
  EXPECT_TRUE(ship.pdme().prioritized_list(motor).empty());

  ship.run_until(SimTime::from_hours(1.0));
  const auto after = ship.pdme().reports_for(motor);
  ASSERT_FALSE(after.empty());
  EXPECT_LT(after.front().belief, belief_before - 0.15);
}

TEST(OosmPersistenceIntegrationTest, ShipSurvivesSaveLoad) {
  ShipSystem ship(small_config());
  db::Database db;
  { oosm::DurableModelJournal journal(ship.model(), db); }
  const oosm::ObjectModel restored = oosm::Persistence::load(db);
  EXPECT_EQ(restored.object_count(), ship.model().object_count());
  EXPECT_TRUE(restored.find_by_name("A/C Compressor Motor 1").has_value());
}

TEST(ValidationHarnessTest, DetectsSeededFaultWithLeadTime) {
  ValidationScenario s;
  s.mode = FailureMode::MotorImbalance;
  s.onset = SimTime::from_hours(0.5);
  s.wear_time = SimTime::from_hours(6.0);
  s.seed = 42;
  ValidationConfig cfg;
  cfg.step = SimTime::from_seconds(600);
  cfg.dc.vibration_period = SimTime::from_seconds(600);
  cfg.dc.process_period = SimTime::from_seconds(60);
  const ScenarioScore score = run_scenario(s, cfg);

  EXPECT_TRUE(score.detected);
  ASSERT_TRUE(score.lead_time.has_value());
  // Detected in the first half of the wear life: useful lead time.
  EXPECT_GT(score.lead_time->hours(), 3.0);
  EXPECT_EQ(score.false_alarms, 0u);
}

TEST(ValidationHarnessTest, SummaryAggregatesAcrossModes) {
  ValidationConfig cfg;
  cfg.step = SimTime::from_seconds(600);
  cfg.dc.vibration_period = SimTime::from_seconds(600);
  cfg.dc.process_period = SimTime::from_seconds(60);
  const ValidationScenario scenarios[] = {
      {FailureMode::MotorImbalance, SimTime::from_hours(0.5),
       SimTime::from_hours(4.0), plant::GrowthProfile::Linear, 1},
      {FailureMode::RefrigerantLeak, SimTime::from_hours(0.5),
       SimTime::from_hours(4.0), plant::GrowthProfile::Linear, 2},
  };
  const ValidationSummary summary = run_validation(scenarios, cfg);
  EXPECT_EQ(summary.scores.size(), 2u);
  EXPECT_GT(summary.detection_rate, 0.99);
  EXPECT_GT(summary.mean_lead_fraction, 0.2);
  const std::string table = render(summary);
  EXPECT_NE(table.find("MotorImbalance"), std::string::npos);
  EXPECT_NE(table.find("detection 100%"), std::string::npos);
}

// --- Fault tolerance (E17 substrate) -----------------------------------------

TEST(FaultToleranceTest, PartitionedDcGoesLostThenRecovers) {
  ShipSystemConfig cfg = small_config();
  ShipSystem ship(cfg);
  const DcId dc1(1);

  // Sever dc-1 from the ship's network for 20 minutes.
  ship.network().schedule_outage({"dc-1", SimTime::from_seconds(600),
                                  SimTime::from_seconds(1800), 1.0});

  ship.run_until(SimTime::from_seconds(500));
  EXPECT_EQ(ship.pdme().dc_liveness(dc1), pdme::DcLiveness::Alive);

  // Three missed 60 s heartbeat intervals into the partition: flagged Lost.
  ship.run_until(SimTime::from_seconds(600 + 3 * 60 + 30));
  EXPECT_EQ(ship.pdme().dc_liveness(dc1), pdme::DcLiveness::Lost);
  EXPECT_EQ(ship.pdme().dc_liveness(DcId(2)), pdme::DcLiveness::Alive);
  EXPECT_GT(ship.network().stats().outage_dropped, 0u);

  // The operator page calls the dead space out.
  const std::string summary = pdme::render_summary(ship.pdme(), ship.model());
  EXPECT_NE(summary.find("NO DATA since"), std::string::npos);

  // Heartbeats resume once the partition heals; the space recovers.
  ship.run_until(SimTime::from_seconds(2000));
  EXPECT_EQ(ship.pdme().dc_liveness(dc1), pdme::DcLiveness::Alive);
}

TEST(FaultToleranceTest, RetransmissionsDeliverReportsThroughPartition) {
  ShipSystemConfig cfg = small_config();
  ShipSystem ship(cfg);
  ship.chiller(0).faults().schedule({FailureMode::MotorImbalance, SimTime(0),
                                     SimTime(0), 0.9,
                                     plant::GrowthProfile::Step});
  // The partition swallows the first wave of reports (the imbalance is
  // detected by the first 600 s vibration test); only retransmission can
  // get the conclusion through after the window closes.
  ship.network().schedule_outage({"dc-1", SimTime(0),
                                  SimTime::from_seconds(1200), 1.0});
  ship.run_until(SimTime::from_hours(1.0));

  const auto list = ship.pdme().prioritized_list(ship.plant_objects(0).motor);
  ASSERT_FALSE(list.empty());
  EXPECT_EQ(list.front().mode, FailureMode::MotorImbalance);
  EXPECT_GT(ship.concentrator(0).reliable().snapshot().retransmits, 0u);
  EXPECT_GT(ship.pdme().snapshot().envelopes_accepted, 0u);
}

TEST(ChaosSmokeTest, HostileTransportConfiguredFromEnvironment) {
  // CI chaos knobs: MPROS_CHAOS_DROP / MPROS_CHAOS_DUP / MPROS_CHAOS_SEED
  // crank the transport pathologies without a rebuild.
  const char* drop = std::getenv("MPROS_CHAOS_DROP");
  const char* dup = std::getenv("MPROS_CHAOS_DUP");
  const char* seed = std::getenv("MPROS_CHAOS_SEED");

  ShipSystemConfig cfg = small_config();
  cfg.network.drop_probability = drop ? std::atof(drop) : 0.15;
  cfg.network.duplicate_probability = dup ? std::atof(dup) : 0.05;
  cfg.network.jitter = SimTime::from_millis(200.0);
  cfg.network.seed = seed ? std::strtoull(seed, nullptr, 0) : 0xC4405;

  ShipSystem ship(cfg);
  ship.chiller(0).faults().schedule({FailureMode::MotorImbalance, SimTime(0),
                                     SimTime(0), 0.9,
                                     plant::GrowthProfile::Step});
  ship.run_until(SimTime::from_hours(2.0));

  // Reliable delivery must land the conclusion despite the weather, and
  // nothing non-finite may survive into the fused state.
  const auto list = ship.pdme().prioritized_list(ship.plant_objects(0).motor);
  ASSERT_FALSE(list.empty());
  EXPECT_EQ(list.front().mode, FailureMode::MotorImbalance);
  EXPECT_TRUE(std::isfinite(list.front().fused_belief));
  EXPECT_EQ(ship.pdme().snapshot().malformed_dropped, 0u);
}

// --- Supervised wedge recovery (E20) -----------------------------------------

/// Everything the OOSM/browser layer shows an operator, concatenated.
std::string browser_fingerprint(ShipSystem& ship) {
  std::string out = pdme::render_summary(ship.pdme(), ship.model());
  for (std::size_t p = 0; p < ship.plant_count(); ++p) {
    out += pdme::render_machine(ship.pdme(), ship.model(),
                                ship.plant_objects(p).motor);
  }
  out += pdme::export_icas_csv(ship.pdme(), ship.model());
  return out;
}

/// The wedge tests' two ships are built from this one seeded config.
ShipSystemConfig wedge_test_config() {
  ShipSystemConfig cfg = small_config();
  cfg.seed = 0x5EED;
  return cfg;
}

/// A fault on each plant and a hard outage isolating dc-1 over
/// [3600 s, 4500 s].
void wedge_test_script(ShipSystem& ship) {
  ship.chiller(0).faults().schedule({FailureMode::MotorImbalance,
                                     SimTime::from_seconds(720),
                                     SimTime::from_hours(1.0), 0.9,
                                     plant::GrowthProfile::Linear});
  ship.chiller(1).faults().schedule({FailureMode::RefrigerantLeak,
                                     SimTime::from_seconds(1500),
                                     SimTime::from_hours(1.0), 0.8,
                                     plant::GrowthProfile::Linear});
  ship.network().schedule_outage({"dc-1", SimTime::from_seconds(3600),
                                  SimTime::from_seconds(4500), 1.0});
}

TEST(SupervisorRecoveryTest, WedgeRecoveryIsByteIdenticalToUnwedgedRun) {
  // Two identically-seeded ships run the identical fault script under an
  // identical hard outage isolating dc-1 over [3600 s, 4500 s]. Ship B
  // additionally wedges DC 0 at 3600 s; the supervisor notices the frozen
  // progress tick (wedge_timeout 300 s -> fires at 3900 s), unwedges the DC
  // in place and catches it up through the recorded step grid. The
  // outage covers the wedge through recovery, so both runs drop exactly the
  // same datagrams — any divergence in the operator view could only come
  // from the recovery itself.
  ShipSystem unwedged(wedge_test_config());
  ShipSystem wedged(wedge_test_config());
  wedge_test_script(unwedged);
  wedge_test_script(wedged);

  // A pre-wedge runtime reconfiguration: it must still govern the
  // recovered DC after the restart.
  unwedged.run_until(SimTime::from_seconds(1800));
  wedged.run_until(SimTime::from_seconds(1800));
  const std::uint64_t rev_a = unwedged.command_dc(
      0, {{"validator.spike_sigmas", 7.0}, {"dc.report_hysteresis", 0.08}},
      "pre-wedge tuning");
  const std::uint64_t rev_b = wedged.command_dc(
      0, {{"validator.spike_sigmas", 7.0}, {"dc.report_hysteresis", 0.08}},
      "pre-wedge tuning");
  ASSERT_EQ(rev_a, rev_b);

  unwedged.run_until(SimTime::from_seconds(3600));
  wedged.run_until(SimTime::from_seconds(3600));
  ASSERT_EQ(wedged.concentrator(0).config_revision(), rev_b);
  const std::uint64_t progress_before = wedged.concentrator(0).progress();
  wedged.wedge_dc(0);

  unwedged.run_until(SimTime::from_hours(2.5));
  wedged.run_until(SimTime::from_hours(2.5));

  // The supervisor fired exactly once, and only on ship B.
  EXPECT_EQ(wedged.supervisor().stats().wedges_detected, 1u);
  EXPECT_EQ(wedged.supervisor().stats().restarts, 1u);
  EXPECT_EQ(unwedged.supervisor().stats().restarts, 0u);
  EXPECT_FALSE(wedged.concentrator(0).wedged());
  EXPECT_GT(wedged.concentrator(0).progress(), progress_before);

  // The acceptance property: byte-identical OOSM/browser output.
  EXPECT_EQ(browser_fingerprint(unwedged), browser_fingerprint(wedged));

  // And identical fused-pipeline accounting underneath it.
  const auto sa = unwedged.pdme().snapshot();
  const auto sb = wedged.pdme().snapshot();
  EXPECT_EQ(sa.reports_accepted, sb.reports_accepted);
  EXPECT_EQ(sa.envelopes_accepted, sb.envelopes_accepted);
  EXPECT_EQ(sa.heartbeats_received, sb.heartbeats_received);

  // The runtime config survived the restart, values intact.
  EXPECT_EQ(wedged.concentrator(0).config_revision(), rev_b);
  EXPECT_EQ(wedged.concentrator(0).runtime_setting("validator.spike_sigmas"),
            7.0);
  EXPECT_EQ(wedged.concentrator(0).runtime_setting("dc.report_hysteresis"),
            0.08);
}

TEST(SupervisorRecoveryTest, WedgeAfterOffGridPeriodRetuneMatchesUnwedgedRun) {
  // The seed, fault script, outage and wedge of the test above, but a
  // runtime retune of DC 0's vibration period at 1260 s moves its later
  // tests off the k * period grid: a retune takes effect at the next
  // reschedule, so they fall at 1800 + k * 700 s. The restart must keep
  // that grid, not re-anchor on k * 700 s.
  ShipSystem unwedged(wedge_test_config());
  ShipSystem wedged(wedge_test_config());
  wedge_test_script(unwedged);
  wedge_test_script(wedged);

  unwedged.run_until(SimTime::from_seconds(1260));
  wedged.run_until(SimTime::from_seconds(1260));
  unwedged.command_dc(0, {{"dc.vibration_period_s", 700.0}},
                      "off-grid retune");
  wedged.command_dc(0, {{"dc.vibration_period_s", 700.0}}, "off-grid retune");

  unwedged.run_until(SimTime::from_seconds(3600));
  wedged.run_until(SimTime::from_seconds(3600));
  ASSERT_EQ(wedged.concentrator(0).runtime_setting("dc.vibration_period_s"),
            700.0);
  wedged.wedge_dc(0);

  unwedged.run_until(SimTime::from_hours(2.5));
  wedged.run_until(SimTime::from_hours(2.5));
  EXPECT_EQ(wedged.supervisor().stats().restarts, 1u);

  EXPECT_EQ(wedged.concentrator(0).stats().vibration_tests,
            unwedged.concentrator(0).stats().vibration_tests);
  EXPECT_EQ(browser_fingerprint(unwedged), browser_fingerprint(wedged));
  for (std::size_t p = 0; p < unwedged.plant_count(); ++p) {
    const oosm::ChillerPlant& objs = unwedged.plant_objects(p);
    for (const ObjectId machine : {objs.chiller, objs.gearbox,
                                   objs.compressor}) {
      EXPECT_EQ(pdme::render_machine(unwedged.pdme(), unwedged.model(),
                                     machine),
                pdme::render_machine(wedged.pdme(), wedged.model(), machine));
    }
  }
}

TEST(ShipSystemTest, ConfigUpdatesDrainWithoutDurability) {
  // A ship without durability mirrors no config, but its barrier still
  // drains every DC's queue, so applied settings do not pile up.
  ShipSystem ship(small_config());
  ship.run_until(SimTime::from_seconds(120));
  const std::uint64_t rev =
      ship.command_dc(0, {{"dc.report_hysteresis", 0.08}}, "tune");
  ship.run_until(SimTime::from_seconds(180));
  ASSERT_EQ(ship.concentrator(0).config_revision(), rev);
  EXPECT_TRUE(ship.concentrator(0).drain_config_updates().empty());
}

// --- Golden output digest ------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, const std::string& text) {
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Runs a seeded two-plant ship with two scheduled faults and digests what
/// an operator and a test can see of it: the browser summary, the ICAS
/// export and every PDME counter. `renders` receives a second digest over
/// the per-machine browser page of every plant machine and the MIMOSA
/// export, the two outputs that read the PDME's report history.
std::uint64_t golden_digest(bool auto_retest, std::uint64_t* retests,
                            std::uint64_t* renders) {
  ShipSystemConfig cfg = small_config();
  cfg.seed = 0x601DE7;
  cfg.pdme.auto_retest = auto_retest;
  ShipSystem ship(cfg);
  ship.chiller(0).faults().schedule({FailureMode::MotorImbalance,
                                     SimTime::from_seconds(900), SimTime(0),
                                     0.95, plant::GrowthProfile::Step});
  ship.chiller(1).faults().schedule({FailureMode::RefrigerantLeak,
                                     SimTime::from_seconds(2400),
                                     SimTime::from_hours(1.0), 0.9,
                                     plant::GrowthProfile::Linear});
  ship.run_until(SimTime::from_hours(4.0));

  const auto s = ship.pdme().snapshot();
  *retests = s.retests_commanded;
  const std::uint64_t counters[] = {
      s.reports_accepted,     s.duplicates_dropped,  s.malformed_dropped,
      s.fusion_updates,       s.sensor_batches,      s.retests_commanded,
      s.envelopes_accepted,   s.duplicate_envelopes, s.batches_received,
      s.batched_reports,      s.acks_sent,           s.gaps_detected,
      s.heartbeats_received,  s.sensor_fault_reports, s.liveness_transitions,
      s.commands_sent,        s.command_acks};
  std::string text = pdme::render_summary(ship.pdme(), ship.model());
  text += pdme::export_icas_csv(ship.pdme(), ship.model());
  for (const std::uint64_t c : counters) text += std::to_string(c) + ';';

  std::string pages;
  for (std::size_t p = 0; p < ship.plant_count(); ++p) {
    const oosm::ChillerPlant& plant = ship.plant_objects(p);
    for (const ObjectId machine :
         {plant.chiller, plant.motor, plant.gearbox, plant.compressor,
          plant.evaporator, plant.condenser, plant.chw_pump, plant.cw_pump}) {
      pages += pdme::render_machine(ship.pdme(), ship.model(), machine);
    }
  }
  pages += pdme::export_mimosa(ship.pdme(), ship.model());
  *renders = fnv1a(0xcbf29ce484222325ULL, pages);
  return fnv1a(0xcbf29ce484222325ULL, text);
}

TEST(GoldenDigestTest, SeededShipOutputPinned) {
  // Pins the operator-visible output of the ingest path, with and without
  // adaptive retests, so a refactor of the PDME cannot drift it silently.
  // Recorded on x86-64 with GCC 12 and glibc 2.36. The normal and uniform
  // streams are defined in common/rng.hpp, so only libm moves the plant's
  // data: a libm whose sin, or whose log or sqrt in the polar draw, return
  // other bits moves it too. The network's drop and duplicate draws still
  // go through std::bernoulli_distribution.
  // The render digests cover the machine pages and the MIMOSA export,
  // which read the report history that the summary and ICAS do not.
  std::uint64_t retests = 0;
  std::uint64_t renders = 0;
  EXPECT_EQ(golden_digest(/*auto_retest=*/false, &retests, &renders),
            0xAAF814C0486999B3ULL);
  EXPECT_EQ(retests, 0u);
  EXPECT_EQ(renders, 0x01647082B8454C5FULL);
  EXPECT_EQ(golden_digest(/*auto_retest=*/true, &retests, &renders),
            0x09129C044D433782ULL);
  EXPECT_GT(retests, 0u);
  EXPECT_EQ(renders, 0x01647082B8454C5FULL);
}

}  // namespace
}  // namespace mpros
