// Shore-side fleet tier tests: FleetServer fusion, liveness, the
// comparative baseline, disorder-equivalence of the published view, and
// the assembled two-tier FleetSim.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "mpros/common/rng.hpp"
#include "mpros/fleet/fleet_server.hpp"
#include "mpros/fleet/fleet_sim.hpp"
#include "mpros/net/fleet_summary.hpp"
#include "mpros/pdme/browser.hpp"

namespace mpros::fleet {
namespace {

using domain::FailureMode;

/// A deterministic summary for hull `ship` at cadence step `seq`: two
/// machines whose health decays with the step, so later summaries always
/// differ from earlier ones.
net::FleetSummary make_summary(std::uint64_t ship, std::uint64_t seq) {
  net::FleetSummary s;
  s.ship = ShipId(ship);
  s.ship_name = "Hull-" + std::to_string(ship);
  s.timestamp = SimTime::from_seconds(600.0 * static_cast<double>(seq));
  s.dcs_alive = 2;
  s.quarantine_active = static_cast<std::uint32_t>(ship % 2);
  s.quarantine_total = seq;

  net::MachineHealthSummary motor;
  motor.machine = ObjectId(ship * 100 + 1);
  motor.name = "Motor " + std::to_string(ship);
  motor.klass = "motor";
  motor.health = 1.0 - 0.01 * static_cast<double>(ship + seq);
  motor.has_diagnosis = true;
  motor.top_mode = FailureMode::MotorImbalance;
  motor.top_belief = 0.5 + 0.01 * static_cast<double>(seq);
  motor.top_severity = 0.4;
  motor.priority = motor.top_belief * motor.top_severity;
  motor.report_count = static_cast<std::uint32_t>(seq);
  s.machines.push_back(motor);

  net::MachineHealthSummary pump;
  pump.machine = ObjectId(ship * 100 + 2);
  pump.name = "Pump " + std::to_string(ship);
  pump.klass = "pump";
  pump.health = 0.99;
  s.machines.push_back(pump);
  return s;
}

net::FleetSummaryEnvelope make_envelope(std::uint64_t ship,
                                        std::uint64_t seq) {
  net::FleetSummaryEnvelope env;
  env.ship = ShipId(ship);
  env.sequence = seq;
  env.summary = make_summary(ship, seq);
  return env;
}

TEST(FleetServerTest, WatchdogDegradesSilentShipsAndRecovers) {
  FleetServerConfig cfg;
  cfg.summary_interval = SimTime::from_seconds(600);
  cfg.stale_after_missed = 2;
  cfg.lost_after_missed = 4;
  FleetServer server(cfg);
  server.expect_ship(ShipId(1), "Hull-1", SimTime(0));
  server.expect_ship(ShipId(2), "Hull-2", SimTime(0));

  (void)server.accept(make_envelope(1, 1), SimTime::from_seconds(600));
  (void)server.accept(make_envelope(2, 1), SimTime::from_seconds(600));
  server.publish(SimTime::from_seconds(700));
  EXPECT_EQ(server.ship_liveness(ShipId(1)), ShipLiveness::Alive);

  // Hull 2 goes silent: two missed intervals -> Stale, four -> Lost.
  (void)server.accept(make_envelope(1, 2), SimTime::from_seconds(1800));
  server.publish(SimTime::from_seconds(600 + 2 * 600 + 1));
  EXPECT_EQ(server.ship_liveness(ShipId(1)), ShipLiveness::Alive);
  EXPECT_EQ(server.ship_liveness(ShipId(2)), ShipLiveness::Stale);

  server.publish(SimTime::from_seconds(600 + 4 * 600 + 1));
  EXPECT_EQ(server.ship_liveness(ShipId(2)), ShipLiveness::Lost);
  {
    // By now hull 1 (last heard 1800 s) has itself slipped to Stale — the
    // watchdog judges every hull by the same clock.
    const auto snap = server.snapshot();
    EXPECT_EQ(snap->ships_stale, 1u);
    EXPECT_EQ(snap->ships_lost, 1u);
  }

  // Any datagram restores Alive — here a heartbeat, not a summary.
  net::HeartbeatMessage hb;
  hb.dc = DcId(2);
  hb.timestamp = SimTime::from_seconds(3300);
  hb.last_sequence = 1;
  server.accept(hb, SimTime::from_seconds(3300));
  EXPECT_EQ(server.ship_liveness(ShipId(2)), ShipLiveness::Alive);
  EXPECT_GE(server.stats_snapshot().liveness_transitions, 3u);
}

TEST(FleetServerTest, LatestSequenceWinsAndDuplicatesReAck) {
  FleetServer server;
  const SimTime t = SimTime::from_seconds(100);

  net::AckMessage ack = server.accept(make_envelope(1, 2), t);
  EXPECT_EQ(ack.cumulative, 0u);  // gap: sequence 1 still missing

  // An older sequence arrives late: it heals the stream (cumulative
  // advances) but must not regress the applied view.
  ack = server.accept(make_envelope(1, 1), t);
  EXPECT_EQ(ack.cumulative, 2u);
  {
    const auto stats = server.stats_snapshot();
    EXPECT_EQ(stats.summaries_applied, 1u);
    EXPECT_EQ(stats.summaries_stale, 1u);
    EXPECT_EQ(stats.gaps_detected, 1u);
  }
  server.publish(t);
  ASSERT_EQ(server.snapshot()->ships.size(), 1u);
  EXPECT_EQ(server.snapshot()->ships[0].last_sequence, 2u);

  // A retransmitted duplicate is dropped but still re-acked.
  ack = server.accept(make_envelope(1, 2), t);
  EXPECT_EQ(ack.cumulative, 2u);
  EXPECT_EQ(server.stats_snapshot().duplicates_dropped, 1u);
  EXPECT_EQ(server.cumulative(ShipId(1)), 2u);
}

TEST(FleetServerTest, ComparativeBaselineFlagsTheSickSister) {
  FleetServerConfig cfg;
  cfg.min_fleet = 3;
  FleetServer server(cfg);
  // Five hulls, one motor each; hull 3's motor is markedly sicker than the
  // class. No single hull could see that — the fleet baseline can.
  for (std::uint64_t ship = 1; ship <= 5; ++ship) {
    net::FleetSummary s;
    s.ship = ShipId(ship);
    s.ship_name = "Hull-" + std::to_string(ship);
    s.timestamp = SimTime::from_seconds(600);
    net::MachineHealthSummary m;
    m.machine = ObjectId(ship * 100 + 1);
    m.name = "Motor " + std::to_string(ship);
    m.klass = "motor";
    m.health = ship == 3 ? 0.42 : 0.95;
    s.machines.push_back(m);
    (void)server.accept(net::FleetSummaryEnvelope{ShipId(ship), 1, s},
                        SimTime::from_seconds(600));
  }
  server.publish(SimTime::from_seconds(700));
  const auto snap = server.snapshot();

  ASSERT_EQ(snap->outliers.size(), 1u);
  EXPECT_EQ(snap->outliers[0].ship.value(), 3u);
  EXPECT_EQ(snap->outliers[0].klass, "motor");
  EXPECT_LT(snap->outliers[0].robust_z, -3.0);
  EXPECT_NEAR(snap->outliers[0].fleet_median, 0.95, 1e-9);

  // The hull-level baseline flags the same ship as the divergent hull.
  const auto row = std::find_if(
      snap->ships.begin(), snap->ships.end(),
      [](const ShipStatus& s) { return s.ship.value() == 3; });
  ASSERT_NE(row, snap->ships.end());
  EXPECT_TRUE(row->outlier_hull);
  EXPECT_LT(row->fleet_z, 0.0);

  // The sick machine leads the cross-fleet maintenance view.
  ASSERT_FALSE(snap->items.empty());
  const auto& worst = *std::min_element(
      snap->items.begin(), snap->items.end(),
      [](const auto& a, const auto& b) { return a.health < b.health; });
  EXPECT_TRUE(worst.fleet_outlier);
  EXPECT_EQ(worst.ship.value(), 3u);
}

TEST(FleetServerTest, SmallClassesAreNeverCompared) {
  FleetServerConfig cfg;
  cfg.min_fleet = 3;
  FleetServer server(cfg);
  // Two hulls only: even a dramatic health gap must not produce an outlier
  // (a two-sample median comparison is noise, not a diagnosis).
  for (std::uint64_t ship = 1; ship <= 2; ++ship) {
    net::FleetSummary s;
    s.ship = ShipId(ship);
    s.timestamp = SimTime::from_seconds(600);
    net::MachineHealthSummary m;
    m.machine = ObjectId(ship);
    m.name = "Motor";
    m.klass = "motor";
    m.health = ship == 1 ? 0.2 : 1.0;
    s.machines.push_back(m);
    (void)server.accept(net::FleetSummaryEnvelope{ShipId(ship), 1, s},
                        SimTime::from_seconds(600));
  }
  server.publish(SimTime::from_seconds(700));
  EXPECT_TRUE(server.snapshot()->outliers.empty());
}

TEST(FleetServerTest, PublishedSnapshotsAreImmutable) {
  FleetServer server;
  (void)server.accept(make_envelope(1, 1), SimTime::from_seconds(10));
  server.publish(SimTime::from_seconds(10));
  const auto before = server.snapshot();
  const std::string rendered_before = FleetServer::render(*before);

  // New ingest and a new epoch must not disturb a held snapshot.
  (void)server.accept(make_envelope(1, 2), SimTime::from_seconds(20));
  (void)server.accept(make_envelope(2, 1), SimTime::from_seconds(20));
  server.publish(SimTime::from_seconds(20));

  EXPECT_EQ(FleetServer::render(*before), rendered_before);
  const auto after = server.snapshot();
  EXPECT_GT(after->epoch, before->epoch);
  EXPECT_EQ(after->ships.size(), 2u);
  EXPECT_EQ(before->ships.size(), 1u);
}

// ---------------------------------------------------------------------------
// Disorder equivalence: the rendered fleet view must be byte-identical
// whether the same summary set arrives in order, shuffled, duplicated, or
// through scripted outage windows with retransmissions (E9, one tier up).

constexpr std::uint64_t kShips = 4;
constexpr std::uint64_t kSeqs = 5;

std::vector<net::FleetSummaryEnvelope> scripted_set() {
  std::vector<net::FleetSummaryEnvelope> envs;
  for (std::uint64_t ship = 1; ship <= kShips; ++ship) {
    for (std::uint64_t seq = 1; seq <= kSeqs; ++seq) {
      envs.push_back(make_envelope(ship, seq));
    }
  }
  return envs;
}

/// Feed `envs` in the given order (arrival slot i at T0 + i seconds) and
/// return the rendered view at the common evaluation time.
std::string render_after(const std::vector<net::FleetSummaryEnvelope>& envs) {
  FleetServer server;
  for (std::uint64_t ship = 1; ship <= kShips; ++ship) {
    server.expect_ship(ShipId(ship), "Hull-" + std::to_string(ship),
                       SimTime::from_seconds(1000));
  }
  SimTime at = SimTime::from_seconds(1000);
  for (const auto& env : envs) {
    (void)server.accept(env, at);
    at += SimTime::from_seconds(1);
  }
  server.publish(SimTime::from_seconds(1200));
  return server.render_fleet_view();
}

class FleetDisorderTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FleetDisorderTest, RenderedViewIsArrivalOrderIndependent) {
  const auto baseline = render_after(scripted_set());

  // Seeded shuffle.
  auto shuffled = scripted_set();
  Rng rng(GetParam());
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1],
              shuffled[static_cast<std::size_t>(rng.integer(0, i - 1))]);
  }
  EXPECT_EQ(render_after(shuffled), baseline) << "shuffle diverged";

  // Every envelope delivered twice (retransmission storm).
  std::vector<net::FleetSummaryEnvelope> doubled;
  for (const auto& env : shuffled) {
    doubled.push_back(env);
    doubled.push_back(env);
  }
  EXPECT_EQ(render_after(doubled), baseline) << "duplication diverged";
}

TEST_P(FleetDisorderTest, ScriptedOutageWindowsConvergeToSameView) {
  const auto baseline = render_after(scripted_set());

  // Same set through a real SimNetwork: jitter reorders, an outage window
  // eats the first transmission wave, and a blind re-send (the sender's
  // retransmission pass) delivers the survivors' duplicates.
  net::NetworkConfig net_cfg;
  net_cfg.seed = GetParam();
  net::SimNetwork shore(net_cfg);
  shore.schedule_outage({"fleet", SimTime::from_seconds(1000),
                         SimTime::from_seconds(1012), 1.0});

  FleetServer server;
  for (std::uint64_t ship = 1; ship <= kShips; ++ship) {
    server.expect_ship(ShipId(ship), "Hull-" + std::to_string(ship),
                       SimTime::from_seconds(1000));
  }
  server.attach_to_network(shore, "fleet");

  const auto envs = scripted_set();
  SimTime at = SimTime::from_seconds(1000);
  for (const auto& env : envs) {
    shore.send("hull-" + std::to_string(env.ship.value()), "fleet",
               net::wrap(env), at);
    at += SimTime::from_seconds(1);
  }
  // Retransmission pass after the window closes: everything again.
  at = SimTime::from_seconds(1050);
  for (const auto& env : envs) {
    shore.send("hull-" + std::to_string(env.ship.value()), "fleet",
               net::wrap(env), at);
    at += SimTime::from_seconds(1);
  }
  shore.advance_to(SimTime::from_seconds(1199));
  server.publish(SimTime::from_seconds(1200));

  EXPECT_EQ(server.render_fleet_view(), baseline);
  EXPECT_EQ(server.stats_snapshot().malformed_dropped, 0u);
  EXPECT_GT(server.stats_snapshot().duplicates_dropped, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FleetDisorderTest,
                         ::testing::Values(0xA1u, 0xB2u, 0xC3u, 0xD4u,
                                           0xE5u));

// ---------------------------------------------------------------------------
// Wait-free reads: readers hammer snapshot() while one ingest thread
// applies summaries and publishes. TSan-clean by construction (readers
// share nothing with ingest but the atomic pointer).

TEST(FleetServerConcurrencyTest, ReadersNeverBlockOrTearDuringIngest) {
  FleetServer server;
  std::atomic<bool> done{false};

  std::vector<std::thread> readers;
  std::atomic<std::uint64_t> reads{0};
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_epoch = 0;
      std::shared_ptr<const FleetSnapshot> pinned = server.snapshot();
      while (!done.load(std::memory_order_relaxed)) {
        // The epoch gate is stored after the snapshot: once a reader sees
        // epoch E it must be able to load a snapshot at least that new.
        const std::uint64_t gate = server.published_epoch();
        const auto snap = server.snapshot();
        ASSERT_NE(snap, nullptr);
        ASSERT_GE(snap->epoch, gate);
        // Epochs only move forward, and a snapshot is always internally
        // consistent: the liveness tallies match the rows.
        ASSERT_GE(snap->epoch, last_epoch);
        last_epoch = snap->epoch;
        ASSERT_EQ(snap->ships_alive + snap->ships_stale + snap->ships_lost,
                  snap->ships.size());
        // The hot-path refresh idiom never regresses the pinned view.
        const std::uint64_t pinned_before = pinned->epoch;
        server.refresh(pinned);
        ASSERT_GE(pinned->epoch, pinned_before);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (std::uint64_t seq = 1; seq <= 200; ++seq) {
    const SimTime at = SimTime::from_seconds(static_cast<double>(seq));
    for (std::uint64_t ship = 1; ship <= 8; ++ship) {
      (void)server.accept(make_envelope(ship, seq), at);
    }
    server.publish(at);
  }
  // A loaded CI host can finish the whole 200-epoch burst before the reader
  // threads are first scheduled; hold the final state open until each
  // reader has sampled it at least once so the assertions actually ran.
  while (reads.load(std::memory_order_relaxed) <
         static_cast<std::uint64_t>(readers.size())) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(server.snapshot()->epoch, 200u);
}

// ---------------------------------------------------------------------------
// Chaos smoke: synthetic hull uplinks (real ReliableSenders) through a
// lossy shore link. CI cranks the knobs via MPROS_CHAOS_* without a
// rebuild; MPROS_CHAOS_SHIPS sets the fleet size.

TEST(FleetChaosSmokeTest, LossyUplinksConvergeUnderEnvironmentKnobs) {
  const char* ships_env = std::getenv("MPROS_CHAOS_SHIPS");
  const char* drop = std::getenv("MPROS_CHAOS_DROP");
  const char* dup = std::getenv("MPROS_CHAOS_DUP");
  const char* seed = std::getenv("MPROS_CHAOS_SEED");
  const std::uint64_t ship_count =
      ships_env ? std::strtoull(ships_env, nullptr, 0) : 8;

  net::NetworkConfig net_cfg;
  net_cfg.drop_probability = drop ? std::atof(drop) : 0.15;
  net_cfg.duplicate_probability = dup ? std::atof(dup) : 0.05;
  net_cfg.jitter = SimTime::from_seconds(2.0);
  net_cfg.seed = seed ? std::strtoull(seed, nullptr, 0) : 0xF1EE7;
  net::SimNetwork shore(net_cfg);

  FleetServer server;
  server.attach_to_network(shore, "fleet");

  // One reliable uplink per hull; acks come back to "hull-<k>". The RTO is
  // tightened so recovery fits the simulated window.
  net::ReliableConfig rel;
  rel.initial_rto = SimTime::from_seconds(30.0);
  rel.max_rto = SimTime::from_seconds(240.0);
  std::vector<std::unique_ptr<net::ReliableSender>> uplinks;
  for (std::uint64_t k = 1; k <= ship_count; ++k) {
    server.expect_ship(ShipId(k), "Hull-" + std::to_string(k), SimTime(0));
    uplinks.push_back(std::make_unique<net::ReliableSender>(DcId(k), rel));
    net::ReliableSender* sender = uplinks.back().get();
    shore.register_endpoint(
        "hull-" + std::to_string(k), [sender](const net::Message& msg) {
          const auto ack = net::try_unwrap_ack(msg.payload);
          if (ack.has_value()) sender->on_ack(*ack);
        });
  }

  const SimTime step = SimTime::from_seconds(60);
  const SimTime summary_period = SimTime::from_seconds(600);
  const SimTime end = SimTime::from_hours(4.0);
  SimTime next_summary = summary_period;
  for (SimTime now = step; now <= end; now += step) {
    if (now >= next_summary) {
      const std::uint64_t seq = static_cast<std::uint64_t>(
          next_summary.micros() / summary_period.micros());
      for (std::uint64_t k = 1; k <= ship_count; ++k) {
        shore.send("hull-" + std::to_string(k), "fleet",
                   uplinks[k - 1]->envelope(make_summary(k, seq), now), now);
      }
      next_summary += summary_period;
    }
    for (std::uint64_t k = 1; k <= ship_count; ++k) {
      for (auto& payload : uplinks[k - 1]->due_retransmits(now)) {
        shore.send("hull-" + std::to_string(k), "fleet", std::move(payload),
                   now);
      }
      const net::HeartbeatMessage hb{DcId(k), now,
                                     uplinks[k - 1]->last_sequence()};
      shore.send("hull-" + std::to_string(k), "fleet", net::wrap(hb), now);
    }
    shore.advance_to(now);
    server.publish(now);
  }

  // Despite the weather, every hull's stream must have converged: all
  // summaries applied (or superseded), nothing malformed, everyone Alive.
  const auto snap = server.snapshot();
  EXPECT_EQ(snap->ships.size(), ship_count);
  EXPECT_EQ(snap->ships_alive, ship_count);
  const std::uint64_t last_seq = 23;  // 4 h / 600 s, minus the tail step
  for (const auto& row : snap->ships) {
    EXPECT_TRUE(row.has_summary);
    EXPECT_GE(row.last_sequence, last_seq);
  }
  EXPECT_EQ(server.stats_snapshot().malformed_dropped, 0u);
  for (const auto& uplink : uplinks) {
    EXPECT_EQ(uplink->snapshot().overflow_dropped, 0u);
  }
}

// ---------------------------------------------------------------------------
// The assembled two-tier system: real ShipSystems uplinking to shore.

TEST(FleetSimTest, SeededFaultSurfacesInTheShoreView) {
  FleetSimConfig cfg;
  cfg.ship_count = 3;
  cfg.ship_template.plant_count = 1;
  cfg.ship_template.dc_template.vibration_period = SimTime::from_seconds(600);
  cfg.ship_template.dc_template.process_period = SimTime::from_seconds(60);
  FleetSim fleet(cfg);

  // Hull 1's motor develops an imbalance; hulls 2 and 3 stay healthy.
  fleet.ship(0).chiller(0).faults().schedule(
      {FailureMode::MotorImbalance, SimTime(0), SimTime(0), 0.9,
       plant::GrowthProfile::Step});
  fleet.run_until(SimTime::from_hours(2.0));

  const auto snap = fleet.server().snapshot();
  EXPECT_EQ(snap->ships.size(), 3u);
  EXPECT_EQ(snap->ships_alive, 3u);
  for (const auto& row : snap->ships) {
    EXPECT_TRUE(row.has_summary);
    EXPECT_GE(row.last_sequence, 10u);  // 2 h at a 600 s cadence
  }

  // The sick motor shows up as the worst cross-fleet maintenance item,
  // attributed to hull 1.
  ASSERT_FALSE(snap->items.empty());
  const auto& top = snap->items.front();
  EXPECT_EQ(top.ship.value(), 1u);
  EXPECT_TRUE(top.has_diagnosis);
  EXPECT_EQ(top.mode, FailureMode::MotorImbalance);
  EXPECT_LT(top.health, 1.0);

  // And the comparative baseline singles the hull out against its sisters.
  const auto& server_stats = fleet.server().stats_snapshot();
  EXPECT_GT(server_stats.summaries_applied, 3u * 10u);
  EXPECT_EQ(server_stats.malformed_dropped, 0u);

  const std::string view = fleet.server().render_fleet_view();
  EXPECT_NE(view.find("Hull-01"), std::string::npos);
  EXPECT_NE(view.find("MotorImbalance"), std::string::npos);
}

TEST(FleetSimTest, InlineHullsMatchPooledHulls) {
  // A one-worker hull runs its DCs on the driver thread; a two-worker hull
  // forks them onto its pool. The schedule must not leak into the output.
  const auto run = [](std::size_t workers) {
    FleetSimConfig cfg;
    cfg.ship_count = 3;
    cfg.seed = 0xB17E;
    cfg.ship_template.plant_count = 2;
    cfg.ship_template.worker_threads = workers;
    cfg.ship_template.dc_template.vibration_period =
        SimTime::from_seconds(600);
    cfg.ship_template.dc_template.process_period = SimTime::from_seconds(60);
    cfg.shore.drop_probability = 0.05;
    FleetSim fleet(cfg);
    fleet.ship(1).chiller(0).faults().schedule(
        {FailureMode::MotorImbalance, SimTime::from_seconds(600),
         SimTime::from_hours(1.5), 0.9, plant::GrowthProfile::Linear});
    fleet.run_until(SimTime::from_hours(2.0));
    std::vector<std::string> out{fleet.server().render_fleet_view()};
    for (std::size_t k = 0; k < fleet.ship_count(); ++k) {
      ShipSystem& ship = fleet.ship(k);
      out.push_back(pdme::export_icas_csv(ship.pdme(), ship.model()));
    }
    return out;
  };
  const std::vector<std::string> inline_run = run(1);
  const std::vector<std::string> pooled_run = run(2);
  ASSERT_EQ(inline_run.size(), 4u);
  EXPECT_NE(inline_run[0].find("MotorImbalance"), std::string::npos);
  EXPECT_NE(inline_run[2].find(
                domain::condition_text(FailureMode::MotorImbalance)),
            std::string::npos);
  for (std::size_t i = 0; i < inline_run.size(); ++i) {
    EXPECT_EQ(inline_run[i], pooled_run[i]) << "output " << i;
  }
}

TEST(FleetSimTest, UplinkSurvivesShoreLinkOutage) {
  FleetSimConfig cfg;
  cfg.ship_count = 2;
  cfg.ship_template.plant_count = 1;
  cfg.ship_template.uplink.reliable.initial_rto = SimTime::from_seconds(120);
  FleetSim fleet(cfg);

  // The shore link partitions hard for 45 minutes; only retransmission can
  // get the quarantined summaries through afterwards.
  fleet.shore().schedule_outage({"fleet", SimTime::from_seconds(500),
                                 SimTime::from_seconds(3200), 1.0});
  fleet.run_until(SimTime::from_hours(2.0));

  const auto snap = fleet.server().snapshot();
  EXPECT_EQ(snap->ships_alive, 2u);
  for (const auto& row : snap->ships) {
    EXPECT_TRUE(row.has_summary);
    EXPECT_GE(row.last_sequence, 10u);
  }
  EXPECT_GT(fleet.ship(0).uplink()->snapshot().retransmits, 0u);
  EXPECT_EQ(fleet.server().stats_snapshot().malformed_dropped, 0u);
}

TEST(FleetSimTest, ShoreDownlinkReconfiguresOneHullsDc) {
  // The shore operator fires a control-plane command at hull 1: it crosses
  // the shore link fire-and-forget, the hull re-issues it on its shipboard
  // PDME->DC reliable stream (which owns the acks and revision stamping),
  // and the target DC applies and persists it. Sister hulls are untouched.
  FleetSimConfig cfg;
  cfg.ship_count = 2;
  cfg.ship_template.plant_count = 1;
  cfg.shore.drop_probability = 0.0;
  cfg.shore.duplicate_probability = 0.0;
  FleetSim fleet(cfg);

  // Let a few summary cadences elapse so the server has learned hull 1's
  // real shore endpoint from its traffic.
  fleet.run_until(SimTime::from_seconds(1500));
  ASSERT_GT(fleet.server().stats_snapshot().summaries_applied, 0u);

  net::CommandMessage cmd;
  cmd.target = DcId(1);
  cmd.settings = {{"dc.report_hysteresis", 0.07},
                  {"validator.spike_sigmas", 6.5}};
  cmd.reason = "shore ops: tighten hull 1 screening";
  ASSERT_TRUE(fleet.server().send_command(ShipId(1), cmd, fleet.now()));
  EXPECT_EQ(fleet.server().stats_snapshot().commands_sent, 1u);

  fleet.run_until(SimTime::from_seconds(2400));

  auto& dc = fleet.ship(0).concentrator(0);
  EXPECT_GE(dc.config_revision(), 1u);
  EXPECT_EQ(dc.runtime_setting("dc.report_hysteresis"), 0.07);
  EXPECT_EQ(dc.runtime_setting("validator.spike_sigmas"), 6.5);
  EXPECT_GT(fleet.ship(0).pdme().snapshot().commands_sent, 0u);
  EXPECT_GT(fleet.ship(0).pdme().snapshot().command_acks, 0u);

  // The sister hull never saw the command: still at factory defaults.
  auto& other = fleet.ship(1).concentrator(0);
  EXPECT_EQ(other.config_revision(), 0u);
  EXPECT_NE(other.runtime_setting("dc.report_hysteresis"), 0.07);
  EXPECT_EQ(fleet.ship(1).pdme().snapshot().commands_sent, 0u);
}

}  // namespace
}  // namespace mpros::fleet
