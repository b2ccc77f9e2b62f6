// Contract enforcement (death tests) and concurrency stress.
//
// The always-on MPROS_EXPECTS/ASSERT contracts abort on violation; these
// tests pin the contracts a user is most likely to trip, then hammer the
// thread-safe components from multiple threads.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "mpros/common/clock.hpp"
#include "mpros/common/thread_pool.hpp"
#include "mpros/db/table.hpp"
#include "mpros/dc/data_concentrator.hpp"
#include "mpros/dsp/fft.hpp"
#include "mpros/fusion/dempster_shafer.hpp"
#include "mpros/net/network.hpp"
#include "mpros/oosm/object_model.hpp"
#include "mpros/sbfr/interpreter.hpp"
#include "mpros/sbfr/library.hpp"

namespace mpros {
namespace {

using ContractsDeathTest = ::testing::Test;

TEST(ContractsDeathTest, ClockCannotRunBackwards) {
  SimClock clock;
  clock.advance(SimTime::from_seconds(10));
  EXPECT_DEATH(clock.advance_to(SimTime::from_seconds(5)), "precondition");
  EXPECT_DEATH(clock.advance(SimTime(-1)), "precondition");
}

TEST(ContractsDeathTest, FftPlanRequiresPowerOfTwo) {
  EXPECT_DEATH(dsp::FftPlan(100), "precondition");
  EXPECT_DEATH(dsp::FftPlan(1), "precondition");
}

TEST(ContractsDeathTest, NextPowerOfTwoRejectsUnrepresentableResult) {
  // Above 2^63 no power of two fits in a size_t; a doubling loop would
  // wrap to 0 and spin forever.
  constexpr std::size_t kTop = std::size_t{1} << 63;
  EXPECT_DEATH((void)dsp::next_power_of_two(kTop + 1), "precondition");
  EXPECT_DEATH((void)dsp::next_power_of_two(~std::size_t{0}), "precondition");
}

TEST(ContractsDeathTest, FftPlanRejectsWrongBufferSize) {
  dsp::FftPlan plan(64);
  std::vector<dsp::Complex> wrong(32);
  EXPECT_DEATH(plan.forward(wrong), "precondition");
}

TEST(ContractsDeathTest, TableRejectsDuplicatePrimaryKey) {
  db::Table t(db::TableSchema{
      "t", {db::ColumnDef{"id", db::ValueType::Integer, false}}});
  t.insert({db::Value(std::int64_t{1})});
  EXPECT_DEATH(t.insert({db::Value(std::int64_t{1})}), "precondition");
}

TEST(ContractsDeathTest, TableRejectsTypeMismatch) {
  db::Table t(db::TableSchema{
      "t",
      {db::ColumnDef{"id", db::ValueType::Integer, false},
       db::ColumnDef{"name", db::ValueType::Text, false}}});
  EXPECT_DEATH(t.insert({db::Value(std::int64_t{1}), db::Value(2.5)}),
               "precondition");
  // NOT NULL enforced.
  EXPECT_DEATH(t.insert({db::Value(std::int64_t{2}), db::Value()}),
               "precondition");
}

TEST(ContractsDeathTest, TableUpdateRejectsTypeMismatchBeforeMutating) {
  db::Table t(db::TableSchema{
      "t",
      {db::ColumnDef{"id", db::ValueType::Integer, false},
       db::ColumnDef{"name", db::ValueType::Text, false}}});
  t.insert({db::Value(std::int64_t{1}), db::Value("ok")});
  // The candidate is validated before the row is unindexed or assigned
  // (see Table::update) — the violation still aborts, but never with the
  // table already inconsistent.
  EXPECT_DEATH(t.update(1, "name", db::Value(2.5)), "precondition");
  EXPECT_DEATH(t.update(1, "name", db::Value()), "precondition");
}

TEST(ContractsDeathTest, FrameLimitedToSixteenHypotheses) {
  std::vector<std::string> names(17, "h");
  EXPECT_DEATH(fusion::FrameOfDiscernment frame(names), "precondition");
}

TEST(ContractsDeathTest, SimpleSupportRejectsForeignHypotheses) {
  const fusion::FrameOfDiscernment frame({"a", "b"});
  EXPECT_DEATH(
      fusion::MassFunction::simple_support(frame, 0b100, 0.5),
      "precondition");
  EXPECT_DEATH(fusion::MassFunction::simple_support(frame, 0, 0.5),
               "precondition");
}

TEST(ContractsDeathTest, CombineRequiresSharedFrame) {
  const fusion::FrameOfDiscernment f1({"a", "b"});
  const fusion::FrameOfDiscernment f2({"a", "b"});
  const auto m1 = fusion::MassFunction::simple_support(f1, 1, 0.5);
  const auto m2 = fusion::MassFunction::simple_support(f2, 1, 0.5);
  EXPECT_DEATH(fusion::combine(m1, m2), "precondition");
}

TEST(ContractsDeathTest, SbfrRejectsMalformedMachine) {
  sbfr::SbfrSystem sys(1);
  sbfr::MachineDef bad("bad", 0, /*initial_state=*/3);
  bad.add_state("only");
  EXPECT_DEATH(sys.add_machine(bad), "precondition");
}

TEST(ContractsDeathTest, SbfrStepRequiresDeclaredChannelCount) {
  sbfr::SbfrSystem sys(2);
  sys.add_machine(sbfr::make_spike_machine());
  const double one_channel[1] = {0.0};
  EXPECT_DEATH(sys.step(one_channel), "precondition");
}

TEST(ContractsDeathTest, LoggedReportTakesNoPropertyOrEdge) {
  oosm::ObjectModel m;
  const ObjectId motor =
      m.create_object("Motor", domain::EquipmentKind::InductionMotor);
  net::FailureReport r;
  r.sensed_object = motor;
  const ObjectId report = m.post_report(r);
  EXPECT_DEATH(m.set_property(report, "acknowledged", std::int64_t{1}),
               "precondition");
  EXPECT_DEATH(m.relate(report, oosm::Relation::KindOf, motor),
               "precondition");
  EXPECT_DEATH(m.relate(motor, oosm::Relation::RefersTo, report),
               "precondition");
}

TEST(ContractsDeathTest, DcRequiresAPositiveHeartbeatPeriod) {
  plant::ChillerSimulator chiller;
  dc::DcConfig cfg;
  cfg.heartbeat_period = SimTime(0);
  const dc::MachineRefs refs{ObjectId(1), ObjectId(2), ObjectId(3),
                             ObjectId(4)};
  EXPECT_DEATH({ dc::DataConcentrator concentrator(cfg, refs, chiller); },
               "precondition");
}

// --- Concurrency stress -------------------------------------------------------

TEST(ConcurrencyStressTest, NetworkSurvivesParallelSenders) {
  net::NetworkConfig cfg;
  cfg.duplicate_probability = 0.1;
  cfg.drop_probability = 0.1;
  net::SimNetwork network(cfg);
  std::atomic<std::size_t> received{0};
  network.register_endpoint("pdme", [&](const net::Message&) {
    received.fetch_add(1, std::memory_order_relaxed);
  });

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 500;
  {
    std::vector<std::jthread> senders;
    for (std::size_t t = 0; t < kThreads; ++t) {
      senders.emplace_back([&network, t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          network.send("dc-" + std::to_string(t), "pdme",
                       {static_cast<std::uint8_t>(i)},
                       SimTime::from_millis(static_cast<double>(i)));
        }
      });
    }
  }  // join

  network.flush();
  const auto stats = network.stats();
  EXPECT_EQ(stats.sent, kThreads * kPerThread);
  EXPECT_EQ(stats.delivered, received.load());
  EXPECT_EQ(stats.delivered, stats.sent - stats.dropped + stats.duplicated);
}

TEST(ConcurrencyStressTest, PoolHammeredWithSmallTasks) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 20; ++round) {
    // Ranges both below and above the worker count, back to back, so
    // every fork races the previous join's wakeups.
    const std::size_t n = round % 2 == 0 ? 200 : 3;
    pool.parallel_for(n, [&sum](std::size_t i) {
      sum.fetch_add(static_cast<std::uint64_t>(i));
    });
  }
  EXPECT_EQ(sum.load(), 10ull * (199ull * 200ull / 2ull) + 10ull * 3ull);
}

}  // namespace
}  // namespace mpros
