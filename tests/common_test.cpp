// Tests for the common substrate: clock, ids, pool, rng.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "mpros/common/clock.hpp"
#include "mpros/common/file.hpp"
#include "mpros/common/ids.hpp"
#include "mpros/common/rng.hpp"
#include "mpros/common/thread_pool.hpp"

namespace mpros {
namespace {

TEST(SimTimeTest, ConversionsRoundTrip) {
  EXPECT_EQ(SimTime::from_seconds(1.0).micros(), 1'000'000);
  EXPECT_DOUBLE_EQ(SimTime::from_millis(250.0).seconds(), 0.25);
  EXPECT_DOUBLE_EQ(SimTime::from_hours(2.0).seconds(), 7200.0);
  EXPECT_DOUBLE_EQ(SimTime::from_days(3.0).hours(), 72.0);
  EXPECT_DOUBLE_EQ(SimTime::from_months(2.0).days(), 60.0);
}

TEST(SimTimeTest, ArithmeticAndComparison) {
  const SimTime a = SimTime::from_seconds(10.0);
  const SimTime b = SimTime::from_seconds(4.0);
  EXPECT_EQ((a + b).seconds(), 14.0);
  EXPECT_EQ((a - b).seconds(), 6.0);
  EXPECT_LT(b, a);
  EXPECT_EQ(a, SimTime::from_seconds(10.0));
}

TEST(SimTimeTest, ToStringPicksSensibleUnits) {
  EXPECT_EQ(to_string(SimTime::from_seconds(2.5)), "2.50s");
  EXPECT_EQ(to_string(SimTime::from_months(4.5)), "4.50mo");
  EXPECT_EQ(to_string(SimTime::from_millis(3.0)), "3.00ms");
}

TEST(SimClockTest, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_EQ(clock.now().micros(), 0);
  clock.advance(SimTime::from_seconds(5.0));
  EXPECT_EQ(clock.now().seconds(), 5.0);
  clock.advance_to(SimTime::from_seconds(9.0));
  EXPECT_EQ(clock.now().seconds(), 9.0);
}

TEST(StrongIdTest, DistinctTypesAndHashing) {
  const DcId a(7), b(7), c(9);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(DcId().valid());
  std::set<DcId> ids{a, b, c};
  EXPECT_EQ(ids.size(), 2u);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.parallel_for(100, [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(64, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForUnevenChunksHitEveryIndexOnce) {
  // 67 indices across 8 workers does not divide evenly (8*8=64, so three
  // chunks carry an extra index); every index must still run exactly once.
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(67);
  pool.parallel_for(67, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForRangeSmallerThanPool) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeReturns) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(0, [&called](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, IdlePoolDestructsWithoutWork) {
  ThreadPool pool(2);  // the destructor must not hang on a pool never forked
  SUCCEED();
}

TEST(ThreadPoolTest, OneWorkerRunsEveryIndexOnTheCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(9);
  for (int round = 0; round < 3; ++round) {
    pool.parallel_for(ran.size(), [&ran](std::size_t i) {
      ran[i] = std::this_thread::get_id();
    });
    for (const std::thread::id& id : ran) EXPECT_EQ(id, caller);
  }
}

TEST(ThreadPoolTest, MultiWorkerPoolRunsOffTheCaller) {
  // More than one worker keeps the fork/join shape: the caller only waits.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(2);
  pool.parallel_for(ran.size(), [&ran](std::size_t i) {
    ran[i] = std::this_thread::get_id();
  });
  EXPECT_NE(ran[0], caller);
  EXPECT_NE(ran[1], caller);
  EXPECT_NE(ran[0], ran[1]);
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(RngTest, ForkedStreamsDiffer) {
  Rng base(7);
  Rng a = base.fork(1);
  Rng b = base.fork(2);
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    if (a.uniform(0, 1) != b.uniform(0, 1)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformWithinBounds) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, NormalHasRoughlyCorrectMoments) {
  Rng rng(4242);
  double sum = 0.0, sum_sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.normal(5.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}


TEST(ReadFileTest, MissingEmptyUnreadableAndReadAreDistinct) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("mpros_read_file_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir / "a_directory");
  std::ofstream(dir / "empty", std::ios::binary).flush();
  std::ofstream(dir / "three", std::ios::binary) << "abc";

  const FileRead missing = read_file((dir / "missing").string());
  EXPECT_EQ(missing.status, FileRead::Status::Missing);

  const FileRead empty = read_file((dir / "empty").string());
  EXPECT_EQ(empty.status, FileRead::Status::Ok);
  EXPECT_TRUE(empty.bytes.empty());

  // fopen("rb") succeeds on a directory; the read fails with EISDIR.
  const FileRead unreadable = read_file((dir / "a_directory").string());
  EXPECT_EQ(unreadable.status, FileRead::Status::Unreadable);
  EXPECT_EQ(unreadable.error, EISDIR);
  EXPECT_TRUE(unreadable.bytes.empty());

  const FileRead three = read_file((dir / "three").string());
  EXPECT_TRUE(three.ok());
  EXPECT_EQ(three.bytes, (std::vector<std::uint8_t>{'a', 'b', 'c'}));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mpros
