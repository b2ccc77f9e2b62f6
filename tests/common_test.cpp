// Tests for the common substrate: clock, ids, pool, rng.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <thread>
#include <vector>

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

static_assert(std::uniform_random_bit_generator<Mt64>);
static_assert(sizeof(Mt64) == sizeof(std::mt19937_64));

std::uint64_t bits_of(double d) { return std::bit_cast<std::uint64_t>(d); }

TEST(RngTest, StreamsArePinnedAtSeedOne) {
  // The goldens' noise, pinned without reference to any standard library:
  // the first normal(0, 1) and uniform(0, 1) draws of a fresh Rng(1).
  const std::uint64_t normals[] = {
      0xbfd8c1da014dda10ULL, 0x3fe5fa75918ca314ULL, 0xbfe971d689089fddULL,
      0x3fff01d3e119ca68ULL, 0x3fbe15bc7159ee3dULL, 0xbfe4bec5ef0151f1ULL,
      0xbff862918a96f613ULL, 0x3fed3d936bb14019ULL};
  const std::uint64_t uniforms[] = {
      0x3fc122deafddb438ULL, 0x3fc175c928118c7dULL, 0x3fdce0b479deb991ULL,
      0x3f95876015e4d702ULL, 0x3fd6751d5cbb3f1aULL, 0x3fed29d85a57326dULL,
      0x3fde20cd8d6456f4ULL, 0x3fb30d84f91bf14bULL};
  Rng n(1), u(1);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(bits_of(n.normal(0.0, 1.0)), normals[i]) << "normal " << i;
    EXPECT_EQ(bits_of(u.uniform(0.0, 1.0)), uniforms[i]) << "uniform " << i;
  }
}

TEST(RngTest, UnitNormalsMatchSequentialDraws) {
  // Block draws are normal(0, 1) call for call: the same bits across block
  // edges, and the engine left at the same word.
  for (const std::uint64_t seed : {0ULL, 1ULL, ~0ULL}) {
    for (const std::size_t size : {0, 1, 255, 256, 257, 32768}) {
      Rng block(seed), single(seed);
      std::vector<double> z(size);
      block.unit_normals(z);
      for (std::size_t i = 0; i < size; ++i) {
        ASSERT_EQ(bits_of(z[i]), bits_of(single.normal(0.0, 1.0)))
            << "seed " << seed << " size " << size << " draw " << i;
      }
      EXPECT_EQ(block.engine()(), single.engine()())
          << "seed " << seed << " size " << size;
    }
  }
}

TEST(RngTest, CanonicalClampsBelowOne) {
  // Words within 2^10 of 2^64 round up to 1.0; the standard clamps them.
  EXPECT_EQ(canonical(~std::uint64_t{0}), std::nextafter(1.0, 0.0));
  EXPECT_EQ(canonical(~std::uint64_t{0} - 1023), std::nextafter(1.0, 0.0));
  EXPECT_EQ(canonical(0), 0.0);
  EXPECT_EQ(canonical(std::uint64_t{1} << 63), 0.5);
}

TEST(RngTest, HighWordsConvertExactly) {
  // Words with bit 63 set: exact, ties to even, and the compiler's own
  // correctly rounded conversion.
  const std::uint64_t top = std::uint64_t{1} << 63;
  EXPECT_EQ(u64_to_double(top), 0x1p63);
  EXPECT_EQ(u64_to_double(top + 2048), 0x1p63 + 2048.0);
  EXPECT_EQ(u64_to_double(top + 1024), 0x1p63);           // tie, even down
  EXPECT_EQ(u64_to_double(top + 3072), 0x1p63 + 4096.0);  // tie, even up
  EXPECT_EQ(u64_to_double(top + 1025), 0x1p63 + 2048.0);
  EXPECT_EQ(u64_to_double(~std::uint64_t{0}), 0x1p64);
  std::uint64_t x = 0x243f6a8885a308d3ULL;
  for (int i = 0; i < 100000; ++i) {
    x = splitmix64(x);
    const std::uint64_t u = x | top;
    ASSERT_EQ(bits_of(u64_to_double(u)), bits_of(static_cast<double>(u)))
        << std::hex << u;
    const std::uint64_t low = x >> (i % 64);
    ASSERT_EQ(bits_of(u64_to_double(low)), bits_of(static_cast<double>(low)))
        << std::hex << low;
  }
}

#if defined(__GLIBCXX__)
TEST(RngTest, DrawsMatchLibstdcxxBitForBit) {
  // Rng's engine and its written-out uniform and normal against
  // std::mt19937_64 and the std distributions: a mixed stream of every
  // draw Rng offers, then the engines' next words.
  for (const std::uint64_t seed : {0ULL, 1ULL, ~0ULL}) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 1'000'000; ++i) {
      const double scale = 0.25 + static_cast<double>(i % 13);
      switch (i % 8) {
        case 0:
        case 1:
        case 2:
          ASSERT_EQ(bits_of(rng.normal(1.5, scale)),
                    bits_of(std::normal_distribution<double>(1.5, scale)(ref)))
              << "seed " << seed << " draw " << i;
          break;
        case 3:
        case 4:
          ASSERT_EQ(
              bits_of(rng.uniform(-scale, 2.0 * scale)),
              bits_of(std::uniform_real_distribution<double>(
                  -scale, 2.0 * scale)(ref)))
              << "seed " << seed << " draw " << i;
          break;
        case 5:
          ASSERT_EQ(
              rng.integer(3, 3 + static_cast<std::uint64_t>(i)),
              std::uniform_int_distribution<std::uint64_t>(
                  3, 3 + static_cast<std::uint64_t>(i))(ref))
              << "seed " << seed << " draw " << i;
          break;
        case 6:
          ASSERT_EQ(bits_of(rng.exponential(scale)),
                    bits_of(std::exponential_distribution<double>(scale)(ref)))
              << "seed " << seed << " draw " << i;
          break;
        default:
          ASSERT_EQ(rng.bernoulli(0.3), std::bernoulli_distribution(0.3)(ref))
              << "seed " << seed << " draw " << i;
      }
    }
    std::vector<int> mine(1000), theirs(1000);
    for (int i = 0; i < 1000; ++i) mine[i] = theirs[i] = i;
    std::shuffle(mine.begin(), mine.end(), rng.engine());
    std::shuffle(theirs.begin(), theirs.end(), ref);
    EXPECT_EQ(mine, theirs) << "seed " << seed;
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(rng.engine()(), ref()) << "seed " << seed;
    }
  }
}
#endif


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
