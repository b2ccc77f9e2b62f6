// Steady-state allocation audit for the batched ingest path (E21
// acceptance, mirroring dsp_alloc_test for ISSUE 2).
//
// Overrides the global allocation functions with a counting hook, warms the
// decode arena, the Dempster-Shafer focal vector and the prognostic fuse
// scratch, then asserts that a further pass through each hot-path entry
// point performs zero heap allocations:
//
//  - try_unwrap_reports_into: a full ReportBatch datagram (strings and
//    prognostics on every report) decoded into a warm arena;
//  - MassFunction::combine_simple_support: report-rate evidence folding;
//  - PrognosticVector::fuse_in_place: report-rate curve fusion.
//
// It also bounds the whole warm PdmeExecutive::submit() path — dedup, the
// OOSM report-log post and fusion — at one allocation per report on
// average: the log's amortized growth, not a per-report node or string.
//
// On the read side it checks that a repeated prioritized-list read, and
// its rebuild after a fuse that adds no item, allocate nothing, and that a
// health rollup allocates the same, in count and bytes, however many
// reports the OOSM holds.
//
// Lives in its own binary so the hook cannot distort the other suites.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <vector>

#include "mpros/fusion/dempster_shafer.hpp"
#include "mpros/fusion/prognostic_fusion.hpp"
#include "mpros/net/messages.hpp"
#include "mpros/net/report.hpp"
#include "mpros/oosm/ship_builder.hpp"
#include "mpros/pdme/health.hpp"
#include "mpros/pdme/pdme.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

// Out of line: inlined into the hooks, GCC 12 pairs their malloc with the
// free in the replacement delete and reports a false mismatch.
[[gnu::noinline]] void count_allocation(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) {
  count_allocation(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  count_allocation(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mpros {
namespace {

std::vector<net::FailureReport> window_reports(std::size_t n) {
  std::vector<net::FailureReport> reports;
  reports.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    net::FailureReport r;
    r.dc = DcId(7);
    r.knowledge_source = KnowledgeSourceId(1 + i % 3);
    r.sensed_object = ObjectId(100 + i);
    r.machine_condition = ConditionId(5 + i % 4);
    r.severity = 0.4 + 0.01 * static_cast<double>(i % 20);
    r.belief = 0.85;
    r.explanation = "1x running-speed amplitude elevated beyond baseline";
    r.recommendations = "Field balance the rotor at next availability.";
    r.additional_info = "load=0.8;speed=1780rpm";
    r.timestamp = SimTime::from_seconds(10.0 * static_cast<double>(i + 1));
    r.prognostics = {{0.1, 86400.0}, {0.5, 604800.0}, {0.9, 2592000.0}};
    reports.push_back(std::move(r));
  }
  return reports;
}

TEST(IngestAllocationTest, SteadyStateArenaDecodeIsAllocationFree) {
  const auto reports = window_reports(64);
  const auto wire = net::wrap_batch_envelope(DcId(7), 3, reports);

  std::vector<net::ReportEnvelope> arena;
  const auto decode_once = [&] {
    const auto view = net::try_unwrap_reports_into(wire, arena);
    ASSERT_TRUE(view.has_value());
    ASSERT_EQ(view->count, reports.size());
  };

  // Two warm-up passes: the first sizes the arena, the second lets every
  // element's strings and prognostics reach their final capacity.
  decode_once();
  decode_once();

  const std::uint64_t before = g_allocations.load();
  decode_once();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "warm batch decode allocated " << (after - before) << " time(s)";
}

TEST(IngestAllocationTest, SteadyStateDempsterFoldIsAllocationFree) {
  const fusion::FrameOfDiscernment frame({"imbalance", "misalign", "bearing"});
  fusion::MassFunction mass = fusion::MassFunction::vacuous(frame);

  const auto fold_round = [&] {
    for (std::size_t i = 0; i < frame.size(); ++i) {
      mass.combine_simple_support(frame.singleton(i),
                                  0.3 + 0.1 * static_cast<double>(i));
    }
  };

  fold_round();  // grows the focal vector to its steady-state support set
  const std::uint64_t before = g_allocations.load();
  for (int round = 0; round < 100; ++round) fold_round();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "warm evidence fold allocated " << (after - before) << " time(s)";
}

TEST(IngestAllocationTest, SteadyStatePrognosticFuseIsAllocationFree) {
  const std::vector<fusion::PrognosticPoint> report_points = {
      {SimTime::from_seconds(86400.0), 0.1},
      {SimTime::from_seconds(604800.0), 0.5},
      {SimTime::from_seconds(2592000.0), 0.9},
  };
  fusion::PrognosticVector curve;
  fusion::FuseScratch scratch;

  curve.fuse_in_place(report_points, scratch);  // warm scratch + curve
  curve.fuse_in_place(report_points, scratch);

  const std::uint64_t before = g_allocations.load();
  for (int round = 0; round < 100; ++round) {
    curve.fuse_in_place(report_points, scratch);
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "warm prognostic fuse allocated " << (after - before) << " time(s)";
}

TEST(IngestAllocationTest, WarmSubmitAveragesAtMostOneAllocationPerReport) {
  // 64 DCs x 16 reports per window, sequenced, every report fresh: the
  // pdme_ingest shape. Warm windows size the report log, the per-machine
  // history and the dedup index. The measured fifth window is the worst
  // case for amortized growth: every per-machine vector doubles in it, and
  // the reliable receiver allocates once per datagram.
  constexpr std::size_t kDcs = 64;
  constexpr std::size_t kPerDc = 16;
  oosm::ObjectModel model;
  const oosm::ShipModel ship = oosm::build_ship(model, "Alloc", kDcs / 2, 2);
  pdme::PdmeExecutive pdme(model);

  std::uint64_t sequence = 0;
  const auto window = [&](std::size_t w) {
    ++sequence;
    std::vector<net::ReportEnvelope> envs;
    envs.reserve(kDcs * kPerDc);
    for (std::size_t d = 0; d < kDcs; ++d) {
      const oosm::ChillerPlant& plant = ship.plants[d];
      const ObjectId machines[] = {plant.chiller, plant.motor, plant.gearbox,
                                   plant.compressor};
      for (std::size_t i = 0; i < kPerDc; ++i) {
        net::FailureReport r = window_reports(1).front();
        r.dc = DcId(d + 1);
        r.sensed_object = machines[i % 4];
        r.knowledge_source = KnowledgeSourceId(1 + i % 4);
        r.timestamp = SimTime(static_cast<std::int64_t>(w * 1000 + i + 1) *
                              1'000'000);
        r.additional_info = "load=0.8;window=" + std::to_string(w);
        envs.push_back({DcId(d + 1), sequence, std::move(r)});
      }
    }
    return envs;
  };

  for (std::size_t w = 0; w < 4; ++w) (void)pdme.submit(window(w));
  const auto measured = window(4);
  const std::uint64_t before = g_allocations.load();
  const auto out = pdme.submit(measured);
  const std::uint64_t after = g_allocations.load();
  ASSERT_EQ(out.accepted, kDcs * kPerDc);
  const double per_report = static_cast<double>(after - before) /
                            static_cast<double>(kDcs * kPerDc);
  EXPECT_LE(per_report, 1.0)
      << "warm submit allocated " << (after - before) << " time(s) for "
      << kDcs * kPerDc << " reports";
}

TEST(PdmeTest, RepeatedListReadAllocatesNothing) {
  oosm::ObjectModel model;
  const oosm::ShipModel ship = oosm::build_ship(model, "Alloc", 2, 2);
  pdme::PdmeExecutive pdme(model);
  const oosm::ChillerPlant& plant = ship.plants.front();
  std::vector<net::FailureReport> reports = window_reports(12);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    reports[i].sensed_object = i % 2 == 0 ? plant.motor : plant.gearbox;
  }
  for (const net::FailureReport& r : reports) {
    const net::ReportEnvelope env{r.dc, 0, r};
    (void)pdme.submit({&env, 1});
  }
  const std::size_t warm = pdme.prioritized_list().size();
  ASSERT_GT(warm, 2u);

  std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(pdme.prioritized_list().size(), warm);
  }
  EXPECT_EQ(g_allocations.load() - before, 0u)
      << "reading an unchanged list allocated";

  // A fuse that adds no item dirties the list; its rebuild walks the
  // Dempster-Shafer cells in place and refills the same vector.
  net::FailureReport again = reports.front();
  again.timestamp = again.timestamp + SimTime::from_seconds(1.0);
  const net::ReportEnvelope env{again.dc, 0, again};
  ASSERT_EQ(pdme.submit({&env, 1}).accepted, 1u);
  before = g_allocations.load();
  EXPECT_EQ(pdme.prioritized_list().size(), warm);
  EXPECT_EQ(g_allocations.load() - before, 0u)
      << "rebuilding a list of unchanged length allocated";
}

TEST(HealthRollupTest, ComputeCostIsIndependentOfReportCount) {
  // The rollup walks equipment objects, never the report objects the OOSM
  // accumulates, so a voyage's fleet summary does not grow with it.
  oosm::ObjectModel model;
  const oosm::ShipModel ship = oosm::build_ship(model, "Alloc", 1, 2);
  pdme::PdmeExecutive pdme(model);
  const pdme::HealthRollup rollup;
  const oosm::ChillerPlant& plant = ship.plants.front();
  std::size_t posted = 0;
  const auto post_until = [&](std::size_t total) {
    for (; posted < total; ++posted) {
      net::FailureReport r = window_reports(1).front();
      r.sensed_object = posted % 2 == 0 ? plant.motor : plant.compressor;
      r.belief = 0.9;  // fused belief saturates at exactly 1.0 early on
      r.severity = 0.6;
      r.timestamp = SimTime::from_seconds(static_cast<double>(posted + 1));
      const net::ReportEnvelope env{r.dc, 0, r};
      ASSERT_EQ(pdme.submit({&env, 1}).accepted, 1u);
    }
  };
  struct Cost {
    std::uint64_t allocations, bytes;
    std::map<ObjectId, pdme::HealthEntry> health;
  };
  const auto measure = [&] {
    (void)rollup.compute(pdme);  // refresh the lists the reports dirtied
    Cost c{g_allocations.load(), g_bytes.load(), {}};
    c.health = rollup.compute(pdme);
    c.allocations = g_allocations.load() - c.allocations;
    c.bytes = g_bytes.load() - c.bytes;
    return c;
  };

  post_until(100);
  const Cost few = measure();
  post_until(10'000);
  const Cost many = measure();
  ASSERT_GT(model.object_count(), 10'000u);
  EXPECT_EQ(many.allocations, few.allocations);
  EXPECT_EQ(many.bytes, few.bytes);
  ASSERT_EQ(many.health.size(), few.health.size());
  for (const auto& [id, entry] : few.health) {
    const auto it = many.health.find(id);
    ASSERT_NE(it, many.health.end());
    EXPECT_EQ(it->second.own, entry.own) << id.value();
    EXPECT_EQ(it->second.rolled, entry.rolled) << id.value();
  }
  EXPECT_LT(few.health.at(plant.motor).own, 1.0);
}

}  // namespace
}  // namespace mpros
