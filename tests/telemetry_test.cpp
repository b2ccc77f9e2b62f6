// Telemetry subsystem tests: metrics registry, pipeline tracing, flight
// recorder, and the record -> replay determinism contract.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "mpros/common/log.hpp"
#include "mpros/mpros/replay.hpp"
#include "mpros/mpros/ship_system.hpp"
#include "mpros/pdme/browser.hpp"
#include "mpros/telemetry/metrics.hpp"
#include "mpros/telemetry/recorder.hpp"
#include "mpros/telemetry/trace.hpp"

namespace mpros {
namespace {

using telemetry::FlightRecorder;
using telemetry::Registry;

TEST(MetricsTest, CounterExactUnderConcurrency) {
  telemetry::set_enabled(true);
  telemetry::Counter& c =
      Registry::instance().counter("test.concurrent_counter");
  c.reset();

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(MetricsTest, DisabledObservationsAreDropped) {
  telemetry::Counter& c = Registry::instance().counter("test.kill_switch");
  c.reset();
  telemetry::set_enabled(false);
  c.inc(100);
  telemetry::set_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  c.inc(1);
  EXPECT_EQ(c.value(), 1u);
}

TEST(MetricsTest, HistogramQuantilesWithinBucketBounds) {
  telemetry::set_enabled(true);
  telemetry::Histogram h({10.0, 100.0, 1000.0});
  // 90 observations in [0,10], 10 in (100,1000]: p50 must land in the
  // first bucket, p95+ in the third.
  for (int i = 0; i < 90; ++i) h.observe(5.0);
  for (int i = 0; i < 10; ++i) h.observe(500.0);

  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), (90 * 5.0 + 10 * 500.0) / 100.0);
  EXPECT_GE(h.quantile(0.5), 0.0);
  EXPECT_LE(h.quantile(0.5), 10.0);
  EXPECT_GT(h.quantile(0.95), 100.0);
  EXPECT_LE(h.quantile(0.95), 1000.0);
  EXPECT_FALSE(h.max_exceeded());

  h.observe(5000.0);  // overflow bucket
  EXPECT_TRUE(h.max_exceeded());
  EXPECT_LE(h.quantile(1.0), 1000.0);  // capped at the last bound
}

TEST(MetricsTest, SnapshotAndRenderersCoverAllKinds) {
  telemetry::set_enabled(true);
  Registry& reg = Registry::instance();
  reg.counter("test.render_counter").inc(3);
  reg.gauge("test.render_gauge").set(2.5);
  reg.histogram("test.render_hist").observe(42.0);

  bool saw_counter = false, saw_gauge = false, saw_hist = false;
  for (const auto& s : reg.snapshot()) {
    if (s.name == "test.render_counter") {
      saw_counter = true;
      EXPECT_EQ(s.kind, telemetry::MetricSnapshot::Kind::Counter);
      EXPECT_DOUBLE_EQ(s.value, 3.0);
    } else if (s.name == "test.render_gauge") {
      saw_gauge = true;
      EXPECT_DOUBLE_EQ(s.value, 2.5);
    } else if (s.name == "test.render_hist") {
      saw_hist = true;
      EXPECT_EQ(s.count, 1u);
    }
  }
  EXPECT_TRUE(saw_counter && saw_gauge && saw_hist);

  const std::string text = reg.render_text();
  EXPECT_NE(text.find("test.render_counter"), std::string::npos);
}

TEST(MetricsTest, WarnAndErrorLogsFeedComponentCounters) {
  telemetry::set_enabled(true);
  telemetry::Counter& warns =
      Registry::instance().counter("logtest.log_warnings");
  telemetry::Counter& errors =
      Registry::instance().counter("logtest.log_errors");
  warns.reset();
  errors.reset();

  // Raise the sink threshold so nothing prints: the counters must still
  // move (suppressed output is exactly when you need the evidence).
  const LogLevel old_level = log_level();
  set_log_level(LogLevel::Off);
  MPROS_LOG_WARN("logtest", "simulated warning %d", 1);
  MPROS_LOG_ERROR("logtest", "simulated error %d", 2);
  MPROS_LOG_INFO("logtest", "info is not counted");
  set_log_level(old_level);

  EXPECT_EQ(warns.value(), 1u);
  EXPECT_EQ(errors.value(), 1u);
}

TEST(TraceTest, SpansGroupByTraceAndRingStaysBounded) {
  telemetry::set_enabled(true);
  telemetry::Tracer& tracer = telemetry::Tracer::instance();
  tracer.clear();
  tracer.set_capacity(8);

  const telemetry::TraceId a = (std::uint64_t{1} << 40) | 1;
  const telemetry::TraceId b = (std::uint64_t{2} << 40) | 1;

  {
    telemetry::StageTimer t("test.stage_one", a, 1000);
    t.set_sim_end(2000);
  }
  { telemetry::StageTimer t("test.stage_two", a, 2000); }
  { telemetry::StageTimer t("test.other", b, 3000); }

  const auto spans = tracer.spans_for(a);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].stage, "test.stage_one");
  EXPECT_EQ(spans[0].sim_start_us, 1000);
  EXPECT_EQ(spans[0].sim_end_us, 2000);
  EXPECT_GE(spans[0].wall_ns, 0);
  EXPECT_EQ(spans[1].stage, "test.stage_two");

  for (int i = 0; i < 100; ++i) {
    telemetry::StageTimer t("test.flood", b, i);
  }
  EXPECT_LE(tracer.recent().size(), 8u);
  EXPECT_GT(tracer.evicted(), 0u);
  tracer.clear();
  tracer.set_capacity(4096);
}

TEST(RecorderTest, EncodeDecodeRoundTrip) {
  FlightRecorder rec(16);
  rec.set_header({telemetry::kRecorderVersion, false, 6, 0xABCD});
  rec.record_message(1000, "dc-1", "pdme", {9, 8, 7});
  rec.record_event(2000, "dc-2", "SBFR latch");

  const auto decoded = FlightRecorder::decode(rec.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->header, rec.header());
  ASSERT_EQ(decoded->frames.size(), 2u);
  EXPECT_EQ(decoded->frames[0].kind, telemetry::FrameKind::NetMessage);
  EXPECT_EQ(decoded->frames[0].time_us, 1000);
  EXPECT_EQ(decoded->frames[0].from, "dc-1");
  EXPECT_EQ(decoded->frames[0].to, "pdme");
  EXPECT_EQ(decoded->frames[0].payload, (std::vector<std::uint8_t>{9, 8, 7}));
  EXPECT_EQ(decoded->frames[1].kind, telemetry::FrameKind::Event);
  EXPECT_EQ(std::string(decoded->frames[1].payload.begin(),
                        decoded->frames[1].payload.end()),
            "SBFR latch");
}

TEST(RecorderTest, RingEvictsOldestFrames) {
  FlightRecorder rec(4);
  for (int i = 0; i < 10; ++i) {
    rec.record_message(i, "dc", "pdme",
                       {static_cast<std::uint8_t>(i)});
  }
  const auto frames = rec.frames();
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames.front().time_us, 6);  // 0..5 evicted
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.evicted(), 6u);
}

TEST(RecorderTest, DumpAndLoadFile) {
  FlightRecorder rec(8);
  rec.set_header({telemetry::kRecorderVersion, true, 2, 42});
  rec.record_message(500, "dc-1", "pdme", {1, 2});

  const std::string path = ::testing::TempDir() + "telemetry_test_dump.mfr";
  ASSERT_TRUE(rec.dump(path));
  const auto loaded = FlightRecorder::load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->header.seed, 42u);
  ASSERT_EQ(loaded->frames.size(), 1u);
  EXPECT_EQ(loaded->frames[0].payload, (std::vector<std::uint8_t>{1, 2}));

  EXPECT_FALSE(FlightRecorder::load(path).has_value());  // gone now
}

TEST(ReplayTest, RecordedRunReplaysToIdenticalPrioritizedList) {
  telemetry::set_enabled(true);

  ShipSystemConfig cfg;
  cfg.plant_count = 2;
  cfg.dc_template.vibration_period = SimTime::from_seconds(600);
  cfg.dc_template.process_period = SimTime::from_seconds(60);
  cfg.enable_flight_recorder = true;
  ShipSystem ship(cfg);
  ship.chiller(0).faults().schedule(
      {domain::FailureMode::MotorImbalance, SimTime(0), SimTime(0), 0.9,
       plant::GrowthProfile::Step});
  ship.run_until(SimTime::from_hours(1.0));

  const std::string live = pdme::render_summary(ship.pdme(), ship.model());
  EXPECT_GT(ship.pdme().snapshot().reports_accepted, 0u);

  ASSERT_NE(ship.flight_recorder(), nullptr);
  const auto dump = FlightRecorder::decode(ship.flight_recorder()->encode());
  ASSERT_TRUE(dump.has_value());

  const auto replayed = replay_recording(*dump);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(replayed->summary, live);  // byte-identical
  EXPECT_EQ(replayed->reports_fused, ship.pdme().snapshot().reports_accepted);
  EXPECT_GT(replayed->messages_replayed, 0u);
  EXPECT_EQ(replayed->malformed, 0u);
}

TEST(ReplayTest, UnsupportedVersionRejected) {
  FlightRecorder rec(4);
  rec.record_message(0, "dc-1", "pdme", {1});
  auto bytes = rec.encode();
  bytes[3] = 99;  // version byte follows the 3-byte magic
  // decode() refuses unknown versions, so replay never sees them.
  EXPECT_FALSE(FlightRecorder::decode(bytes).has_value());
}

TEST(ReplayTest, InstrumentedRunPopulatesPipelineMetrics) {
  telemetry::set_enabled(true);
  Registry::instance().reset_values();

  ShipSystemConfig cfg;
  cfg.plant_count = 1;
  cfg.dc_template.vibration_period = SimTime::from_seconds(600);
  cfg.dc_template.process_period = SimTime::from_seconds(60);
  ShipSystem ship(cfg);
  ship.run_until(SimTime::from_hours(0.5));

  Registry& reg = Registry::instance();
  EXPECT_GT(reg.counter("dc.vibration_tests").value(), 0u);
  EXPECT_GT(reg.counter("dc.process_scans").value(), 0u);
  EXPECT_GT(reg.counter("dc.scheduler_task_runs").value(), 0u);
  EXPECT_GT(reg.counter("net.delivered").value(), 0u);
  EXPECT_GT(reg.histogram("net.transit_latency_us").count(), 0u);
}

}  // namespace
}  // namespace mpros
