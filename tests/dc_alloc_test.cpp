// Steady-state allocation audit for the DC's per-test analysis: the sensor
// screens and feature extraction on pre-acquired seeded records, and the
// process scan's snapshot, screens, fuzzy engines and SBFR step. Also
// checks who owns the samples: a DC holds none between tests, so DCs
// stepped on one thread share one set of records in the thread's arena.
//
// Overrides the global allocation functions with a counting hook (as
// dsp_alloc_test does), warms the caches, scratch lanes and per-channel
// state, then asserts that a further pass performs zero heap allocations.
// Lives in its own binary so the hook cannot distort the other suites.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "mpros/dc/data_concentrator.hpp"
#include "mpros/dc/sensor_validator.hpp"
#include "mpros/dsp/scratch.hpp"
#include "mpros/dsp/spectrum.hpp"
#include "mpros/fuzzy/chiller_fuzzy.hpp"
#include "mpros/mpros/wnn_training.hpp"
#include "mpros/plant/chiller.hpp"
#include "mpros/rules/features.hpp"
#include "mpros/sbfr/interpreter.hpp"
#include "mpros/sbfr/library.hpp"
#include "mpros/telemetry/metrics.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<std::uint64_t> g_largest{0};  ///< largest block since reset

// Out of line: inlined into the hooks, GCC 12 pairs their malloc with the
// free in the replacement delete and reports a false mismatch.
[[gnu::noinline]] void count_allocation(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  std::uint64_t largest = g_largest.load(std::memory_order_relaxed);
  while (size > largest &&
         !g_largest.compare_exchange_weak(largest, size,
                                          std::memory_order_relaxed)) {
  }
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

constexpr double kVibrationRate = 40960.0;
constexpr double kCurrentRate = 4096.0;

/// Seeded records at the DC's default rates and lengths.
struct Records {
  std::vector<double> current = std::vector<double>(32768);
  std::vector<double> vibration = std::vector<double>(8192);
  domain::ProcessValues process;
};

Records acquire(plant::ChillerSimulator& sim) {
  Records r;
  sim.advance(SimTime::from_seconds(60));
  sim.acquire_current(kCurrentRate, r.current);
  sim.acquire_vibration(plant::MachinePoint::Motor, kVibrationRate,
                        r.vibration);
  r.process = sim.process_snapshot();
  return r;
}

/// Counts allocations across `body`.
template <typename Body>
std::uint64_t allocations_in(const Body& body) {
  const std::uint64_t before = g_allocations.load();
  body();
  return g_allocations.load() - before;
}

TEST(DcAllocationTest, WarmedScreensAndCurrentExtractionAllocateNothing) {
  plant::ChillerSimulator sim;
  // Records acquired up front: the plant simulator is not under audit.
  std::vector<Records> records;
  for (int i = 0; i < 24; ++i) records.push_back(acquire(sim));

  dc::SensorValidator validator;
  const rules::FeatureExtractor extractor(sim.signature());
  rules::FeatureFrame frame;

  const auto screen = [&](const Records& r) {
    (void)validator.check_window(domain::Channel::CurrentMotor, r.current);
    (void)validator.check_window(domain::Channel::VibMotor, r.vibration);
    r.process.for_each([&](domain::Channel c, double value) {
      (void)validator.check_value(c, value);
    });
  };
  const auto extract = [&](const Records& r) {
    extractor.extract_current(r.current, kCurrentRate, sim.load(), frame);
    extractor.extract_vibration(r.vibration, kVibrationRate, frame);
  };

  // Warm-up: fills every scalar history ring (16 readings), grows the
  // scratch lanes and the plan/window caches, and puts every key in the
  // frame.
  for (int i = 0; i < 20; ++i) {
    screen(records[static_cast<std::size_t>(i)]);
    extract(records[static_cast<std::size_t>(i)]);
  }

  for (std::size_t i = 20; i < records.size(); ++i) {
    EXPECT_EQ(allocations_in([&] { screen(records[i]); }), 0u)
        << "check_window/check_value allocated on record " << i;
    EXPECT_EQ(allocations_in([&] {
                extractor.extract_current(records[i].current, kCurrentRate,
                                          sim.load(), frame);
              }),
              0u)
        << "extract_current allocated on record " << i;
    EXPECT_EQ(allocations_in([&] {
                extractor.extract_vibration(records[i].vibration,
                                            kVibrationRate, frame);
              }),
              0u)
        << "extract_vibration allocated on record " << i;
  }
  // Nothing above was quarantined: the screens ran every stage.
  EXPECT_EQ(validator.stats().faults_detected, 0u);
}

TEST(DcAllocationTest, WarmedProcessScanPathAllocatesNothing) {
  // A process scan's analysis: the plant's snapshot, a screen of every
  // value (quarantined ones leave the snapshot), the log append, the fuzzy
  // engines and one step of SBFR machines over bound channels, as the DC
  // runs them.
  using domain::Channel;
  plant::ChillerSimulator sim;
  dc::SensorValidator validator;
  const fuzzy::FuzzyDiagnoser fuzzy;
  const rules::BelievabilityTable beliefs;
  const domain::ProcessNominals nominals = domain::navy_chiller_nominals();
  constexpr Channel kInputs[] = {Channel::BearingTemp, Channel::OilTemp,
                                 Channel::CondPressure, Channel::EvapPressure};
  sbfr::SbfrSystem sbfr(std::size(kInputs));
  sbfr.add_machine(sbfr::make_threshold_machine(
      0, nominals.bearing_temp_c + 18.0, 2, 0, 0x60));
  sbfr.add_machine(sbfr::make_trend_machine(1, 0.15, 5, 1, 0x61));

  domain::ProcessValues values;
  dc::DcLog log;
  std::size_t fired = 0;
  const auto scan = [&](bool audit) {
    sim.advance(SimTime::from_seconds(60));
    const auto check = [&](const char* what, const auto& body) {
      const std::uint64_t n = allocations_in(body);
      if (audit) {
        EXPECT_EQ(n, 0u) << what << " allocated";
      }
    };
    check("process_snapshot", [&] { values = sim.process_snapshot(); });
    check("the screens", [&] {
      for (std::size_t i = 0; i < domain::kProcessCount; ++i) {
        const Channel c = domain::process_channel(i);
        (void)validator.check_value(c, values[c]);
        if (validator.quarantined(c)) values.erase(c);
      }
    });
    check("log", [&] { log.append(dc::DcLog::ScanRecord{sim.now(), values}); });
    check("FuzzyDiagnoser::evaluate",
          [&] { fired += fuzzy.evaluate(values, beliefs).size(); });
    check("the SBFR step", [&] {
      double inputs[std::size(kInputs)];
      for (std::size_t i = 0; i < std::size(kInputs); ++i) {
        inputs[i] = values[kInputs[i]];
      }
      sbfr.step(inputs);
    });
  };

  // Warm-up: an hour of scans fills every scalar history ring, the
  // screens' workspace and the log's window.
  for (int i = 0; i < 60; ++i) scan(false);
  for (int i = 0; i < 10; ++i) scan(true);
  // A healthy plant: every value trusted, no fuzzy engine fired.
  EXPECT_EQ(values.size(), domain::kProcessCount);
  EXPECT_EQ(validator.stats().faults_detected, 0u);
  EXPECT_EQ(fired, 0u);
  EXPECT_EQ(log.scans.size(), 60u);
}

const dc::MachineRefs kRefs{ObjectId(1), ObjectId(2), ObjectId(3),
                            ObjectId(4)};

TEST(DcArenaTest, ConstructionAllocatesNoRecord) {
  plant::ChillerSimulator chiller;
  const dc::DcConfig cfg;
  const std::uint64_t bytes_before = g_bytes.load();
  g_largest.store(0);
  const dc::DataConcentrator dc(cfg, kRefs, chiller);
  const std::uint64_t bytes = g_bytes.load() - bytes_before;
  EXPECT_LT(g_largest.load(), cfg.window * sizeof(double))
      << "the constructor allocated a block as large as a vibration record";
  EXPECT_LT(bytes, (cfg.window + cfg.current_window) * sizeof(double))
      << "the constructor allocated " << bytes << " bytes";
}

TEST(DcArenaTest, SixteenDcsOnOneThreadShareOneSetOfRecords) {
  // FleetSim steps its hulls' DCs one after another on one thread. Every
  // analyzer runs, the WNN included.
  WnnTrainingConfig wnn_cfg;
  wnn_cfg.windows_per_class = 2;
  wnn_cfg.classifier.train.epochs = 5;
  const auto wnn = train_wnn_classifier(wnn_cfg);

  std::vector<std::unique_ptr<plant::ChillerSimulator>> chillers;
  std::vector<std::unique_ptr<dc::DataConcentrator>> dcs;
  for (std::uint64_t i = 0; i < 16; ++i) {
    plant::ChillerConfig plant_cfg;
    plant_cfg.seed = 0xA4E1 + i;
    chillers.push_back(std::make_unique<plant::ChillerSimulator>(plant_cfg));
    dc::DcConfig cfg;
    cfg.id = DcId(i + 1);
    dcs.push_back(std::make_unique<dc::DataConcentrator>(
        cfg, kRefs, *chillers.back(), wnn));
  }

  using Lane = dsp::DspScratch::Real;
  dsp::DspScratch& arena = dsp::DspScratch::local();
  const dc::DcConfig cfg;
  const std::size_t records_size = plant::kMachinePointCount * cfg.window;
  std::size_t after_first = 0;
  const double* records_after_first = nullptr;
  for (std::size_t i = 0; i < dcs.size(); ++i) {
    (void)dcs[i]->advance_to(SimTime::from_seconds(600));
    ASSERT_EQ(dcs[i]->stats().vibration_tests, 1u) << "DC " << i;
    if (i == 0) {
      after_first = arena.footprint_bytes();
      records_after_first =
          arena.real_lane(Lane::kVibrationRecord, records_size).data();
    }
  }
  EXPECT_GE(after_first,
            (records_size + cfg.current_window) * sizeof(double));
  EXPECT_EQ(arena.footprint_bytes(), after_first);

  // The set is the last test's three accelerometer records, back to back,
  // and its current record; the first DC grew it, and no DC moved it.
  const std::span<const double> records =
      arena.real_lane(Lane::kVibrationRecord, records_size);
  const std::span<const double> current =
      arena.real_lane(Lane::kCurrentRecord, cfg.current_window);
  EXPECT_EQ(records.data(), records_after_first);
  EXPECT_EQ(arena.footprint_bytes(), after_first);
  SimTime tested_at;
  for (const auto& e : dcs.back()->drain_events()) {
    if (e.what == "vibration test") tested_at = e.at;
  }
  ASSERT_GT(tested_at.micros(), 0);
  plant::ChillerConfig twin_cfg;
  twin_cfg.seed = 0xA4E1 + dcs.size() - 1;
  plant::ChillerSimulator twin(twin_cfg);
  twin.advance(tested_at);
  std::vector<double> want_current(cfg.current_window);
  std::vector<double> want_records(records_size);
  twin.acquire_current(cfg.current_sample_rate_hz, want_current);
  twin.acquire_vibration(cfg.sample_rate_hz, want_records);
  EXPECT_EQ(std::memcmp(current.data(), want_current.data(),
                        current.size_bytes()),
            0);
  EXPECT_EQ(std::memcmp(records.data(), want_records.data(),
                        records.size_bytes()),
            0);

  // This binary runs everything on one thread, so the gauge over every
  // thread's arena reads this one's.
  auto& registry = telemetry::Registry::instance();
  EXPECT_EQ(registry.gauge("dsp.scratch_bytes").value(),
            static_cast<double>(arena.footprint_bytes()));
  EXPECT_GT(registry.gauge("dsp.plan_cache_bytes").value(), 0.0);
}

TEST(DcArenaTest, ScreensLeaveALiveHalfSpectrumsBandReadsBitIdentical) {
  // A HalfSpectrum views the arena's complex lane 0; the screens borrow the
  // FFT workspace (lane 1). A screen run between the transform and its
  // band reads must not move a bit of them.
  plant::ChillerSimulator sim;
  const Records r = acquire(sim);
  dc::SensorValidator validator;
  const auto screen = [&] {
    (void)validator.check_window(domain::Channel::CurrentMotor, r.current);
    (void)validator.check_window(domain::Channel::VibMotor, r.vibration);
  };
  const auto reads = [](const dsp::HalfSpectrum& spec) {
    std::vector<double> out;
    for (std::size_t i = 0; i < spec.bins(); ++i) {
      out.push_back(spec.amplitude(i));
    }
    out.push_back(spec.band_peak(280.0, 320.0));
    out.push_back(spec.band_energy(5000.0, 12000.0));
    return out;
  };
  screen();  // the lanes at full size: no growth below moves a buffer

  const std::vector<double> want =
      reads(dsp::half_spectrum(r.vibration, kVibrationRate));
  const dsp::HalfSpectrum spec =
      dsp::half_spectrum(r.vibration, kVibrationRate);
  screen();
  const std::vector<double> got = reads(spec);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0);
}

}  // namespace
}  // namespace mpros
