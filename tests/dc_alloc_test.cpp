// Steady-state allocation audit for the DC's per-test analysis: the sensor
// screens and feature extraction on pre-acquired seeded records.
//
// Overrides the global allocation functions with a counting hook (as
// dsp_alloc_test does), warms the caches, scratch lanes and per-channel
// state, then asserts that a further pass performs zero heap allocations.
// Lives in its own binary so the hook cannot distort the other suites.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "mpros/dc/sensor_validator.hpp"
#include "mpros/plant/chiller.hpp"
#include "mpros/rules/features.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
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
  std::map<std::string, double> process;
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
    (void)validator.check_window("current.motor", r.current);
    (void)validator.check_window("vib.motor", r.vibration);
    for (const auto& [key, value] : r.process) {
      (void)validator.check_value(key, value);
    }
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

}  // namespace
}  // namespace mpros
