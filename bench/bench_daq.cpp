// E8 — The Fig 5 acquisition chain.
//
// Paper claims (§8): 2 MUX cards x 16 channels = 32 channels feeding a
// 4-channel digitizer; "Highest sampling rate exceeds 40,000 Hz";
// per-channel RMS detectors give "real-time and constant alarming for all
// sensors". The harness measures full-scan duty cycle, achieved sample
// rate, and alarm latency under a step fault. The plant rows time the
// simulator behind the chain: one DC test's vibration record, its three
// accelerometer records in one joint render, its current record and the
// seeded Gaussian that draws their noise.

#include <benchmark/benchmark.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <span>
#include <vector>

#include "mpros/common/rng.hpp"
#include "mpros/common/units.hpp"
#include "mpros/plant/chiller.hpp"
#include "mpros/plant/daq.hpp"
#include "mpros/plant/vibration.hpp"

namespace {

using namespace mpros;
using namespace mpros::plant;

SignalSource chiller_source(ChillerSimulator& chiller) {
  // 32 channels: cycle accelerometer points; every channel gets a live
  // waveform from the plant.
  return [&chiller](std::size_t channel, double t0, double rate,
                    std::span<double> out) {
    const auto point = static_cast<MachinePoint>(channel % 3);
    chiller.acquire_vibration_at(point, t0, rate, out);
  };
}

void print_e8_summary() {
  DaqConfig cfg;
  ChillerSimulator chiller;
  chiller.advance(SimTime::from_seconds(1.0));
  DaqChain daq(cfg, chiller_source(chiller));

  const auto scan = daq.scan_all(4096, 40960.0, SimTime(0));
  const double achieved =
      static_cast<double>(scan.total_samples) / scan.duration.seconds();

  // Alarm latency: seed a severe imbalance and watch channel 0's detector.
  ChillerSimulator faulted;
  faulted.faults().schedule({domain::FailureMode::MotorImbalance, SimTime(0),
                             SimTime(0), 1.0, GrowthProfile::Step});
  faulted.advance(SimTime::from_seconds(1.0));
  DaqChain alarm_daq(cfg, chiller_source(faulted));
  alarm_daq.set_alarm_threshold(0, 0.15);  // healthy RMS is ~0.07 g
  const auto alarms =
      alarm_daq.poll_alarms(SimTime(0), SimTime::from_seconds(2.0));

  std::printf(
      "\nE8 Data Concentrator acquisition chain (paper Fig 5 / §8)\n"
      "  claim    : 32 channels via 2 MUX cards, >40 kHz sampling,\n"
      "             real-time RMS alarming on all channels\n"
      "  measured : %zu channels; full scan of 4096 samples/ch in %s\n"
      "             (%.0f samples/s aggregate through the 4-ch digitizer)\n",
      daq.channel_count(), to_string(scan.duration).c_str(), achieved);
  if (!alarms.empty()) {
    std::printf("             RMS alarm on ch%zu after %s (rms %.2f g)\n\n",
                alarms[0].channel, to_string(alarms[0].at).c_str(),
                alarms[0].rms);
  } else {
    std::printf("             RMS alarm did not fire (unexpected)\n\n");
  }
}

void BM_FullScan(benchmark::State& state) {
  ChillerSimulator chiller;
  chiller.advance(SimTime::from_seconds(1.0));
  DaqChain daq(DaqConfig{}, chiller_source(chiller));
  const auto samples = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(daq.scan_all(samples, 40960.0, SimTime(0)));
  }
  state.SetItemsProcessed(state.iterations() * samples * 32);
  state.SetLabel("samples digitized");
}
BENCHMARK(BM_FullScan)->Arg(1024)->Arg(4096);

void BM_AlarmScan(benchmark::State& state) {
  ChillerSimulator chiller;
  chiller.advance(SimTime::from_seconds(1.0));
  DaqChain daq(DaqConfig{}, chiller_source(chiller));
  for (std::size_t ch = 0; ch < daq.channel_count(); ++ch) {
    daq.set_alarm_threshold(ch, 10.0);  // never fires: measure scan cost
  }
  SimTime t(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(daq.poll_alarms(t, SimTime::from_millis(100)));
    t += SimTime::from_millis(100);
  }
  // 32 channels x 4096 Hz x 0.1 s per iteration.
  state.SetItemsProcessed(state.iterations() * 32 * 409);
  state.SetLabel("detector samples");
}
BENCHMARK(BM_AlarmScan);

// One DC test's vibration record: 8,192 samples at 40,960 Hz with a
// gear-mesh fault, tones then noise then impacts.
void BM_VibrationAcceleration(benchmark::State& state) {
  VibrationSynthesizer synth(domain::navy_chiller_signature(), 1);
  Severities s{};
  s[static_cast<std::size_t>(domain::FailureMode::GearMeshWear)] = 0.8;
  std::vector<double> out(8192);
  for (auto _ : state) {
    synth.acceleration(MachinePoint::Gearbox, s, 0.85, 0.0, 40960.0, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.size()));
  state.SetLabel("samples");
}
BENCHMARK(BM_VibrationAcceleration);

// The same test's three accelerometer records in one joint render, the
// way the DC acquires them: each tone's sine once for all three points.
void BM_VibrationAccelerationThreePoints(benchmark::State& state) {
  VibrationSynthesizer synth(domain::navy_chiller_signature(), 1);
  Severities s{};
  s[static_cast<std::size_t>(domain::FailureMode::GearMeshWear)] = 0.8;
  std::vector<double> out(kMachinePointCount * 8192);
  const std::span<double> all(out);
  const PointRecord records[] = {
      {MachinePoint::Motor, all.first(8192)},
      {MachinePoint::Gearbox, all.subspan(8192, 8192)},
      {MachinePoint::Compressor, all.last(8192)},
  };
  for (auto _ : state) {
    synth.acceleration(records, s, 0.85, 0.0, 40960.0);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.size()));
  state.SetLabel("samples");
}
BENCHMARK(BM_VibrationAccelerationThreePoints);

// One DC test's motor-current record: 32,768 samples at 4,096 Hz.
void BM_MotorCurrent(benchmark::State& state) {
  VibrationSynthesizer synth(domain::navy_chiller_signature(), 1);
  std::vector<double> out(32768);
  for (auto _ : state) {
    synth.motor_current(Severities{}, 0.85, 0.0, 4096.0, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.size()));
  state.SetLabel("samples");
}
BENCHMARK(BM_MotorCurrent);

// One seeded normal draw, the plant's per-sample noise.
void BM_RngNormal(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.normal(0.0, 1.0));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("draws");
}
BENCHMARK(BM_RngNormal);

// The same draws a block of 256 at a time, as the plant takes its noise;
// items are draws, so the two rows read as ns per normal.
void BM_RngUnitNormals(benchmark::State& state) {
  Rng rng(1);
  std::array<double, 256> z;
  for (auto _ : state) {
    rng.unit_normals(z);
    benchmark::DoNotOptimize(z.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(z.size()));
  state.SetLabel("draws");
}
BENCHMARK(BM_RngUnitNormals);

}  // namespace

int main(int argc, char** argv) {
  print_e8_summary();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
