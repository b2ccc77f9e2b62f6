// E16 — Zero-rebuild real-FFT fast path, and one DC test's analysis.
//
// The seed DSP layer rebuilt its FFT plan (bit-reversal table + twiddles)
// and window taper on every amplitude_spectrum() call and ran real signals
// through a full complex transform. The cached path shares plans and
// windows process-wide, packs N reals into an N/2 complex FFT, and reuses
// a per-thread scratch arena so steady-state extraction never allocates.
//
// The FFT rows time each transform a DC test runs, alone.
//
// The DC-test row times what DataConcentrator::run_vibration_test spends
// on analysis, with the plant simulator left out: the records are acquired
// from a seeded chiller up front, then each test runs four sensor screens
// (current and three accelerometers), three vibration feature frames and
// one current frame. It also counts the complex magnitudes (libm cabs
// calls) one test computes. It is a layer number outside the pipeline
// ledger and gates nothing.
//
// The google-benchmark suite covers interactive runs; main() additionally
// takes a fixed-repetition median of each path and writes the numbers to
// BENCH_DSP.json at the current working directory (run from the repo root
// to refresh the committed copy). Acceptance: cached single-spectrum
// latency >= 2x better than the rebuild path.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "mpros/dc/sensor_validator.hpp"
#include "mpros/dsp/fft.hpp"
#include "mpros/dsp/spectrum.hpp"
#include "mpros/dsp/window.hpp"
#include "mpros/plant/chiller.hpp"
#include "mpros/rules/features.hpp"

namespace {

std::atomic<std::uint64_t> g_magnitudes{0};

}  // namespace

// Every std::abs(std::complex<double>) in the DSP layer compiles to a libm
// cabs call. This definition takes precedence over libm's, counts the call
// and returns what glibc's cabs returns: hypot of the two parts.
extern "C" double cabs(__complex__ double z) {
  g_magnitudes.fetch_add(1, std::memory_order_relaxed);
  return std::hypot(__real__ z, __imag__ z);
}

namespace {

using namespace mpros;

constexpr double kRate = 40960.0;
constexpr std::size_t kWindow = 8192;

std::vector<double> test_waveform() {
  std::vector<double> x(kWindow);
  for (std::size_t i = 0; i < kWindow; ++i) {
    const double t = static_cast<double>(i) / kRate;
    x[i] = std::sin(2.0 * M_PI * 29.6 * t) +
           0.3 * std::sin(2.0 * M_PI * 1273.0 * t) +
           0.1 * std::sin(2.0 * M_PI * 5421.0 * t);
  }
  return x;
}

// The seed implementation, verbatim in shape: window rebuilt per call,
// plan rebuilt per call, full complex transform of a real signal.
void legacy_amplitude_spectrum(std::span<const double> x,
                               double sample_rate_hz, dsp::Spectrum& out) {
  const std::size_t n = kWindow;
  const std::vector<double> window =
      dsp::make_window(dsp::WindowKind::Hann, x.size());
  std::vector<double> windowed(x.begin(), x.end());
  dsp::apply_window(windowed, window);

  std::vector<dsp::Complex> buf(n, dsp::Complex{});
  std::transform(windowed.begin(), windowed.end(), buf.begin(),
                 [](double v) { return dsp::Complex(v, 0.0); });
  dsp::FftPlan(n).forward(buf);

  out.sample_rate_hz = sample_rate_hz;
  out.bin_hz = sample_rate_hz / static_cast<double>(n);
  out.amplitude.resize(n / 2 + 1);
  const double gain = dsp::coherent_gain(window);
  for (std::size_t i = 0; i < out.amplitude.size(); ++i) {
    double a = std::abs(buf[i]) / gain;
    if (i != 0 && i != n / 2) a *= 2.0;
    out.amplitude[i] = a;
  }
}

void BM_SingleSpectrum_Rebuild(benchmark::State& state) {
  const std::vector<double> x = test_waveform();
  dsp::Spectrum spec;
  for (auto _ : state) {
    legacy_amplitude_spectrum(x, kRate, spec);
    benchmark::DoNotOptimize(spec.amplitude.data());
  }
  state.SetLabel("per-call plan+window rebuild, complex FFT");
}
BENCHMARK(BM_SingleSpectrum_Rebuild)->Unit(benchmark::kMicrosecond);

void BM_SingleSpectrum_Cached(benchmark::State& state) {
  const std::vector<double> x = test_waveform();
  dsp::SpectrumConfig cfg;
  dsp::Spectrum spec;
  dsp::amplitude_spectrum(x, kRate, cfg, spec);  // warm caches + arena
  for (auto _ : state) {
    dsp::amplitude_spectrum(x, kRate, cfg, spec);
    benchmark::DoNotOptimize(spec.amplitude.data());
  }
  state.SetLabel("cached plan+window, real-input FFT, zero alloc");
}
BENCHMARK(BM_SingleSpectrum_Cached)->Unit(benchmark::kMicrosecond);

void BM_WelchPsd_Cached(benchmark::State& state) {
  const std::vector<double> x = test_waveform();
  dsp::Spectrum psd;
  dsp::welch_psd(x, kRate, 1024, dsp::WindowKind::Hann, psd);
  for (auto _ : state) {
    dsp::welch_psd(x, kRate, 1024, dsp::WindowKind::Hann, psd);
    benchmark::DoNotOptimize(psd.amplitude.data());
  }
  state.SetLabel("15 overlapped 1024-pt segments");
}
BENCHMARK(BM_WelchPsd_Cached)->Unit(benchmark::kMicrosecond);

void BM_FeatureFrame_Cached(benchmark::State& state) {
  const std::vector<double> x = test_waveform();
  const rules::FeatureExtractor extractor(domain::navy_chiller_signature());
  rules::FeatureFrame frame;
  extractor.extract_vibration(x, kRate, frame);
  for (auto _ : state) {
    extractor.extract_vibration(x, kRate, frame);
    benchmark::DoNotOptimize(&frame);
  }
  state.SetLabel("full vibration feature frame (spectrum+envelope)");
}
BENCHMARK(BM_FeatureFrame_Cached)->Unit(benchmark::kMicrosecond);

// The transforms a DC test runs, alone: per accelerometer two 4096-point
// complex FFTs under the 8192-point real spectra and one 8192-point complex
// inverse (the envelope); per current record one 16384-point complex FFT
// under a 32768-point real spectrum. Each rep transforms a fresh copy of
// one seeded signal; the copy is not timed.
std::vector<dsp::Complex> kernel_input(std::size_t n) {
  std::vector<dsp::Complex> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    x[i] = dsp::Complex(std::sin(0.0137 * t) + 0.25 * std::cos(1.91 * t),
                        std::cos(0.0291 * t) - 0.5 * std::sin(2.73 * t));
  }
  return x;
}

std::vector<double> real_kernel_input(std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    x[i] = std::sin(0.0137 * t) + 0.25 * std::cos(1.91 * t);
  }
  return x;
}

void BM_ComplexFft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool inverse = state.range(1) != 0;
  const dsp::FftPlan plan(n);
  const std::vector<dsp::Complex> input = kernel_input(n);
  std::vector<dsp::Complex> x = input;
  for (auto _ : state) {
    state.PauseTiming();
    x = input;
    state.ResumeTiming();
    inverse ? plan.inverse(x) : plan.forward(x);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(inverse ? "complex inverse" : "complex forward");
}
BENCHMARK(BM_ComplexFft)
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->Args({8192, 0})
    ->Args({8192, 1})
    ->Args({16384, 0})
    ->Args({16384, 1})
    ->Unit(benchmark::kMicrosecond);

void BM_RealFft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const dsp::RealFftPlan plan(n);
  const std::vector<double> x = real_kernel_input(n);
  std::vector<dsp::Complex> half(plan.bins());
  std::vector<dsp::Complex> scratch(plan.scratch_size());
  for (auto _ : state) {
    plan.forward(x, half, scratch);
    benchmark::DoNotOptimize(half.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel("real forward (pack, n/2-point FFT, split)");
}
BENCHMARK(BM_RealFft)->Arg(8192)->Arg(32768)->Unit(benchmark::kMicrosecond);

// One DC vibration test's records, acquired from a seeded chiller at the
// DC's default rates and lengths (DcConfig).
struct DcTestRecords {
  std::vector<double> current = std::vector<double>(32768);
  std::vector<double> vibration[3] = {std::vector<double>(8192),
                                      std::vector<double>(8192),
                                      std::vector<double>(8192)};
  double load = 0.0;
};

constexpr double kCurrentRate = 4096.0;
constexpr plant::MachinePoint kPoints[3] = {plant::MachinePoint::Motor,
                                            plant::MachinePoint::Gearbox,
                                            plant::MachinePoint::Compressor};

std::vector<DcTestRecords> acquire_dc_tests(std::size_t tests) {
  plant::ChillerSimulator chiller;
  std::vector<DcTestRecords> out(tests);
  for (DcTestRecords& r : out) {
    chiller.advance(SimTime::from_seconds(600.0));
    chiller.acquire_current(kCurrentRate, r.current);
    for (std::size_t p = 0; p < 3; ++p) {
      chiller.acquire_vibration(kPoints[p], kRate, r.vibration[p]);
    }
    r.load = chiller.load();
  }
  return out;
}

/// The analysis of run_vibration_test on one test's records.
void analyze_dc_test(const DcTestRecords& r, dc::SensorValidator& validator,
                     const rules::FeatureExtractor& extractor) {
  (void)validator.check_window(domain::Channel::CurrentMotor, r.current);
  for (std::size_t p = 0; p < 3; ++p) {
    (void)validator.check_window(plant::vibration_channel(kPoints[p]),
                                 r.vibration[p]);
    rules::FeatureFrame frame;
    extractor.extract_vibration(r.vibration[p], kRate, frame);
    if (kPoints[p] == plant::MachinePoint::Motor) {
      extractor.extract_current(r.current, kCurrentRate, r.load, frame);
    }
    benchmark::DoNotOptimize(&frame);
  }
}

void BM_DcTestAnalysis(benchmark::State& state) {
  const std::vector<DcTestRecords> tests = acquire_dc_tests(8);
  dc::SensorValidator validator;
  const rules::FeatureExtractor extractor(domain::navy_chiller_signature());
  std::size_t i = 0;
  for (auto _ : state) {
    analyze_dc_test(tests[i++ % tests.size()], validator, extractor);
  }
  state.SetLabel("4 screens + 3 vibration frames + 1 current frame");
}
BENCHMARK(BM_DcTestAnalysis)->Unit(benchmark::kMicrosecond);

// Median-of-reps wall time in nanoseconds for the JSON snapshot; `setup`
// runs before each rep, untimed.
template <typename Setup, typename Fn>
double median_ns(std::size_t reps, Setup&& setup, Fn&& fn) {
  std::vector<double> samples(reps);
  for (double& s : samples) {
    setup();
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    s = std::chrono::duration<double, std::nano>(t1 - t0).count();
  }
  std::nth_element(samples.begin(), samples.begin() + reps / 2,
                   samples.end());
  return samples[reps / 2];
}

template <typename Fn>
double median_ns(std::size_t reps, Fn&& fn) {
  return median_ns(reps, [] {}, fn);
}

double complex_fft_ns(std::size_t n, bool inverse, std::size_t reps) {
  const dsp::FftPlan plan(n);
  const std::vector<dsp::Complex> input = kernel_input(n);
  std::vector<dsp::Complex> x = input;
  return median_ns(
      reps, [&] { x = input; },
      [&] { inverse ? plan.inverse(x) : plan.forward(x); });
}

double real_fft_ns(std::size_t n, std::size_t reps) {
  const dsp::RealFftPlan plan(n);
  const std::vector<double> x = real_kernel_input(n);
  std::vector<dsp::Complex> half(plan.bins());
  std::vector<dsp::Complex> scratch(plan.scratch_size());
  plan.forward(x, half, scratch);
  return median_ns(reps, [&] { plan.forward(x, half, scratch); });
}

void write_json_snapshot() {
  const std::vector<double> x = test_waveform();
  dsp::Spectrum spec;
  dsp::SpectrumConfig cfg;
  const rules::FeatureExtractor extractor(domain::navy_chiller_signature());
  rules::FeatureFrame frame;

  // Warm the caches so the cached numbers are steady state.
  dsp::amplitude_spectrum(x, kRate, cfg, spec);
  extractor.extract_vibration(x, kRate, frame);

  const double rebuild =
      median_ns(60, [&] { legacy_amplitude_spectrum(x, kRate, spec); });
  const double cached =
      median_ns(400, [&] { dsp::amplitude_spectrum(x, kRate, cfg, spec); });
  const double feature_frame =
      median_ns(100, [&] { extractor.extract_vibration(x, kRate, frame); });

  const std::vector<DcTestRecords> tests = acquire_dc_tests(8);
  dc::SensorValidator validator;
  for (const DcTestRecords& t : tests) {
    analyze_dc_test(t, validator, extractor);  // warm every cache and lane
  }
  std::size_t next = 0;
  const double dc_test = median_ns(80, [&] {
    analyze_dc_test(tests[next++ % tests.size()], validator, extractor);
  });
  const std::uint64_t magnitudes_before = g_magnitudes.load();
  for (const DcTestRecords& t : tests) analyze_dc_test(t, validator, extractor);
  const std::uint64_t magnitudes_per_test =
      (g_magnitudes.load() - magnitudes_before) / tests.size();

  constexpr std::size_t kComplexSizes[] = {4096, 8192, 16384};
  double complex_ns[3][2] = {};
  for (std::size_t i = 0; i < 3; ++i) {
    complex_ns[i][0] = complex_fft_ns(kComplexSizes[i], false, 200);
    complex_ns[i][1] = complex_fft_ns(kComplexSizes[i], true, 200);
  }
  const double real_8192 = real_fft_ns(8192, 200);
  const double real_32768 = real_fft_ns(32768, 200);

  std::FILE* f = std::fopen("BENCH_DSP.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_dsp: cannot write BENCH_DSP.json\n");
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"experiment\": \"E16\",\n"
               "  \"fft_size\": %zu,\n"
               "  \"sample_rate_hz\": %.0f,\n"
               "  \"single_spectrum_rebuild_ns\": %.0f,\n"
               "  \"single_spectrum_cached_ns\": %.0f,\n"
               "  \"single_spectrum_speedup\": %.2f,\n"
               "  \"feature_frame_cached_ns\": %.0f,\n"
               "  \"dc_test_analysis_ns\": %.0f,\n"
               "  \"dc_test_magnitudes\": %llu,\n"
               "  \"fft_complex_4096_forward_ns\": %.0f,\n"
               "  \"fft_complex_4096_inverse_ns\": %.0f,\n"
               "  \"fft_complex_8192_forward_ns\": %.0f,\n"
               "  \"fft_complex_8192_inverse_ns\": %.0f,\n"
               "  \"fft_complex_16384_forward_ns\": %.0f,\n"
               "  \"fft_complex_16384_inverse_ns\": %.0f,\n"
               "  \"fft_real_8192_forward_ns\": %.0f,\n"
               "  \"fft_real_32768_forward_ns\": %.0f\n"
               "}\n",
               kWindow, kRate, rebuild, cached, rebuild / cached,
               feature_frame, dc_test,
               static_cast<unsigned long long>(magnitudes_per_test),
               complex_ns[0][0], complex_ns[0][1], complex_ns[1][0],
               complex_ns[1][1], complex_ns[2][0], complex_ns[2][1], real_8192,
               real_32768);
  std::fclose(f);
  std::printf("single spectrum: rebuild %.1f us -> cached %.1f us (%.2fx)\n",
              rebuild / 1e3, cached / 1e3, rebuild / cached);
  std::printf("feature frame  : %.1f us\n", feature_frame / 1e3);
  std::printf("DC test        : %.1f us, %llu magnitudes  "
              "(BENCH_DSP.json written)\n",
              dc_test / 1e3,
              static_cast<unsigned long long>(magnitudes_per_test));
  for (std::size_t i = 0; i < 3; ++i) {
    std::printf("complex %5zu   : forward %.1f us, inverse %.1f us\n",
                kComplexSizes[i], complex_ns[i][0] / 1e3,
                complex_ns[i][1] / 1e3);
  }
  std::printf("real 8192/32768: forward %.1f / %.1f us\n", real_8192 / 1e3,
              real_32768 / 1e3);
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "\nE16 DSP fast path (ISSUE 2; acceptance: >=2x single spectrum)\n"
      "  compare: BM_SingleSpectrum_Rebuild vs BM_SingleSpectrum_Cached\n"
      "  (rebuild = seed behaviour: plan + window built per call, full\n"
      "  complex FFT; cached = shared plan/window caches, real-input\n"
      "  transform, per-thread scratch arena)\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  write_json_snapshot();
  return 0;
}
