// Steady-state allocation audit for the DSP layer (ISSUE 2 acceptance).
//
// Overrides the global allocation functions with a counting hook, warms the
// plan/window caches and the per-thread scratch arena, then asserts that a
// further pass through every cached DSP entry point performs zero heap
// allocations. Lives in its own binary so the hook cannot distort the other
// test suites.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "mpros/dsp/cepstrum.hpp"
#include "mpros/dsp/envelope.hpp"
#include "mpros/dsp/fft.hpp"
#include "mpros/dsp/spectrum.hpp"
#include "mpros/wavelet/dwt.hpp"
#include "mpros/wavelet/features.hpp"

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

std::vector<double> test_signal(std::size_t n, double sample_rate_hz) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / sample_rate_hz;
    x[i] = std::sin(2.0 * M_PI * 297.0 * t) +
           0.4 * std::sin(2.0 * M_PI * 1850.0 * t) +
           0.05 * std::sin(2.0 * M_PI * 4321.0 * t);
  }
  return x;
}

TEST(DspAllocationTest, SteadyStateSpectralPipelineIsAllocationFree) {
  constexpr double kRate = 16384.0;
  const std::vector<double> x = test_signal(8192, kRate);

  dsp::SpectrumConfig cfg;
  cfg.fft_size = 8192;

  dsp::Spectrum spec;
  dsp::Spectrum welch;
  std::vector<double> env(x.size());
  std::vector<double> ceps(dsp::next_power_of_two(x.size()));

  const auto run_all = [&] {
    dsp::amplitude_spectrum(x, kRate, cfg, spec);
    (void)dsp::half_spectrum(x, kRate, cfg);
    dsp::welch_psd(x, kRate, 1024, dsp::WindowKind::Hann, welch);
    dsp::envelope_bandpassed(x, kRate, 2000.0, 6000.0, env);
    dsp::real_cepstrum(x, ceps);
  };

  // Two warm-up passes: the first builds plans, windows and scratch lanes,
  // the second lets every output container reach its final capacity.
  run_all();
  run_all();

  const std::uint64_t before = g_allocations.load();
  run_all();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "cached DSP pass allocated " << (after - before) << " time(s)";
}

TEST(DspAllocationTest, SteadyStateWaveletPathIsAllocationFree) {
  const std::vector<double> x = test_signal(4096, 16384.0);

  wavelet::Decomposition d;
  std::vector<double> feats(5 + 2);  // five levels' energies, approx, entropy

  const auto run_all = [&] {
    wavelet::decompose(x, wavelet::Family::Db4, 5, d);
    wavelet::wavelet_feature_vector(x, wavelet::Family::Db4, 5, feats);
  };

  run_all();
  run_all();

  const std::uint64_t before = g_allocations.load();
  run_all();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "cached wavelet pass allocated " << (after - before) << " time(s)";
}

}  // namespace
}  // namespace mpros
