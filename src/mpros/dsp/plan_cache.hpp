#pragma once
// Process-wide FFT plan and window caches.
//
// The vibration test path runs the same handful of transform sizes on every
// acquisition, but plan construction (bit-reversal table + twiddles,
// O(n log n)) and window synthesis (n transcendental evaluations) used to be
// paid per call. These caches build each plan/window once per process and
// hand out stable references for its lifetime: nothing is ever evicted, so
// a returned reference stays valid forever and the steady-state lookup is a
// shared-lock map probe. Hits and misses are counted through the telemetry
// registry ("dsp.plan_cache_hit" / "dsp.plan_cache_miss" and the window
// equivalents); because entries are never evicted, the miss count equals
// the number of plans built. The "dsp.plan_cache_bytes" gauge holds the
// bytes the plans keep.

#include <cstddef>
#include <map>
#include <memory>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "mpros/dsp/fft.hpp"
#include "mpros/dsp/window.hpp"

namespace mpros::dsp {

/// Window coefficients with their normalization gains precomputed, so
/// spectrum code pays neither the cos() synthesis nor the gain reductions
/// per call.
struct CachedWindow {
  std::vector<double> coeffs;
  double coherent_gain = 0.0;  // sum of coefficients
  double power_gain = 0.0;     // sum of squared coefficients
};

/// Thread-safe cache of FftPlan / RealFftPlan keyed by transform size.
class PlanCache {
 public:
  static PlanCache& instance();

  /// n-point complex plan (n = power of two >= 2). Built on first request.
  const FftPlan& complex_plan(std::size_t n);

  /// n-real-sample packed plan (n = power of two >= 4).
  const RealFftPlan& real_plan(std::size_t n);

  /// Number of distinct plans currently cached (tests/diagnostics).
  [[nodiscard]] std::size_t size() const;

 private:
  /// Adds a new plan's bytes to the gauge; called under the exclusive lock.
  void count_bytes(std::size_t bytes);

  mutable std::shared_mutex mu_;
  std::map<std::size_t, std::unique_ptr<FftPlan>> complex_;
  std::map<std::size_t, std::unique_ptr<RealFftPlan>> real_;
  std::size_t bytes_ = 0;
};

/// Thread-safe cache of window tapers keyed by (kind, length).
class WindowCache {
 public:
  static WindowCache& instance();

  /// Window of `n` coefficients. Built on first request; the reference is
  /// stable for the life of the process.
  const CachedWindow& get(WindowKind kind, std::size_t n);

  [[nodiscard]] std::size_t size() const;

 private:
  using Key = std::pair<WindowKind, std::size_t>;
  mutable std::shared_mutex mu_;
  std::map<Key, std::unique_ptr<CachedWindow>> windows_;
};

}  // namespace mpros::dsp
