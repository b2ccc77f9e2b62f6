#include "mpros/dsp/plan_cache.hpp"

#include <mutex>

#include "mpros/telemetry/metrics.hpp"

namespace mpros::dsp {
namespace {

telemetry::Counter& plan_hits() {
  static telemetry::Counter& c =
      telemetry::Registry::instance().counter("dsp.plan_cache_hit");
  return c;
}

telemetry::Counter& plan_misses() {
  static telemetry::Counter& c =
      telemetry::Registry::instance().counter("dsp.plan_cache_miss");
  return c;
}

telemetry::Counter& window_hits() {
  static telemetry::Counter& c =
      telemetry::Registry::instance().counter("dsp.window_cache_hit");
  return c;
}

telemetry::Counter& window_misses() {
  static telemetry::Counter& c =
      telemetry::Registry::instance().counter("dsp.window_cache_miss");
  return c;
}

/// Shared-lock probe, upgrade to exclusive only on miss. `build` runs
/// outside any lock contention concern (under the exclusive lock) but only
/// for the first requester of a key.
template <typename Map, typename Build>
const typename Map::mapped_type::element_type& lookup_or_build(
    std::shared_mutex& mu, Map& map, const typename Map::key_type& key,
    telemetry::Counter& hits, telemetry::Counter& misses,
    const Build& build) {
  {
    std::shared_lock lock(mu);
    const auto it = map.find(key);
    if (it != map.end()) {
      hits.inc();
      return *it->second;
    }
  }
  std::unique_lock lock(mu);
  auto [it, inserted] = map.try_emplace(key);
  if (inserted) {
    misses.inc();
    it->second = build();
  } else {
    hits.inc();  // another thread built it while we waited for the lock
  }
  return *it->second;
}

}  // namespace

PlanCache& PlanCache::instance() {
  static PlanCache cache;
  return cache;
}

const FftPlan& PlanCache::complex_plan(std::size_t n) {
  return lookup_or_build(mu_, complex_, n, plan_hits(), plan_misses(),
                         [this, n] {
                           auto plan = std::make_unique<FftPlan>(n);
                           count_bytes(plan->footprint_bytes());
                           return plan;
                         });
}

const RealFftPlan& PlanCache::real_plan(std::size_t n) {
  return lookup_or_build(mu_, real_, n, plan_hits(), plan_misses(),
                         [this, n] {
                           auto plan = std::make_unique<RealFftPlan>(n);
                           count_bytes(plan->footprint_bytes());
                           return plan;
                         });
}

void PlanCache::count_bytes(std::size_t bytes) {
  static telemetry::Gauge& gauge =
      telemetry::Registry::instance().gauge("dsp.plan_cache_bytes");
  bytes_ += bytes;
  gauge.set(static_cast<double>(bytes_));
}

std::size_t PlanCache::size() const {
  std::shared_lock lock(mu_);
  return complex_.size() + real_.size();
}

WindowCache& WindowCache::instance() {
  static WindowCache cache;
  return cache;
}

const CachedWindow& WindowCache::get(WindowKind kind, std::size_t n) {
  return lookup_or_build(mu_, windows_, Key{kind, n}, window_hits(),
                         window_misses(), [kind, n] {
                           auto w = std::make_unique<CachedWindow>();
                           w->coeffs = make_window(kind, n);
                           w->coherent_gain = coherent_gain(w->coeffs);
                           w->power_gain = power_gain(w->coeffs);
                           return w;
                         });
}

std::size_t WindowCache::size() const {
  std::shared_lock lock(mu_);
  return windows_.size();
}

}  // namespace mpros::dsp
