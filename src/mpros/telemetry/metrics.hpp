#pragma once
// Lock-light metrics for the MPROS hot paths.
//
// The DAQ digitizes tens of thousands of samples per simulated second and
// the PDME fuses reports from every DC on the ship; neither can afford a
// mutex per observation. Counters and gauges are single relaxed atomics;
// histograms are fixed-bucket with one atomic per bucket, so concurrent
// observers never contend on anything wider than a cache line of counts.
// Registration (name -> metric) takes a mutex, but components look their
// metrics up once and keep the reference: the Registry never deletes a
// metric, so references stay valid for the life of the process.
//
// Names are namespaced "component.metric" ("daq.samples_digitized",
// "pdme.fuse_wall_us") so snapshots group naturally per component.
//
// This library sits *below* mpros::common (the logger counts Warn/Error
// per component through it), so it depends on nothing but the standard
// library.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mpros::telemetry {

namespace detail {
inline std::atomic<bool> g_enabled{true};
}  // namespace detail

/// Global kill switch. Disabled, every inc()/set()/observe() is a relaxed
/// load + branch — the baseline `bench_telemetry_overhead` compares against.
inline void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}
[[nodiscard]] inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Monotonic event count. inc() is one relaxed fetch_add.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    if (enabled()) v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) {
    if (enabled()) v_.store(v, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram. `upper_bounds` (ascending) define the bucket
/// edges; an implicit overflow bucket catches everything above the last
/// bound. Quantiles interpolate linearly inside the owning bucket, so a
/// reported quantile is always within that bucket's [lower, upper] bounds.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const;
  /// q in [0, 1]. Returns 0 while empty; the last bound caps the overflow
  /// bucket (an estimate, flagged by max_exceeded()).
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] bool max_exceeded() const;

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default latency buckets: 1-2-5 sequence from 1 us to 10 s.
[[nodiscard]] std::vector<double> default_latency_bounds_us();

struct MetricSnapshot {
  enum class Kind { Counter, Gauge, Histogram };
  std::string name;
  Kind kind = Kind::Counter;
  double value = 0.0;       ///< counter/gauge reading
  std::uint64_t count = 0;  ///< histogram observations
  double sum = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

/// Process-wide metric namespace. counter()/gauge()/histogram() create on
/// first use and return a stable reference; snapshot() reads everything
/// without disturbing writers.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` applies only on first creation of `name`.
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = default_latency_bounds_us());

  [[nodiscard]] std::vector<MetricSnapshot> snapshot() const;  // name order
  [[nodiscard]] std::string render_text() const;

  /// Zero every metric (keeps registrations; for tests and benches).
  void reset_values();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace mpros::telemetry
