#include "mpros/telemetry/metrics.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace mpros::telemetry {

namespace {

void atomic_add(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
  }
}

void append(std::string& out, const char* fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 2, 3)))
#endif
    ;

void append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  if (bounds_.empty()) bounds_.push_back(1.0);
  std::sort(bounds_.begin(), bounds_.end());
}

void Histogram::observe(double v) {
  if (!enabled()) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

bool Histogram::max_exceeded() const {
  return buckets_.back().load(std::memory_order_relaxed) != 0;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  const std::vector<std::uint64_t> counts = bucket_counts();
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;

  const double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double next = cumulative + static_cast<double>(counts[i]);
    if (next >= target && counts[i] != 0) {
      // Interpolate within [lower, upper] of bucket i; the overflow bucket
      // has no upper bound, so report the last finite edge.
      if (i == counts.size() - 1) return bounds_.back();
      const double lower = i == 0 ? 0.0 : bounds_[i - 1];
      const double upper = bounds_[i];
      const double frac =
          counts[i] == 0
              ? 0.0
              : (target - cumulative) / static_cast<double>(counts[i]);
      return lower + (upper - lower) * std::clamp(frac, 0.0, 1.0);
    }
    cumulative = next;
  }
  return bounds_.back();
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> default_latency_bounds_us() {
  std::vector<double> bounds;
  for (double decade = 1.0; decade <= 1e6; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(decade * 2.0);
    bounds.push_back(decade * 5.0);
  }
  bounds.push_back(1e7);  // 10 s
  return bounds;
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  std::lock_guard lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

std::vector<MetricSnapshot> Registry::snapshot() const {
  std::lock_guard lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSnapshot s;
    s.name = name;
    s.kind = MetricSnapshot::Kind::Counter;
    s.value = static_cast<double>(c->value());
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSnapshot s;
    s.name = name;
    s.kind = MetricSnapshot::Kind::Gauge;
    s.value = g->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    MetricSnapshot s;
    s.name = name;
    s.kind = MetricSnapshot::Kind::Histogram;
    s.count = h->count();
    s.sum = h->sum();
    s.p50 = h->quantile(0.50);
    s.p95 = h->quantile(0.95);
    s.p99 = h->quantile(0.99);
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

std::string Registry::render_text() const {
  std::string out = "=== MPROS telemetry ===\n";
  for (const MetricSnapshot& s : snapshot()) {
    switch (s.kind) {
      case MetricSnapshot::Kind::Counter:
        append(out, "counter  %-40s %12.0f\n", s.name.c_str(), s.value);
        break;
      case MetricSnapshot::Kind::Gauge:
        append(out, "gauge    %-40s %12.3f\n", s.name.c_str(), s.value);
        break;
      case MetricSnapshot::Kind::Histogram:
        append(out,
               "hist     %-40s count=%llu mean=%.1f p50=%.1f p95=%.1f "
               "p99=%.1f\n",
               s.name.c_str(), static_cast<unsigned long long>(s.count),
               s.count == 0 ? 0.0 : s.sum / static_cast<double>(s.count),
               s.p50, s.p95, s.p99);
        break;
    }
  }
  return out;
}

void Registry::reset_values() {
  std::lock_guard lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace mpros::telemetry
