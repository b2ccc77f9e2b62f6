#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

// Same idiom as tests/ingest_alloc_test.cpp: a counting hook over malloc.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t pages_total = 0;
  std::uint64_t pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return pages_resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

void release_freed_memory() { (void)malloc_trim(0); }

void set_alloc_counting(bool on) {
  g_count_allocs.store(on, std::memory_order_relaxed);
}

std::uint64_t allocations() {
  return g_allocs.load(std::memory_order_relaxed);
}

int SpanLog::open(std::string name, std::int64_t window, int parent,
                  bool inclusive) {
  Span s;
  s.name = std::move(name);
  s.window = window;
  s.parent = parent;
  s.inclusive = inclusive;
  s.start_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  s.end_us = s.start_us;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

double SpanLog::close(int index) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  return (s.end_us - s.start_us) * 1e3;
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"parent\":%d,\"window\":%lld,"
                 "\"inclusive\":%s}%s\n",
                 i, s.name.c_str(), s.start_us, s.end_us, s.parent,
                 static_cast<long long>(s.window),
                 s.inclusive ? "true" : "false",
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

void Samples::add_round(const std::vector<double>& windows,
                        const std::vector<double>& renders) {
  window_ms.insert(window_ms.end(), windows.begin(), windows.end());
  render_ms.insert(render_ms.end(), renders.begin(), renders.end());
}

void report_end_to_end(const Samples& s, Result& out) {
  const auto n = [](const std::vector<double>& v) {
    return "n=" + std::to_string(v.size());
  };
  out.end_to_end.push_back(
      {"setup_s", median(s.setup_s), "s", n(s.setup_s)});
  out.end_to_end.push_back(
      {"render_ms_p50", percentile(s.render_ms, 50), "ms", n(s.render_ms)});
  out.end_to_end.push_back({"cpu_ms_per_window", median(s.cpu_ms_per_window),
                            "ms", n(s.cpu_ms_per_window)});
  out.end_to_end.push_back({"peak_rss_mb", peak_rss_mb(), "MB", ""});
  // Printed, not gated: window wall time needs several threads scheduled at
  // once, and on a shared host its run-to-run spread exceeds the largest
  // bound a gated metric may have (README, steadiness record).
  out.extra.push_back(
      {"window_ms_p50", percentile(s.window_ms, 50), "ms", n(s.window_ms)});
  out.extra.push_back(
      {"window_ms_p95", percentile(s.window_ms, 95), "ms", n(s.window_ms)});
}

bool another_round(Clock::time_point t0, double seconds, std::size_t done,
                   std::size_t min_rounds) {
  if (done < min_rounds) return true;
  return ms_since(t0) < seconds * 1e3;
}

}  // namespace perfbench
