#pragma once
// Shared plumbing of the pipeline cost ledger: options, clocks, resource
// probes, the counting allocator switch, the in-memory span log and the
// result every workload returns.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the benchmark's own smoke test.
  bool smoke = false;
  /// Scratch directory (WAL directories, span files), inside the checkout.
  std::string run_dir = ".bench_run";
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Linear-interpolated percentile (p in [0, 100]) of `v`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s();
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] std::uint64_t current_rss_bytes();
/// Hand freed heap back to the OS between rounds, so peak RSS is one
/// round's footprint however the allocator happened to keep earlier ones.
void release_freed_memory();

/// The benchmark binary replaces the global operator new with a counting
/// one; it counts only while switched on (traced replays), so untraced runs
/// pay one relaxed load per allocation.
void set_alloc_counting(bool on);
[[nodiscard]] std::uint64_t allocations();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< printed beside the value (sample counts, bases)
};

/// One timed call at a layer boundary, kept in memory and written out when
/// the benchmark ends.
struct Span {
  std::string name;
  double start_us = 0.0;  ///< since the span log's origin
  double end_us = 0.0;
  int parent = -1;        ///< index into the log, -1 for a root
  std::int64_t window = -1;
  bool inclusive = false;  ///< covers nested layers (dc.window: plant + DSP)
};

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  int open(std::string name, std::int64_t window, int parent = -1,
           bool inclusive = false);
  /// Closes span `index`; returns its duration in nanoseconds.
  double close(int index);

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

struct Result {
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;  ///< the names BENCHMARK.json gates
  std::vector<Metric> extra;       ///< workload-specific, printed only
  std::vector<Metric> layers;      ///< per-layer ledger (traced runs)
  /// Per-round counts that must repeat exactly for one seed.
  std::vector<std::pair<std::string, std::uint64_t>> counts;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void count(std::string name, std::uint64_t value) {
    counts.emplace_back(std::move(name), value);
  }
};

/// Extra constructions timed before each round, so setup_s is a median of
/// many, spread over the run rather than bunched at its start.
constexpr int kSetupRepeats = 10;

/// Samples gathered across the rounds of one run.
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> window_ms;
  std::vector<double> render_ms;
  std::vector<double> gap_ms;        ///< generator lateness / inter-window gap
  std::vector<double> throughput;    ///< per round
  std::vector<double> cpu_ms_per_window;  ///< per round

  void add_round(const std::vector<double>& windows,
                 const std::vector<double>& renders);
};

/// Fill the gated end-to-end metrics from the samples.
void report_end_to_end(const Samples& s, Result& out);

/// Round loop: keeps starting rounds until `seconds` have elapsed, with at
/// least `min_rounds`.
[[nodiscard]] bool another_round(Clock::time_point t0, double seconds,
                                 std::size_t done, std::size_t min_rounds);

}  // namespace perfbench
