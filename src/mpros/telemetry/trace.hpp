#pragma once
// Pipeline tracing: follow one acquisition end to end.
//
// A DC derives a TraceId when a test fires, stamps it on every §7 report
// the test produces (the id rides the wire in the report header), and each
// stage the report crosses — DC analysis, network transit, PDME fusion —
// records a SpanRecord against the id. spans_for() then reconstructs the
// DAQ → scheduler → codec → fusion timeline of any report with per-stage
// simulated timing and measured wall cost.
//
// Spans are kept in a bounded ring (old spans are evicted, never blocked
// on); recording is mutex-guarded but runs at report rate, not sample
// rate, so it stays off the hot path.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "mpros/telemetry/metrics.hpp"

namespace mpros::telemetry {

/// 0 means "untraced". A DC stamps (DcId << 40) | n, n its own 1-based
/// count of tests and scans, so no worker count moves an id. Ids are unique
/// within one ship: two hulls in one process may share ids (the global
/// Tracer ring is read only by TraceTest), and a recovered DC restarts n.
using TraceId = std::uint64_t;

struct SpanRecord {
  TraceId trace = 0;
  std::string stage;            ///< "dc.vibration_test", "net.transit", ...
  std::int64_t sim_start_us = 0;
  std::int64_t sim_end_us = 0;  ///< == start for instantaneous stages
  std::int64_t wall_ns = 0;     ///< measured cost of the stage, 0 if n/a

  friend bool operator==(const SpanRecord&, const SpanRecord&) = default;
};

class Tracer {
 public:
  static Tracer& instance();

  /// Evicts the oldest spans beyond `n` (and future overflow).
  void set_capacity(std::size_t n);

  void record(SpanRecord span);  // no-op while telemetry is disabled

  /// Spans for one trace, record order.
  [[nodiscard]] std::vector<SpanRecord> spans_for(TraceId trace) const;
  /// Everything retained, oldest first.
  [[nodiscard]] std::vector<SpanRecord> recent() const;

  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::uint64_t evicted() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> ring_;  // ring_[ (start_ + i) % capacity_ ]
  std::size_t capacity_ = 4096;
  std::size_t start_ = 0;
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t evicted_ = 0;
};

/// RAII helper: measures the wall cost of a scope and records one span on
/// destruction. Simulated end defaults to the simulated start (stages whose
/// simulated duration is implicit) — override with set_sim_end().
class StageTimer {
 public:
  /// `wall_us` (optional) also receives the measured wall cost in
  /// microseconds, so a stage can feed both its trace and its histogram.
  StageTimer(std::string stage, TraceId trace, std::int64_t sim_now_us,
             Histogram* wall_us = nullptr);
  ~StageTimer();

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  void set_sim_end(std::int64_t sim_end_us) { sim_end_us_ = sim_end_us; }

 private:
  std::string stage_;
  TraceId trace_;
  std::int64_t sim_start_us_;
  std::int64_t sim_end_us_;
  std::int64_t wall_start_ns_;
  Histogram* wall_us_;
};

}  // namespace mpros::telemetry
