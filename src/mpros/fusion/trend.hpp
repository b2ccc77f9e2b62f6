#pragma once
// Temporal reasoning over severity histories (paper §10.1).
//
// "Third, temporal reasoning components could be implemented to scrutinize
// failure histories and provide better projections of future faults as
// they develop." The TrendProjector keeps a per-track history of reported
// severities, fits a robust linear trend, and projects when the severity
// will cross the failure line — yielding a data-driven prognostic vector
// that sharpens the gradient-derived defaults as evidence accumulates.

#include <optional>
#include <vector>

#include "mpros/common/clock.hpp"
#include "mpros/fusion/prognostic_fusion.hpp"

namespace mpros::fusion {

struct TrendConfig {
  std::size_t min_points = 3;     ///< history needed before projecting
  std::size_t max_points = 64;    ///< sliding window length
  double failure_severity = 1.0;  ///< severity treated as functional failure
  /// Severity slope below this (per day) is treated as "not degrading"
  /// (1e-3/day ≈ 3 years to traverse the severity scale — beyond any
  /// actionable horizon).
  double min_slope_per_day = 1e-3;
  /// Minimum fit quality before a projection is trusted; noisy plateaus
  /// (e.g. a fuzzy engine's saturated severity) must not project.
  double min_r_squared = 0.4;
};

/// Least-squares line fit over (time, severity) samples.
struct TrendFit {
  double slope_per_day = 0.0;
  double intercept = 0.0;  ///< severity at t = 0
  double r_squared = 0.0;  ///< fit quality, 0..1
};

class TrendProjector {
 public:
  explicit TrendProjector(TrendConfig cfg = {});

  /// Record one observed severity at absolute time `t` (out-of-order
  /// samples are inserted in time order; §5.1 disorder tolerance).
  void observe(SimTime t, double severity);

  [[nodiscard]] std::size_t history_size() const { return history_.size(); }
  [[nodiscard]] std::optional<TrendFit> fit() const;

  /// Projected time-to-failure from `now`, if the track is degrading.
  [[nodiscard]] std::optional<SimTime> time_to_failure(SimTime now) const;

  /// Data-driven prognostic vector from `now`: probability ramps along the
  /// projected severity trajectory (50% when projected severity hits the
  /// failure line, ~95% one projection interval beyond). Empty when the
  /// trend is flat, improving, or under-sampled.
  [[nodiscard]] PrognosticVector project(SimTime now) const;

  void clear() {
    history_.clear();
    head_ = 0;
  }

 private:
  struct Sample {
    SimTime t;
    double days;  ///< t.days(), computed once on arrival for fit()
    double severity;
  };

  /// Rotate storage so the oldest sample sits at index 0 (steady-state
  /// inserts keep the window circular to avoid an O(window) shift per
  /// observation; out-of-order arrivals and readers linearize first).
  void linearize();

  TrendConfig cfg_;
  /// Time-ordered when head_ == 0; otherwise circular with the oldest
  /// sample at head_ (only once the window is full).
  std::vector<Sample> history_;
  std::size_t head_ = 0;
};

}  // namespace mpros::fusion
