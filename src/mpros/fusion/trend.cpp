#include "mpros/fusion/trend.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "mpros/common/assert.hpp"

namespace mpros::fusion {

TrendProjector::TrendProjector(TrendConfig cfg) : cfg_(cfg) {
  MPROS_EXPECTS(cfg.min_points >= 2);
  MPROS_EXPECTS(cfg.max_points >= cfg.min_points);
}

void TrendProjector::linearize() {
  if (head_ == 0) return;
  std::rotate(history_.begin(),
              history_.begin() + static_cast<std::ptrdiff_t>(head_),
              history_.end());
  head_ = 0;
}

void TrendProjector::observe(SimTime t, double severity) {
  MPROS_EXPECTS(severity >= 0.0 && severity <= 1.0);
  if (history_.size() == cfg_.max_points && cfg_.max_points > 0) {
    const std::size_t newest = (head_ + history_.size() - 1) % history_.size();
    if (!(t < history_[newest].t)) {
      // Full window, in-order arrival (the ingest steady state): overwrite
      // the oldest slot in place. Equivalent to the general path below —
      // insert at the end, then drop the front — without the O(window)
      // shift per report.
      history_[head_] = Sample{t, t.days(), severity};
      head_ = (head_ + 1) % history_.size();
      return;
    }
    linearize();
  }
  const auto pos = std::upper_bound(
      history_.begin(), history_.end(), t,
      [](SimTime value, const Sample& s) { return value < s.t; });
  history_.insert(pos, Sample{t, t.days(), severity});
  if (history_.size() > cfg_.max_points) {
    history_.erase(history_.begin());
  }
}

std::optional<TrendFit> TrendProjector::fit() const {
  if (history_.size() < cfg_.min_points) return std::nullopt;

  // The circular window in time order is two contiguous runs: [head_, end)
  // then [0, head_). Both passes visit them in that order so the sums
  // accumulate exactly as over a flat, time-ordered vector.
  const std::span<const Sample> older(history_.data() + head_,
                                      history_.size() - head_);
  const std::span<const Sample> newer(history_.data(), head_);
  const double n = static_cast<double>(history_.size());
  double sum_t = 0.0, sum_s = 0.0;
  for (const std::span<const Sample> run : {older, newer}) {
    for (const Sample& p : run) {
      sum_t += p.days;
      sum_s += p.severity;
    }
  }
  const double mean_t = sum_t / n;
  const double mean_s = sum_s / n;

  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (const std::span<const Sample> run : {older, newer}) {
    for (const Sample& p : run) {
      const double dt = p.days - mean_t;
      const double ds = p.severity - mean_s;
      sxx += dt * dt;
      sxy += dt * ds;
      syy += ds * ds;
    }
  }
  if (sxx <= 0.0) return std::nullopt;  // all samples at one instant

  TrendFit f;
  f.slope_per_day = sxy / sxx;
  f.intercept = mean_s - f.slope_per_day * mean_t;
  f.r_squared = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
  return f;
}

std::optional<SimTime> TrendProjector::time_to_failure(SimTime now) const {
  const auto f = fit();
  if (!f || f->slope_per_day < cfg_.min_slope_per_day ||
      f->r_squared < cfg_.min_r_squared) {
    return std::nullopt;
  }

  const double days_to_failure =
      (cfg_.failure_severity - (f->intercept + f->slope_per_day * now.days())) /
      f->slope_per_day;
  if (days_to_failure <= 0.0) return SimTime(0);
  return SimTime::from_days(days_to_failure);
}

PrognosticVector TrendProjector::project(SimTime now) const {
  const auto ttf = time_to_failure(now);
  if (!ttf) return PrognosticVector{};

  // Probability shape around the projected crossing: failure is as likely
  // as not at the crossing, and nearly certain 50% further out. The head
  // of the curve stays shallow so early projections are not alarmist.
  const double ttf_days = std::max(0.01, ttf->days());
  std::vector<PrognosticPoint> points;
  points.push_back({SimTime::from_days(0.5 * ttf_days), 0.10});
  points.push_back({SimTime::from_days(ttf_days), 0.50});
  points.push_back({SimTime::from_days(1.5 * ttf_days), 0.95});
  return PrognosticVector(std::move(points));
}

}  // namespace mpros::fusion
