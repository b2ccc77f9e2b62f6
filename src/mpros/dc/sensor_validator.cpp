#include "mpros/dc/sensor_validator.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "mpros/dsp/scratch.hpp"
#include "mpros/dsp/select.hpp"
#include "mpros/telemetry/metrics.hpp"

namespace mpros::dc {

namespace {

struct ValidatorMetrics {
  telemetry::Counter& faults_detected;
  telemetry::Counter& quarantines;
  telemetry::Counter& releases;

  static ValidatorMetrics& instance() {
    static auto& reg = telemetry::Registry::instance();
    static ValidatorMetrics m{
        reg.counter("dc.sensor_faults_detected"),
        reg.counter("dc.channels_quarantined"),
        reg.counter("dc.channels_released"),
    };
    return m;
  }
};

/// The median and the MAD each need one buffer as long as the window. The
/// screens borrow the calling thread's FFT workspace: no transform runs
/// while they hold it, and the current record's spectrum grows it to the
/// current record's length anyway, so the screens add nothing to the arena.
std::span<double> screen_buffer(std::size_t n) {
  return dsp::DspScratch::local().fft_workspace_as_reals(n);
}

/// Robust scatter of value(0..n-1) about their median: 1.4826 * MAD ~ sigma
/// for Gaussian noise.
template <typename Value>
double robust_sigma(std::size_t n, const Value& value, double median,
                    std::span<double> work) {
  return 1.4826 * dsp::select_kth(
                      n, n / 2,
                      [&](std::size_t i) { return std::fabs(value(i) - median); },
                      work);
}

}  // namespace

std::optional<domain::SensorFaultKind> SensorValidator::screen_window(
    domain::Channel channel, std::span<const double> samples) const {
  if (samples.empty()) return std::nullopt;
  namespace sel = dsp::detail;
  const std::size_t n = samples.size();
  const std::size_t k = n / 2;
  const std::span<double> work = screen_buffer(n);
  std::array<double, sel::kSelectSample> sample;

  // The median's pass (dsp::select_kth in its parts) also checks
  // finiteness and finds the extremes. No NaN may reach a selection: a
  // sampled NaN is a dropout before the bracket is drawn, and the gather
  // sees every other non-finite value before anything is selected.
  const auto at = [samples](std::size_t i) { return samples[i]; };
  sel::Bracket b = sel::kEveryValue;
  if (n >= dsp::kSelectCutover) {
    const std::span<double> drawn = sel::draw_sample(n, at, sample);
    if (std::any_of(drawn.begin(), drawn.end(),
                    [](double s) { return std::isnan(s); })) {
      return domain::SensorFaultKind::Dropout;
    }
    b = sel::bracket_rank(drawn, n, k);
  }
  bool finite = true;
  double lo = samples[0];
  double hi = samples[0];
  const sel::Gathered g = sel::gather(n, b, at, work, [&](double s) {
    finite &= std::isfinite(s);
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  });
  if (!finite) return domain::SensorFaultKind::Dropout;
  if (hi - lo < cfg_.flatline_peak_to_peak) {
    return domain::SensorFaultKind::Flatline;
  }

  const double median = sel::select_gathered(n, k, at, g, work);
  const domain::ChannelSpec& spec = domain::spec(channel);
  if (median < spec.lo || median > spec.hi) {
    return domain::SensorFaultKind::OutOfRange;
  }

  // The MAD's pass also counts the deviations above the spike limit its
  // bracket's lower edge implies. Where that floor is at most the real
  // limit, every spike is among them, so fewer than spike_min_count of
  // them means no Spike without counting.
  const auto deviation = [samples, median](std::size_t i) {
    return std::fabs(samples[i] - median);
  };
  b = sel::kEveryValue;
  if (n >= dsp::kSelectCutover) {
    b = sel::bracket_rank(sel::draw_sample(n, deviation, sample), n, k);
  }
  const double spike_floor = cfg_.spike_sigmas * (1.4826 * b.lo);
  std::size_t over_floor = 0;
  const sel::Gathered gd = sel::gather(n, b, deviation, work, [&](double d) {
    over_floor += static_cast<std::size_t>(d > spike_floor);
  });
  const double sigma =
      1.4826 * sel::select_gathered(n, k, deviation, gd, work);
  if (sigma > 0.0) {
    const double limit = cfg_.spike_sigmas * sigma;
    if (spike_floor <= limit && over_floor < cfg_.spike_min_count) {
      return std::nullopt;
    }
    std::size_t spikes = 0;
    for (const double s : samples) {
      spikes += static_cast<std::size_t>(std::fabs(s - median) > limit);
    }
    if (spikes >= cfg_.spike_min_count) {
      return domain::SensorFaultKind::Spike;
    }
  }
  return std::nullopt;
}

std::optional<domain::SensorFaultKind> SensorValidator::screen_value(
    domain::Channel channel, ChannelState& state, double value) const {
  if (!std::isfinite(value)) return domain::SensorFaultKind::Dropout;

  const domain::ChannelSpec& spec = domain::spec(channel);
  if (value < spec.lo || value > spec.hi) {
    return domain::SensorFaultKind::OutOfRange;
  }

  if (state.has_last && value == state.last_value) {
    ++state.repeat_count;
  } else {
    state.repeat_count = 0;
  }
  state.last_value = value;
  state.has_last = true;
  if (state.repeat_count + 1 >= kFlatlineRepeats && !spec.flatline_exempt) {
    return domain::SensorFaultKind::Flatline;
  }

  if (state.history_size == kScalarHistory) {
    const auto held = [&](std::size_t j) {  // oldest first
      return state.history[(state.history_next + j) % kScalarHistory];
    };
    const std::span<double> work = screen_buffer(kScalarHistory);
    const double median =
        dsp::select_kth(kScalarHistory, kScalarHistory / 2, held, work);
    const double sigma = robust_sigma(kScalarHistory, held, median, work);
    if (sigma > 0.0 &&
        std::fabs(value - median) > cfg_.scalar_spike_sigmas * sigma) {
      return domain::SensorFaultKind::Spike;
    }
  }

  state.history[state.history_next] = value;
  state.history_next = (state.history_next + 1) % kScalarHistory;
  state.history_size = std::min(state.history_size + 1, kScalarHistory);
  return std::nullopt;
}

SensorValidator::Verdict SensorValidator::resolve(
    ChannelState& state, std::optional<domain::SensorFaultKind> fault) {
  ValidatorMetrics& metrics = ValidatorMetrics::instance();
  Verdict verdict;
  verdict.fault = fault;
  ++stats_.checks;

  if (fault.has_value()) {
    ++stats_.faults_detected;
    metrics.faults_detected.inc();
    state.clean_streak = 0;
    state.last_fault = *fault;
    if (!state.quarantined) {
      state.quarantined = true;
      verdict.newly_quarantined = true;
      ++stats_.quarantines;
      metrics.quarantines.inc();
    }
  } else if (state.quarantined) {
    if (++state.clean_streak >= cfg_.release_after) {
      state.quarantined = false;
      state.clean_streak = 0;
      verdict.released = true;
      verdict.cleared_kind = state.last_fault;
      ++stats_.releases;
      metrics.releases.inc();
    }
  }
  return verdict;
}

SensorValidator::Verdict SensorValidator::check_window(
    domain::Channel channel, std::span<const double> samples) {
  return resolve(channels_[domain::index(channel)],
                 screen_window(channel, samples));
}

SensorValidator::Verdict SensorValidator::check_value(domain::Channel channel,
                                                      double value) {
  ChannelState& state = channels_[domain::index(channel)];
  return resolve(state, screen_value(channel, state, value));
}

}  // namespace mpros::dc
