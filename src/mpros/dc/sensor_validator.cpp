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

SensorValidatorConfig chiller_validator_config() {
  SensorValidatorConfig cfg;
  // Accelerometers saturate long before 80 g on this frame size; motor
  // supply current is bipolar instantaneous amperes.
  for (const char* vib : {"vib.motor", "vib.gearbox", "vib.compressor"}) {
    cfg.ranges[vib] = PhysicalRange{-80.0, 80.0};
  }
  cfg.ranges["current.motor"] = PhysicalRange{-1500.0, 1500.0};
  cfg.ranges["process.load"] = PhysicalRange{-0.1, 1.5};
  cfg.ranges["process.evap_pressure_kpa"] = PhysicalRange{0.0, 2000.0};
  cfg.ranges["process.cond_pressure_kpa"] = PhysicalRange{0.0, 3000.0};
  cfg.ranges["process.chw_supply_c"] = PhysicalRange{-10.0, 60.0};
  cfg.ranges["process.superheat_c"] = PhysicalRange{-20.0, 60.0};
  cfg.ranges["process.oil_pressure_kpa"] = PhysicalRange{0.0, 1500.0};
  cfg.ranges["process.oil_temp_c"] = PhysicalRange{-10.0, 150.0};
  cfg.ranges["process.winding_temp_c"] = PhysicalRange{-10.0, 250.0};
  cfg.ranges["process.bearing_temp_c"] = PhysicalRange{-10.0, 200.0};
  cfg.ranges["process.cond_approach_c"] = PhysicalRange{-10.0, 60.0};
  cfg.ranges["process.motor_current_a"] = PhysicalRange{0.0, 2000.0};
  // The load key echoes the commanded setpoint — no instrument noise, so
  // exact repeats are normal, not a stuck DAC.
  cfg.flatline_exempt.insert("process.load");
  return cfg;
}

SensorValidator::SensorValidator(SensorValidatorConfig cfg)
    : cfg_(std::move(cfg)) {}

std::optional<domain::SensorFaultKind> SensorValidator::screen_window(
    const std::string& channel, std::span<const double> samples) const {
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
  if (const auto range_it = cfg_.ranges.find(channel);
      range_it != cfg_.ranges.end()) {
    const PhysicalRange& r = range_it->second;
    if (median < r.lo || median > r.hi) {
      return domain::SensorFaultKind::OutOfRange;
    }
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
    const std::string& channel, ChannelState& state, double value) const {
  if (!std::isfinite(value)) return domain::SensorFaultKind::Dropout;

  if (const auto range_it = cfg_.ranges.find(channel);
      range_it != cfg_.ranges.end()) {
    const PhysicalRange& r = range_it->second;
    if (value < r.lo || value > r.hi) {
      return domain::SensorFaultKind::OutOfRange;
    }
  }

  if (state.has_last && value == state.last_value) {
    ++state.repeat_count;
  } else {
    state.repeat_count = 0;
  }
  state.last_value = value;
  state.has_last = true;
  if (state.repeat_count + 1 >= cfg_.flatline_repeats &&
      !cfg_.flatline_exempt.contains(channel)) {
    return domain::SensorFaultKind::Flatline;
  }

  const std::size_t n = state.history_size;
  if (n > 0 && n >= cfg_.scalar_history) {
    const std::size_t slots = state.history.size();
    const std::size_t first = state.history_next + slots - n;
    const auto held = [&](std::size_t j) {
      return state.history[(first + j) % slots];
    };
    const std::span<double> work = screen_buffer(n);
    const double median = dsp::select_kth(n, n / 2, held, work);
    const double sigma = robust_sigma(n, held, median, work);
    if (sigma > 0.0 &&
        std::fabs(value - median) > cfg_.scalar_spike_sigmas * sigma) {
      return domain::SensorFaultKind::Spike;
    }
  }

  remember(state, value);
  return std::nullopt;
}

void SensorValidator::remember(ChannelState& state, double value) const {
  const std::size_t limit = cfg_.scalar_history;
  if (state.history.size() < limit) {
    // Unroll the ring oldest-first before it grows; only a longer
    // `scalar_history` gets here after the first readings.
    std::rotate(state.history.begin(),
                state.history.begin() +
                    static_cast<std::ptrdiff_t>(state.history_next),
                state.history.end());
    state.history_next = state.history.size();
    state.history.resize(limit);
  }
  if (state.history.empty()) return;
  state.history[state.history_next] = value;
  state.history_next = (state.history_next + 1) % state.history.size();
  state.history_size = std::min(state.history_size + 1, limit);
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
    const std::string& channel, std::span<const double> samples) {
  return resolve(channels_[channel], screen_window(channel, samples));
}

SensorValidator::Verdict SensorValidator::check_value(
    const std::string& channel, double value) {
  ChannelState& state = channels_[channel];
  return resolve(state, screen_value(channel, state, value));
}

bool SensorValidator::quarantined(const std::string& channel) const {
  const auto it = channels_.find(channel);
  return it != channels_.end() && it->second.quarantined;
}

std::vector<std::string> SensorValidator::quarantined_channels() const {
  std::vector<std::string> out;
  for (const auto& [name, state] : channels_) {
    if (state.quarantined) out.push_back(name);
  }
  return out;
}

}  // namespace mpros::dc
