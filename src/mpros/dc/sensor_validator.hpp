#pragma once
// Sensor validation ahead of the analyzers (data quality gate).
//
// §5.8's scheduler feeds four analyzers that all assume the instrumentation
// tells the truth; a stuck accelerometer would otherwise look like a healthy
// machine and a spiking thermocouple like a bearing failure. This stage
// screens every acquisition before analysis:
//   - flatline  : window variance collapsed (stuck-at DAC / frozen loop),
//   - dropout   : non-finite samples (open circuit, dead channel),
//   - range     : readings outside physical plausibility,
//   - spike     : isolated impulses far beyond robust scatter — thresholds
//                 sit above genuine bearing-impact crest factors so real
//                 machinery impulsiveness never trips them.
// A failed channel is quarantined: its data is withheld from the analyzers
// (which degrade gracefully — rules abstain on missing features, fuzzy and
// SBFR skip absent keys) until the channel produces `release_after`
// consecutive clean checks.

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mpros/domain/failure_modes.hpp"

namespace mpros::dc {

struct PhysicalRange {
  double lo = 0.0;
  double hi = 0.0;
};

struct SensorValidatorConfig {
  /// Plausibility limits per channel; channels without an entry skip the
  /// range check but keep all other screens.
  std::map<std::string, PhysicalRange> ranges;
  /// Window peak-to-peak below this is a flatline. Real accelerometer noise
  /// floors sit orders of magnitude above.
  double flatline_peak_to_peak = 1e-9;
  /// Scalar channels flatline when this many consecutive scans repeat the
  /// same reading exactly (process noise makes honest repeats implausible).
  std::size_t flatline_repeats = 4;
  /// Channels exempt from the exact-repeat flatline screen: commanded
  /// setpoints and other noiseless telemetry repeat legitimately.
  std::set<std::string> flatline_exempt;
  /// Spike screen: samples beyond `spike_sigmas` robust deviations
  /// (median/MAD) count as spikes; the window faults when at least
  /// `spike_min_count` land. Bearing-impact crests reach ~5-10 sigmas;
  /// 25 keeps genuine impulsiveness out.
  double spike_sigmas = 25.0;
  std::size_t spike_min_count = 4;
  /// Scalar spike screen: deviation from the recent-history median, in
  /// robust sigmas of that history.
  double scalar_spike_sigmas = 12.0;
  std::size_t scalar_history = 16;
  /// Consecutive clean checks before a quarantined channel is trusted again.
  std::size_t release_after = 3;
};

/// Plausibility limits for the chiller's instrument suite.
[[nodiscard]] SensorValidatorConfig chiller_validator_config();

class SensorValidator {
 public:
  struct Verdict {
    /// Set when this check failed a screen (also set on every check while
    /// the fault persists).
    std::optional<domain::SensorFaultKind> fault;
    bool newly_quarantined = false;  ///< healthy -> quarantined transition
    bool released = false;           ///< quarantined -> healthy transition
    /// The fault being retired when `released` (for the all-clear report).
    std::optional<domain::SensorFaultKind> cleared_kind;
  };

  explicit SensorValidator(SensorValidatorConfig cfg =
                               chiller_validator_config());

  /// Screen a waveform acquisition (vibration / motor current).
  Verdict check_window(const std::string& channel,
                       std::span<const double> samples);

  /// Screen one scalar process reading.
  Verdict check_value(const std::string& channel, double value);

  [[nodiscard]] bool quarantined(const std::string& channel) const;
  [[nodiscard]] std::vector<std::string> quarantined_channels() const;

  /// Runtime control plane: adjust the screening thresholds in place.
  /// Quarantine verdicts, clean streaks and scalar histories are preserved
  /// — only future checks see the new limits.
  [[nodiscard]] const SensorValidatorConfig& config() const { return cfg_; }
  void set_config(SensorValidatorConfig cfg) { cfg_ = std::move(cfg); }

  struct Stats {
    std::uint64_t checks = 0;
    std::uint64_t faults_detected = 0;  ///< checks that failed a screen
    std::uint64_t quarantines = 0;      ///< healthy -> quarantined edges
    std::uint64_t releases = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct ChannelState {
    bool quarantined = false;
    domain::SensorFaultKind last_fault = domain::SensorFaultKind::Flatline;
    std::size_t clean_streak = 0;
    std::size_t repeat_count = 0;  ///< scalar stuck-at tracking
    double last_value = 0.0;
    bool has_last = false;
    /// Scalar recent readings (clean only): the `history_size` readings
    /// before `history_next` in a ring, oldest overwritten first. The ring
    /// grows only when `scalar_history` does.
    std::vector<double> history;
    std::size_t history_next = 0;
    std::size_t history_size = 0;
  };

  /// Append a clean reading, keeping the last `scalar_history` of them.
  void remember(ChannelState& state, double value) const;

  Verdict resolve(ChannelState& state,
                  std::optional<domain::SensorFaultKind> fault);
  [[nodiscard]] std::optional<domain::SensorFaultKind> screen_window(
      const std::string& channel, std::span<const double> samples) const;
  [[nodiscard]] std::optional<domain::SensorFaultKind> screen_value(
      const std::string& channel, ChannelState& state, double value) const;

  SensorValidatorConfig cfg_;
  std::map<std::string, ChannelState> channels_;
  Stats stats_;
};

}  // namespace mpros::dc
