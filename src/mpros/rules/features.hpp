#pragma once
// Feature frames: the facts a frame-based vibration rule reasons over.
//
// The DLI substitute's rules (paper §6.1) combine "spectral vibration
// features ... with process parameters such as load or bearing temperatures".
// A FeatureFrame is a bag of named scalars produced from one machinery test:
// spectral orders, bearing envelope tones, electrical signatures, overall
// statistics, and process variables.

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>

#include "mpros/domain/equipment.hpp"

namespace mpros::telemetry {
class Counter;
}

namespace mpros::rules {

/// `rules.nonfinite_inputs`: every non-finite value refused before it could
/// become evidence, whether a feature (FeatureFrame::set) or a DC's finished
/// conclusion on its way to the wire.
[[nodiscard]] telemetry::Counter& nonfinite_inputs();

// Canonical feature keys. Vibration amplitudes are in g.
namespace feat {
// Shaft orders (amplitude at k x running speed)
inline constexpr const char* kOrderHalf = "order.0.5x";
inline constexpr const char* kOrder1 = "order.1x";
inline constexpr const char* kOrder2 = "order.2x";
inline constexpr const char* kOrder3 = "order.3x";
inline constexpr const char* kOrder4 = "order.4x";
/// Energy in the 1x..6x harmonic series (looseness raises the whole series).
inline constexpr const char* kHarmonicSeries = "order.harmonic_series";
/// Energy at half-order harmonics (0.5x, 1.5x, 2.5x) — looseness signature.
inline constexpr const char* kSubharmonics = "order.subharmonics";
// Gear
inline constexpr const char* kGearMesh = "gear.mesh";
inline constexpr const char* kGearSidebands = "gear.mesh_sidebands";
// Bearing envelope tones
inline constexpr const char* kBpfo = "bearing.bpfo";
inline constexpr const char* kBpfi = "bearing.bpfi";
inline constexpr const char* kBsf = "bearing.bsf";
inline constexpr const char* kFtf = "bearing.ftf";
// Compressor
inline constexpr const char* kVanePass = "compressor.vane_pass";
inline constexpr const char* kBroadbandHf = "broadband.high_freq";
// Electrical (from the motor-current channel). FeatureExtractor::
// extract_current writes every feature under this prefix and no other.
inline constexpr std::string_view kElectricalPrefix = "electrical.";
inline constexpr const char* kTwiceLine = "electrical.2x_line";
inline constexpr const char* kPolePassSidebands = "electrical.pole_pass_sidebands";
inline constexpr const char* kCurrentRms = "electrical.current_rms";
// Overall statistics of the vibration waveform
inline constexpr const char* kOverallRms = "overall.rms";
inline constexpr const char* kCrestFactor = "overall.crest";
inline constexpr const char* kKurtosis = "overall.kurtosis";
// Process variables
inline constexpr const char* kLoad = "process.load";  // fraction 0..1
inline constexpr const char* kOilPressure = "process.oil_pressure_kpa";
inline constexpr const char* kOilTemp = "process.oil_temp_c";
inline constexpr const char* kBearingTemp = "process.bearing_temp_c";
inline constexpr const char* kWindingTemp = "process.winding_temp_c";
inline constexpr const char* kEvapPressure = "process.evap_pressure_kpa";
inline constexpr const char* kCondPressure = "process.cond_pressure_kpa";
inline constexpr const char* kSuperheat = "process.superheat_c";
inline constexpr const char* kChwSupplyTemp = "process.chw_supply_c";
inline constexpr const char* kCondApproach = "process.cond_approach_c";
inline constexpr const char* kMotorCurrent = "process.motor_current_a";
}  // namespace feat

class FeatureFrame {
 public:
  /// std::hash<std::string>'s value, usable for a string_view probe.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const noexcept {
      return std::hash<std::string_view>{}(key);
    }
  };
  using Map = std::unordered_map<std::string, double, KeyHash, std::equal_to<>>;

  /// Store a feature; overwriting one already present allocates nothing.
  /// Non-finite values are refused (counted under `rules.nonfinite_inputs`):
  /// a NaN that slipped past the sensor screens must read as "unmeasured" so
  /// clauses abstain, never as evidence.
  void set(std::string_view key, double value);
  [[nodiscard]] bool has(const std::string& key) const {
    return values_.contains(key);
  }
  /// Value or `fallback` when the feature was not measured.
  [[nodiscard]] double get(const std::string& key, double fallback = 0.0) const;
  [[nodiscard]] std::optional<double> maybe(const std::string& key) const;
  [[nodiscard]] std::size_t size() const { return values_.size(); }

  [[nodiscard]] const Map& all() const { return values_; }

 private:
  Map values_;
};

/// Extraction settings; defaults fit the 40 kHz 4-channel digitizer model.
struct ExtractorConfig {
  std::size_t fft_size = 8192;
  double envelope_band_lo_hz = 2000.0;
  double envelope_band_hi_hz = 8000.0;
  double order_tolerance = 0.05;  // +/- orders when hunting a tone
};

/// Turns raw test data into a FeatureFrame.
class FeatureExtractor {
 public:
  FeatureExtractor(domain::MachineSignature signature,
                   ExtractorConfig cfg = {});

  /// Extract spectral + statistical features from a vibration waveform
  /// sampled at `sample_rate_hz`, merging them into `frame`.
  void extract_vibration(std::span<const double> waveform,
                         double sample_rate_hz, FeatureFrame& frame) const;

  /// Extract electrical signatures from a motor-current waveform.
  void extract_current(std::span<const double> waveform,
                       double sample_rate_hz, double load_fraction,
                       FeatureFrame& frame) const;

  [[nodiscard]] const domain::MachineSignature& signature() const {
    return signature_;
  }

 private:
  domain::MachineSignature signature_;
  ExtractorConfig cfg_;
};

}  // namespace mpros::rules
