#pragma once
// The chiller's instrument channels, each named once: the motor-current and
// three accelerometer records and the eleven process values §6.1 fuses with
// spectral features ("process parameters such as load or bearing
// temperatures"), with the plausibility range the DC's sensor screen applies.
// Names ascend strictly, so enum order is name order: the order of the DC's
// sensor feed and the PDME's properties. Analyzers bind to channels at
// construction; names are for the edges (rule and fault scripts, the OOSM,
// the wire).

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <string_view>

#include "mpros/common/assert.hpp"

namespace mpros::domain {

enum class Channel : std::uint8_t {
  CurrentMotor,
  BearingTemp,  // the process values: BearingTemp through WindingTemp
  ChwSupplyTemp,
  CondApproach,
  CondPressure,
  EvapPressure,
  Load,
  MotorCurrent,
  OilPressure,
  OilTemp,
  Superheat,
  WindingTemp,
  VibCompressor,
  VibGearbox,
  VibMotor,
};

inline constexpr std::size_t kChannelCount = 15;
inline constexpr std::size_t kProcessCount = 11;

struct ChannelSpec {
  const char* name = "";
  double lo = 0.0;  ///< readings outside [lo, hi] are implausible
  double hi = 0.0;
  /// The commanded load setpoint carries no instrument noise: exact
  /// repeats are normal, not a stuck DAC.
  bool flatline_exempt = false;
};

/// Accelerometers saturate long before 80 g on this frame size; motor supply
/// current is bipolar instantaneous amperes.
inline constexpr std::array<ChannelSpec, kChannelCount> kChannels{{
    {"current.motor", -1500.0, 1500.0},
    {"process.bearing_temp_c", -10.0, 200.0},
    {"process.chw_supply_c", -10.0, 60.0},
    {"process.cond_approach_c", -10.0, 60.0},
    {"process.cond_pressure_kpa", 0.0, 3000.0},
    {"process.evap_pressure_kpa", 0.0, 2000.0},
    {"process.load", -0.1, 1.5, /*flatline_exempt=*/true},
    {"process.motor_current_a", 0.0, 2000.0},
    {"process.oil_pressure_kpa", 0.0, 1500.0},
    {"process.oil_temp_c", -10.0, 150.0},
    {"process.superheat_c", -20.0, 60.0},
    {"process.winding_temp_c", -10.0, 250.0},
    {"vib.compressor", -80.0, 80.0},
    {"vib.gearbox", -80.0, 80.0},
    {"vib.motor", -80.0, 80.0},
}};

constexpr std::string_view spec_name(const ChannelSpec& s) { return s.name; }
static_assert(std::ranges::adjacent_find(kChannels,
                                         std::ranges::greater_equal{},
                                         spec_name) == kChannels.end(),
              "channel names must ascend strictly");

constexpr std::size_t index(Channel c) { return static_cast<std::size_t>(c); }
constexpr const ChannelSpec& spec(Channel c) { return kChannels[index(c)]; }
constexpr std::string_view name(Channel c) { return spec(c).name; }

/// The channel called `name`, or nullopt when the table has none.
constexpr std::optional<Channel> channel_named(std::string_view name) {
  const auto it = std::ranges::lower_bound(kChannels, name, {}, spec_name);
  if (it == kChannels.end() || spec_name(*it) != name) return std::nullopt;
  return static_cast<Channel>(it - kChannels.begin());
}

constexpr bool is_process(Channel c) {
  return c >= Channel::BearingTemp && c <= Channel::WindingTemp;
}
/// The channel of process value `i`, i < kProcessCount.
constexpr Channel process_channel(std::size_t i) {
  return static_cast<Channel>(index(Channel::BearingTemp) + i);
}
/// Process value `c`'s index, the inverse of process_channel().
inline std::size_t process_slot(Channel c) {
  MPROS_EXPECTS(is_process(c));
  return index(c) - index(Channel::BearingTemp);
}

/// One scan's process values by channel, each present once set and until
/// erased (a quarantined value is absent). Reading an absent one aborts.
class ProcessValues {
 public:
  static constexpr std::uint16_t bit(Channel c) {
    return static_cast<std::uint16_t>(1u << index(c));
  }

  [[nodiscard]] bool has(Channel c) const { return (present_ & bit(c)) != 0; }
  /// True when every channel of `mask`, an OR of bit()s, is present.
  [[nodiscard]] bool has_all(std::uint16_t mask) const {
    return (present_ & mask) == mask;
  }
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(std::popcount(present_));
  }
  [[nodiscard]] double operator[](Channel c) const {
    MPROS_EXPECTS(has(c));
    return values_[process_slot(c)];
  }
  void set(Channel c, double value) {
    values_[process_slot(c)] = value;
    present_ |= bit(c);
  }
  void erase(Channel c) { present_ &= static_cast<std::uint16_t>(~bit(c)); }

  /// f(channel, value) for each present value, in name order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < kProcessCount; ++i) {
      if (has(process_channel(i))) f(process_channel(i), values_[i]);
    }
  }

 private:
  std::array<double, kProcessCount> values_{};
  std::uint16_t present_ = 0;
};

}  // namespace mpros::domain
