#pragma once
// Sensor-fault injection: the instrument lies, not the machine.
//
// The paper's §5.1 fusion assumptions ("incomplete ... fragmentary" inputs)
// cover the transport; this models the transducer end — dead accelerometer
// channels, stuck 4-20 mA loops, thermocouples reading physically absurd
// values, and intermittent connector spikes. Scenarios script windows of
// corruption per named channel so the DC's SensorValidator can be exercised
// deterministically: corruption is a pure function of (channel, time,
// sample index, seed), independent of acquisition order.
//
// Events name their channel as the channel table does
// (domain/channels.hpp); a name the table lacks corrupts nothing the
// chiller acquires.

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mpros/common/clock.hpp"
#include "mpros/domain/channels.hpp"
#include "mpros/plant/vibration.hpp"

namespace mpros::plant {

enum class SensorFaultType : std::uint8_t {
  StuckAt,     ///< channel flatlines at `level` (stuck DAC / frozen loop)
  Dropout,     ///< channel reads NaN (open circuit, dead channel)
  OutOfRange,  ///< constant bias `level` pushes readings out of physics
  Spike,       ///< sparse impulses of amplitude `level` (loose connector)
};

struct SensorFaultEvent {
  std::string channel;
  SensorFaultType type = SensorFaultType::StuckAt;
  SimTime from;
  SimTime to;
  /// StuckAt: the frozen reading. OutOfRange: additive bias. Spike: impulse
  /// amplitude (sign alternates per spike). Ignored for Dropout.
  double level = 0.0;
  /// Spike only: fraction of samples hit, in (0, 1].
  double spike_fraction = 0.005;
};

/// The accelerometer channel of a machine point.
[[nodiscard]] constexpr domain::Channel vibration_channel(MachinePoint point) {
  using enum domain::Channel;
  constexpr domain::Channel kByPoint[] = {VibMotor, VibGearbox, VibCompressor};
  return kByPoint[static_cast<std::size_t>(point)];
}

class SensorFaultInjector {
 public:
  explicit SensorFaultInjector(std::uint64_t seed = 0x5E4503) : seed_(seed) {}

  void schedule(SensorFaultEvent event);

  /// Corrupt a waveform window acquired from `channel` at `now` in place.
  /// No-op when no fault window is active.
  void corrupt_window(std::string_view channel, SimTime now,
                      std::span<double> samples) const;

  /// Corrupt a scalar process reading; returns the (possibly) faulted value.
  [[nodiscard]] double corrupt_value(std::string_view channel, SimTime now,
                                     double value) const;

 private:
  std::uint64_t seed_;
  std::vector<SensorFaultEvent> events_;
};

}  // namespace mpros::plant
