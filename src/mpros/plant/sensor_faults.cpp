#include "mpros/plant/sensor_faults.hpp"

#include <cmath>
#include <limits>

#include "mpros/common/assert.hpp"
#include "mpros/common/rng.hpp"

namespace mpros::plant {

namespace {

std::uint64_t hash_channel(std::string_view channel) {
  // FNV-1a, folded through splitmix64 for avalanche.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : channel) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return splitmix64(h);
}

/// Uniform [0,1) from a counter — corruption stays a pure function of its
/// coordinates so acquisition order can never perturb it.
double unit_hash(std::uint64_t x) {
  return static_cast<double>(splitmix64(x) >> 11) * 0x1.0p-53;
}

}  // namespace

void SensorFaultInjector::schedule(SensorFaultEvent event) {
  MPROS_EXPECTS(!event.channel.empty());
  MPROS_EXPECTS(event.from < event.to);
  if (event.type == SensorFaultType::Spike) {
    MPROS_EXPECTS(event.spike_fraction > 0.0 && event.spike_fraction <= 1.0);
  }
  events_.push_back(std::move(event));
}

void SensorFaultInjector::corrupt_window(std::string_view channel, SimTime now,
                                         std::span<double> samples) const {
  for (const SensorFaultEvent& e : events_) {
    if (e.channel != channel || now < e.from || now >= e.to) continue;
    switch (e.type) {
      case SensorFaultType::StuckAt:
        for (double& s : samples) s = e.level;
        break;
      case SensorFaultType::Dropout:
        for (double& s : samples) {
          s = std::numeric_limits<double>::quiet_NaN();
        }
        break;
      case SensorFaultType::OutOfRange:
        for (double& s : samples) s += e.level;
        break;
      case SensorFaultType::Spike: {
        const std::uint64_t base =
            seed_ ^ hash_channel(channel) ^
            splitmix64(static_cast<std::uint64_t>(now.micros()));
        for (std::size_t i = 0; i < samples.size(); ++i) {
          const std::uint64_t coord = base + i;
          if (unit_hash(coord) >= e.spike_fraction) continue;
          const double sign = (splitmix64(coord) & 1) != 0u ? 1.0 : -1.0;
          samples[i] += sign * e.level;
        }
        break;
      }
    }
  }
}

double SensorFaultInjector::corrupt_value(std::string_view channel,
                                          SimTime now, double value) const {
  for (const SensorFaultEvent& e : events_) {
    if (e.channel != channel || now < e.from || now >= e.to) continue;
    switch (e.type) {
      case SensorFaultType::StuckAt:
        value = e.level;
        break;
      case SensorFaultType::Dropout:
        value = std::numeric_limits<double>::quiet_NaN();
        break;
      case SensorFaultType::OutOfRange:
        value += e.level;
        break;
      case SensorFaultType::Spike: {
        const std::uint64_t coord =
            seed_ ^ hash_channel(channel) ^
            splitmix64(static_cast<std::uint64_t>(now.micros()));
        if (unit_hash(coord) < e.spike_fraction) {
          value += ((splitmix64(coord) & 1) != 0u ? 1.0 : -1.0) * e.level;
        }
        break;
      }
    }
  }
  return value;
}

}  // namespace mpros::plant
