#pragma once
// Seeded text renders of two DC analyzer outputs, compared byte for byte
// against recordings in tests/data (see its README):
//
//   - render_screen_verdicts(): every check_window/check_value verdict of a
//     SensorValidator fed by a seeded chiller through a schedule that
//     injects each SensorFaultKind on one accelerometer, on the motor
//     current and on one process channel, under the default screen and a
//     tight one whose spike verdict turns on the exact median and MAD;
//   - render_fuzzy_severities(): the bits of FuzzyDiagnoser::severity() for
//     every covered mode over seeded plant snapshots (nominal and with each
//     covered mode faulted) and seeded snapshots spread past each input
//     universe.
//
// Both use only the analyzers' public API, so the same code recorded the
// files and checks them.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "mpros/common/rng.hpp"
#include "mpros/dc/sensor_validator.hpp"
#include "mpros/fuzzy/chiller_fuzzy.hpp"
#include "mpros/plant/chiller.hpp"
#include "mpros/rules/features.hpp"

namespace mpros::golden {

inline std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// One verdict as a short code: '.' clean, F/D/O/S a failed screen, a
/// trailing '+' on quarantine, 'r' plus the cleared kind on release.
inline std::string verdict_code(const dc::SensorValidator::Verdict& v) {
  static constexpr char kKind[] = {'F', 'D', 'O', 'S'};
  std::string s;
  s += v.fault.has_value() ? kKind[static_cast<int>(*v.fault)] : '.';
  if (v.newly_quarantined) s += '+';
  if (v.released) {
    s += 'r';
    s += v.cleared_kind.has_value()
             ? kKind[static_cast<int>(*v.cleared_kind)]
             : '?';
  }
  return s;
}

inline std::string render_screen_verdicts() {
  using plant::SensorFaultType;
  plant::ChillerSimulator chiller;
  // Minute m of the run is test m; each fault holds three tests.
  const auto at = [](int minute) {
    return SimTime::from_seconds(60.0 * minute);
  };
  const auto inject = [&](const char* channel, SensorFaultType type,
                          int from, double level, double fraction) {
    plant::SensorFaultEvent e;
    e.channel = channel;
    e.type = type;
    e.from = at(from);
    e.to = at(from + 3);
    e.level = level;
    e.spike_fraction = fraction;
    chiller.sensor_faults().schedule(e);
  };
  // Accelerometer: amplitudes of a few g, screened against +/-80 g.
  inject("vib.gearbox", SensorFaultType::StuckAt, 3, 1.7, 0.005);
  inject("vib.gearbox", SensorFaultType::Dropout, 9, 0.0, 0.005);
  inject("vib.gearbox", SensorFaultType::OutOfRange, 15, 200.0, 0.005);
  inject("vib.gearbox", SensorFaultType::Spike, 21, 400.0, 0.002);
  // Motor current: a periodic record of ~100 A, screened against 1500 A.
  inject("current.motor", SensorFaultType::StuckAt, 27, 42.0, 0.005);
  inject("current.motor", SensorFaultType::Dropout, 33, 0.0, 0.005);
  inject("current.motor", SensorFaultType::OutOfRange, 39, 4000.0, 0.005);
  inject("current.motor", SensorFaultType::Spike, 45, 9000.0, 0.002);
  // One scalar channel through every screen.
  inject("process.oil_temp_c", SensorFaultType::StuckAt, 51, 61.5, 0.005);
  inject("process.oil_temp_c", SensorFaultType::Dropout, 57, 0.0, 0.005);
  inject("process.oil_temp_c", SensorFaultType::OutOfRange, 63, 400.0, 0.005);
  inject("process.oil_temp_c", SensorFaultType::Spike, 69, 45.0, 1.0);

  // The default screen, and a tight one whose spike verdict moves with the
  // exact median and MAD of every window and of every scalar history.
  dc::SensorValidator normal;
  dc::SensorValidatorConfig tight_cfg;
  tight_cfg.spike_sigmas = 3.0;
  tight_cfg.spike_min_count = 40;
  tight_cfg.scalar_spike_sigmas = 1.5;
  dc::SensorValidator tight(tight_cfg);

  std::vector<double> current(32768);
  std::vector<double> vib(8192);
  std::string out;
  for (int minute = 0; minute < 78; ++minute) {
    chiller.advance(SimTime::from_seconds(60.0));
    char head[16];
    std::snprintf(head, sizeof head, "%02d", minute);
    std::string line = head;
    const auto check_window = [&](domain::Channel channel,
                                  std::span<const double> w) {
      line += ' ';
      line += verdict_code(normal.check_window(channel, w));
      line += '/';
      line += verdict_code(tight.check_window(channel, w));
    };
    chiller.acquire_current(4096.0, current);
    check_window(domain::Channel::CurrentMotor, current);
    for (const plant::MachinePoint point :
         {plant::MachinePoint::Motor, plant::MachinePoint::Gearbox,
          plant::MachinePoint::Compressor}) {
      chiller.acquire_vibration(point, 40960.0, vib);
      check_window(plant::vibration_channel(point), vib);
    }
    line += " |";
    chiller.process_snapshot().for_each([&](domain::Channel c, double value) {
      line += ' ';
      line += verdict_code(normal.check_value(c, value));
      line += '/';
      line += verdict_code(tight.check_value(c, value));
    });
    out += line;
    out += '\n';
  }
  return out;
}

inline std::string render_fuzzy_severities() {
  const fuzzy::FuzzyDiagnoser diagnoser;
  const std::vector<domain::FailureMode> modes = diagnoser.covered_modes();
  std::vector<domain::ProcessValues> snapshots;

  // Plant snapshots: nominal, then each covered mode ramping to full.
  {
    plant::ChillerSimulator chiller;
    for (int i = 0; i < 8; ++i) {
      chiller.advance(SimTime::from_seconds(600.0));
      snapshots.push_back(chiller.process_snapshot());
    }
  }
  for (const domain::FailureMode mode : modes) {
    plant::ChillerSimulator chiller;
    plant::FaultEvent e;
    e.mode = mode;
    e.onset = SimTime(0);
    e.ramp = SimTime::from_hours(8.0);
    chiller.faults().schedule(e);
    for (int i = 0; i < 8; ++i) {
      chiller.advance(SimTime::from_hours(1.0));
      snapshots.push_back(chiller.process_snapshot());
    }
  }
  // Seeded snapshots from well below to well above each nominal, past the
  // edges of every input universe.
  const domain::ProcessValues nominal = snapshots.front();
  Rng rng(0xF022);
  for (int i = 0; i < 96; ++i) {
    domain::ProcessValues s;
    nominal.for_each([&](domain::Channel c, double value) {
      s.set(c, value * rng.uniform(0.2, 2.2));
    });
    snapshots.push_back(s);
  }

  std::string out;
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    for (const domain::FailureMode mode : modes) {
      char line[64];
      std::snprintf(line, sizeof line, "%03zu %-2d %016llx\n", i,
                    static_cast<int>(mode),
                    static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(
                        diagnoser.severity(mode, snapshots[i]))));
      out += line;
    }
  }
  return out;
}

}  // namespace mpros::golden
