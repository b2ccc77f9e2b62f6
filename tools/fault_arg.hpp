#pragma once
// Argument parsing shared by mpros_sim and mpros_fleet_sim: the
// `--fault target:Mode:onset_h:ramp_h:severity` value (target = plant for
// mpros_sim, ship for mpros_fleet_sim) and the list splitter it uses. A
// ramp of 0 is a step: the fault injector applies the full severity at
// onset.

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "mpros/domain/failure_modes.hpp"
#include "mpros/plant/faults.hpp"

namespace mpros::tools {

/// `s` cut at every `sep`; empty fields are kept.
inline std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    out.push_back(s.substr(start, pos - start));
    if (pos == std::string::npos) break;
    start = pos + 1;
  }
  return out;
}

struct FaultArg {
  std::size_t target = 0;  ///< plant or ship index
  plant::FaultEvent event;
};

/// Parse one --fault value; on failure returns nullopt with the reason in
/// `error`. `target` names the first field ("plant" or "ship").
inline std::optional<FaultArg> parse_fault_arg(const std::string& spec,
                                               const std::string& target,
                                               std::string& error) {
  const std::vector<std::string> parts = split(spec, ':');
  if (parts.size() != 5) {
    error = "--fault expects " + target +
            ":Mode:onset_h:ramp_h:severity, got '" + spec + "'";
    return std::nullopt;
  }
  FaultArg f;
  f.target = static_cast<std::size_t>(std::atoi(parts[0].c_str()));
  std::optional<domain::FailureMode> mode;
  for (const domain::FailureMode m : domain::all_failure_modes()) {
    if (parts[1] == domain::to_string(m)) mode = m;
  }
  if (!mode) {
    error = "unknown failure mode '" + parts[1] +
            "' (mpros_sim --list-modes prints them)";
    return std::nullopt;
  }
  f.event.mode = *mode;
  f.event.onset = SimTime::from_hours(std::atof(parts[2].c_str()));
  f.event.ramp = SimTime::from_hours(std::atof(parts[3].c_str()));
  f.event.max_severity = std::atof(parts[4].c_str());
  return f;
}

}  // namespace mpros::tools
