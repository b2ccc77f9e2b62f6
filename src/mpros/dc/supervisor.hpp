#pragma once
// The DC supervisor (long-term unattended operation, §4.9).
//
// A Data Concentrator that hangs — wedged driver loop, stuck DAQ ioctl,
// runaway analyzer — stops emitting reports and heartbeats, and the PDME's
// liveness watchdog can only *report* the silence. The supervisor closes
// the loop: every advance the assembler feeds it each DC's internal
// progress tick; a DC whose tick has not moved for `wedge_timeout` of
// simulated time is declared wedged. A hang leaves the DC's state where it
// stopped, so the assembler restarts it in place: it clears the wedge and
// replays the missed steps, and the DC resumes the same report stream with
// nothing lost.

#include <cstdint>
#include <map>
#include <vector>

#include "mpros/common/clock.hpp"
#include "mpros/common/ids.hpp"

namespace mpros::dc {

struct DcSupervisorConfig {
  /// A DC whose progress tick has not advanced for this long is wedged.
  /// Must comfortably exceed the assembler's step, or a slow step would
  /// read as a hang.
  SimTime wedge_timeout = SimTime::from_seconds(300.0);
};

class DcSupervisor {
 public:
  explicit DcSupervisor(DcSupervisorConfig cfg = {});

  /// Feed one DC's current progress tick at `now`. Returns true when the
  /// DC just crossed the wedge threshold — the caller restarts it and then
  /// reports the replacement via notify_restarted(). The verdict re-arms
  /// (rather than re-firing every observation) until progress moves again.
  bool observe(DcId dc, std::uint64_t progress, SimTime now);

  /// The caller restarted `dc`; `progress` is the replacement's tick.
  void notify_restarted(DcId dc, std::uint64_t progress, SimTime now);

  struct Stats {
    std::uint64_t wedges_detected = 0;
    std::uint64_t restarts = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Watch {
    std::uint64_t progress = 0;
    SimTime last_change;
    bool seen = false;
  };

  DcSupervisorConfig cfg_;
  std::map<std::uint64_t, Watch> watches_;  // by DcId value
  Stats stats_;
};

}  // namespace mpros::dc
