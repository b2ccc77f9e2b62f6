#pragma once
// Diagnostic knowledge fusion (paper §5.3).
//
// Incoming diagnostic reports are correlated with Dempster-Shafer belief
// maintenance, "facilitated by use of a heuristic that groups similar
// failures into logical groups": each (machine, logical group) pair keeps
// its own frame of discernment and running mass function. Failures in
// different groups fuse independently — several can be suspect at once —
// while failures within a group share probability mass, exactly as §5.3
// prescribes.
//
// "Diagnostic knowledge fusion generates a new fused belief whenever a
// diagnostic report arrives for a suspect component. This updates the
// belief for that suspect component and for every other failure in the
// logical group ... It also updates the belief of 'unknown' failure for
// that logical group." (§5.6)

#include <map>
#include <optional>
#include <span>
#include <vector>

#include "mpros/common/ids.hpp"
#include "mpros/domain/failure_modes.hpp"
#include "mpros/fusion/dempster_shafer.hpp"

namespace mpros::fusion {

struct ModeBelief {
  domain::FailureMode mode{};
  double belief = 0.0;        ///< Bel({mode}) after fusion
  double plausibility = 0.0;  ///< Pl({mode})
};

struct GroupState {
  domain::LogicalGroup group{};
  std::vector<ModeBelief> modes;  ///< every mode in the group, enum order
  double unknown = 1.0;           ///< mass on Θ
  double last_conflict = 0.0;     ///< K of the most recent combination
  std::size_t report_count = 0;
};

class DiagnosticFusion {
 public:
  DiagnosticFusion();

  /// Fuse one single-mode report (§7.2 Belief field) into the machine's
  /// group state; returns the updated state.
  GroupState update(ObjectId machine, domain::FailureMode mode, double belief);

  /// Batched-ingest hot path: identical fusion state transition to
  /// update(), but skips building the GroupState summary (which allocates
  /// a ModeBelief vector per call). Callers that need the summary read it
  /// later via state().
  void apply(ObjectId machine, domain::FailureMode mode, double belief);

  /// Fuse disjunctive evidence ("B or C will occur") — all modes must share
  /// one logical group.
  GroupState update_set(ObjectId machine,
                        std::span<const domain::FailureMode> modes,
                        double belief);

  /// Current state (vacuous if no reports yet).
  [[nodiscard]] GroupState state(ObjectId machine,
                                 domain::LogicalGroup group) const;

  /// fn(ModeBelief, report_count) for every mode, in enum order, of every
  /// group of one machine that has received reports, ascending by group:
  /// the values state() summarizes, without building the summaries.
  template <class Fn>
  void for_each_mode(ObjectId machine, Fn&& fn) const {
    // cells_ orders by (machine, group), so one machine's cells are one
    // contiguous run starting at its lowest group.
    for (auto it = cells_.lower_bound(Key{machine.value(), {}});
         it != cells_.end() && it->first.machine == machine.value(); ++it) {
      visit_modes(it->first.group, it->second, fn);
    }
  }

  /// Forget one machine entirely (e.g. after maintenance).
  void reset(ObjectId machine);

  /// The shared frame for a group (hypotheses in modes_in_group order).
  [[nodiscard]] const FrameOfDiscernment& frame(
      domain::LogicalGroup group) const;

 private:
  struct Key {
    std::uint64_t machine;
    domain::LogicalGroup group;
    auto operator<=>(const Key&) const = default;
  };
  struct Cell {
    MassFunction mass;
    double last_conflict = 0.0;
    std::size_t report_count = 0;
  };

  /// Shared state transition behind update_set() and apply(): fold
  /// simple-support evidence on `focus` into the (machine, group) cell.
  Cell& apply_focus(ObjectId machine, domain::LogicalGroup group,
                    HypothesisSet focus, double belief);

  [[nodiscard]] GroupState summarize(domain::LogicalGroup group,
                                     const Cell& cell) const;
  /// fn(ModeBelief, report_count) for each of the group's modes, enum
  /// order: the one belief/plausibility read behind every summary.
  template <class Fn>
  void visit_modes(domain::LogicalGroup group, const Cell& c, Fn& fn) const {
    const auto members = domain::modes_in_group(group);
    const FrameOfDiscernment& f = frame(group);
    for (std::size_t i = 0; i < members.size(); ++i) {
      const HypothesisSet singleton = f.singleton(i);
      fn(ModeBelief{members[i], c.mass.belief(singleton),
                    c.mass.plausibility(singleton)},
         c.report_count);
    }
  }
  [[nodiscard]] HypothesisSet set_of(domain::LogicalGroup group,
                                     domain::FailureMode mode) const;
  Cell& cell(ObjectId machine, domain::LogicalGroup group);

  std::vector<FrameOfDiscernment> frames_;  // by LogicalGroup value
  std::map<Key, Cell> cells_;
};

}  // namespace mpros::fusion
