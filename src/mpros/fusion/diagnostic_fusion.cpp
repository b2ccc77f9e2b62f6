#include "mpros/fusion/diagnostic_fusion.hpp"

#include "mpros/common/assert.hpp"
#include "mpros/telemetry/metrics.hpp"

namespace mpros::fusion {

using domain::FailureMode;
using domain::LogicalGroup;

DiagnosticFusion::DiagnosticFusion() {
  frames_.reserve(domain::kLogicalGroupCount);
  for (std::size_t g = 0; g < domain::kLogicalGroupCount; ++g) {
    std::vector<std::string> names;
    for (const FailureMode m :
         domain::modes_in_group(static_cast<LogicalGroup>(g))) {
      names.emplace_back(domain::to_string(m));
    }
    frames_.emplace_back(std::move(names));
  }
}

const FrameOfDiscernment& DiagnosticFusion::frame(LogicalGroup group) const {
  const auto g = static_cast<std::size_t>(group);
  MPROS_EXPECTS(g < frames_.size());
  return frames_[g];
}

HypothesisSet DiagnosticFusion::set_of(LogicalGroup group,
                                       FailureMode mode) const {
  const auto members = domain::modes_in_group(group);
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i] == mode) return frame(group).singleton(i);
  }
  MPROS_EXPECTS(false && "mode not in group");
  return 0;
}

DiagnosticFusion::Cell& DiagnosticFusion::cell(ObjectId machine,
                                               LogicalGroup group) {
  const Key key{machine.value(), group};
  auto it = cells_.find(key);
  if (it == cells_.end()) {
    it = cells_
             .emplace(key, Cell{MassFunction::vacuous(frame(group)), 0.0, 0})
             .first;
  }
  return it->second;
}

GroupState DiagnosticFusion::update(ObjectId machine, FailureMode mode,
                                    double belief) {
  const FailureMode modes[] = {mode};
  return update_set(machine, modes, belief);
}

void DiagnosticFusion::apply(ObjectId machine, FailureMode mode,
                             double belief) {
  const LogicalGroup group = domain::logical_group(mode);
  apply_focus(machine, group, set_of(group, mode), belief);
}

GroupState DiagnosticFusion::update_set(
    ObjectId machine, std::span<const domain::FailureMode> modes,
    double belief) {
  MPROS_EXPECTS(!modes.empty());
  const LogicalGroup group = domain::logical_group(modes.front());

  HypothesisSet focus = 0;
  for (const FailureMode m : modes) {
    MPROS_EXPECTS(domain::logical_group(m) == group);
    focus |= set_of(group, m);
  }

  Cell& c = apply_focus(machine, group, focus, belief);
  return summarize(group, c);
}

DiagnosticFusion::Cell& DiagnosticFusion::apply_focus(ObjectId machine,
                                                      LogicalGroup group,
                                                      HypothesisSet focus,
                                                      double belief) {
  MPROS_EXPECTS(belief >= 0.0 && belief <= 1.0);

  // The only state shared between DiagnosticFusion instances: a
  // magic-static reference (thread-safe init) to a relaxed atomic counter
  // (thread-safe inc). cells_ belongs to this instance alone.
  static telemetry::Counter& ds_updates =
      telemetry::Registry::instance().counter("fusion.ds_updates");

  Cell& c = cell(machine, group);
  c.last_conflict = c.mass.combine_simple_support(focus, belief);
  ++c.report_count;
  ds_updates.inc();
  return c;
}

GroupState DiagnosticFusion::summarize(LogicalGroup group,
                                       const Cell& c) const {
  GroupState s;
  s.group = group;
  s.unknown = c.mass.unknown();
  s.last_conflict = c.last_conflict;
  s.report_count = c.report_count;
  const auto add = [&s](const ModeBelief& mb, std::size_t) {
    s.modes.push_back(mb);
  };
  visit_modes(group, c, add);
  return s;
}

GroupState DiagnosticFusion::state(ObjectId machine,
                                   LogicalGroup group) const {
  const Key key{machine.value(), group};
  const auto it = cells_.find(key);
  if (it == cells_.end()) {
    Cell vacuous{MassFunction::vacuous(frame(group)), 0.0, 0};
    return summarize(group, vacuous);
  }
  return summarize(group, it->second);
}

void DiagnosticFusion::reset(ObjectId machine) {
  const auto first = cells_.lower_bound(Key{machine.value(), LogicalGroup{}});
  auto last = first;
  while (last != cells_.end() && last->first.machine == machine.value()) ++last;
  cells_.erase(first, last);
}

}  // namespace mpros::fusion
