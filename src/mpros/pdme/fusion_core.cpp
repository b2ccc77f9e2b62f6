#include "mpros/pdme/fusion_core.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

#include "mpros/common/log.hpp"

namespace mpros::pdme {

using domain::FailureMode;

namespace {

bool by_priority(const MaintenanceItem& a, const MaintenanceItem& b) {
  return a.priority > b.priority;
}

}  // namespace

DedupIndex::Key DedupIndex::key_of(const net::FailureReport& r) {
  return {r.dc.value(),           r.knowledge_source.value(),
          r.sensed_object.value(), r.machine_condition.value(),
          r.timestamp.micros(),    r.belief};
}

DedupIndex::Key DedupIndex::key_of(std::uint32_t index) const {
  const oosm::ReportLog::Record& r = log_.record(index);
  return {r.dc.value(),           r.knowledge_source.value(),
          r.sensed_object.value(), r.machine_condition.value(),
          r.timestamp.micros(),    r.belief};
}

std::uint32_t DedupIndex::tag_of(const Key& k) {
  // Belief stays out of the hash: equal keys must hash equal, and two
  // beliefs can print alike without being bitwise equal.
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (const std::uint64_t v :
       {k.dc, k.ks, k.sensed, k.condition,
        static_cast<std::uint64_t>(k.timestamp_us)}) {
    h = (h ^ v) * 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 31;
  }
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

bool DedupIndex::same(const Key& a, const Key& b) {
  if (a.dc != b.dc || a.ks != b.ks || a.sensed != b.sensed ||
      a.condition != b.condition || a.timestamp_us != b.timestamp_us) {
    return false;
  }
  if (std::bit_cast<std::uint64_t>(a.belief) ==
      std::bit_cast<std::uint64_t>(b.belief)) {
    return true;
  }
  char ta[48];
  char tb[48];
  std::snprintf(ta, sizeof ta, "%.6f", a.belief);
  std::snprintf(tb, sizeof tb, "%.6f", b.belief);
  return std::strcmp(ta, tb) == 0;
}

std::size_t DedupIndex::probe(const Key& k, std::uint32_t tag) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = tag & mask;
  while (slots_[i].index != kEmpty &&
         (slots_[i].tag != tag || !same(key_of(slots_[i].index), k))) {
    i = (i + 1) & mask;
  }
  return i;
}

bool DedupIndex::contains(const net::FailureReport& report) const {
  if (size_ == 0) return false;
  const Key k = key_of(report);
  return slots_[probe(k, tag_of(k))].index != kEmpty;
}

bool DedupIndex::claim(const net::FailureReport& report,
                       std::uint32_t index) {
  return insert(key_of(report), index);
}

void DedupIndex::insert(std::uint32_t index) { insert(key_of(index), index); }

bool DedupIndex::insert(const Key& k, std::uint32_t index) {
  if (2 * (size_ + 1) > slots_.size()) grow();
  const std::uint32_t tag = tag_of(k);
  Slot& slot = slots_[probe(k, tag)];
  if (slot.index != kEmpty) return false;
  slot = {index, tag};
  ++size_;
  return true;
}

void DedupIndex::grow() {
  // The home slot is the tag's low bits, so re-placing reads no log record.
  std::vector<Slot> old(std::max<std::size_t>(16, slots_.size() * 2),
                        Slot{kEmpty, 0});
  old.swap(slots_);
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.index == kEmpty) continue;
    std::size_t i = slot.tag & mask;
    while (slots_[i].index != kEmpty) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

std::optional<PendingRetest> FusionCore::fuse(const net::FailureReport& r,
                                              std::uint32_t log_index) {
  history_[r.sensed_object.value()].push_back(log_index);
  // Sensor-fault conclusions get their own track: fusing "the sensor lies"
  // into Dempster-Shafer would steal mass from real machinery modes.
  if (domain::is_sensor_fault_condition(r.machine_condition)) {
    note_sensor_fault(r);
    return std::nullopt;
  }
  const FailureMode mode = domain::failure_mode(r.machine_condition);

  // Diagnostic fusion: the report's Belief field becomes simple support.
  // apply() is update() minus the per-call GroupState summary allocation;
  // readers pull the summary lazily via group_state()/prioritized_list().
  diagnostics_.apply(r.sensed_object, mode, std::clamp(r.belief, 0.0, 1.0));

  // Prognostic fusion: conservative envelope per (machine, mode) (§5.4),
  // fused in place through reusable scratch.
  ModeTrack& track = tracks_[ModeKey{r.sensed_object.value(), mode}];
  if (!r.prognostics.empty()) {
    prog_points_.clear();
    for (const net::PrognosticPair& p : r.prognostics) {
      prog_points_.push_back(
          {SimTime::from_seconds(p.time_seconds), p.probability});
    }
    track.fused_prognosis.fuse_in_place(
        {prog_points_.data(), prog_points_.size()}, fuse_scratch_);
  }
  track.max_severity = std::max(track.max_severity, r.severity);
  track.trend.observe(r.timestamp, std::clamp(r.severity, 0.0, 1.0));
  track.latest_report = std::max(track.latest_report, r.timestamp);
  ++track.reports;
  list_dirty_ = true;

  MPROS_LOG_DEBUG("pdme", "fused %s for obj=%llu belief=%.2f",
                  domain::to_string(mode),
                  static_cast<unsigned long long>(r.sensed_object.value()),
                  r.belief);
  return retest_for(r);
}

void FusionCore::note_sensor_fault(const net::FailureReport& r) {
  const domain::SensorFaultKind kind =
      domain::sensor_fault_kind(r.machine_condition);
  SensorFaultRecord& rec = sensor_faults_[{
      r.dc.value(), r.sensed_object.value(), static_cast<std::uint64_t>(kind)}];
  if (rec.at.micros() > r.timestamp.micros()) return;  // stale arrival
  rec.dc = r.dc;
  rec.object = r.sensed_object;
  rec.kind = kind;
  rec.severity = r.severity;
  rec.at = r.timestamp;
  rec.explanation = r.explanation;
  if (r.severity > 0.0) {
    MPROS_LOG_WARN("pdme", "sensor fault from dc-%llu: %s",
                   static_cast<unsigned long long>(r.dc.value()),
                   r.explanation.c_str());
  }
}

std::optional<PendingRetest> FusionCore::retest_for(
    const net::FailureReport& r) const {
  if (!cfg_.auto_retest) return std::nullopt;
  if (r.severity < kRetestSeverity) return std::nullopt;
  const FailureMode mode = domain::failure_mode(r.machine_condition);
  const fusion::GroupState group =
      diagnostics_.state(r.sensed_object, domain::logical_group(mode));
  // Already corroborated: several reports and little unknown mass left. A
  // first-ever severe report always earns a closer look, however confident
  // its source was.
  if (group.report_count > 1 && group.unknown < kRetestUnknown) {
    return std::nullopt;
  }
  return PendingRetest{r.dc, r.sensed_object, mode, r.timestamp};
}

void FusionCore::append_list(ObjectId machine,
                             std::vector<MaintenanceItem>& items) const {
  const std::size_t first = items.size();
  const auto add = [&](const fusion::ModeBelief& mb, std::size_t reports) {
    if (mb.belief <= 1e-9) return;
    MaintenanceItem item;
    item.machine = machine;
    item.mode = mb.mode;
    item.fused_belief = mb.belief;
    item.plausibility = mb.plausibility;
    item.report_count = reports;

    const auto track = tracks_.find(ModeKey{machine.value(), mb.mode});
    if (track != tracks_.end()) {
      item.max_severity = track->second.max_severity;
      if (!track->second.fused_prognosis.empty()) {
        item.median_ttf =
            track->second.fused_prognosis.time_to_probability(0.5);
        item.p90_ttf = track->second.fused_prognosis.time_to_probability(0.9);
      }
      item.trend_ttf =
          track->second.trend.time_to_failure(track->second.latest_report);
    }
    item.priority = item.fused_belief * std::max(0.1, item.max_severity);
    items.push_back(item);
  };
  diagnostics_.for_each_mode(machine, add);
  std::sort(items.begin() + static_cast<std::ptrdiff_t>(first), items.end(),
            by_priority);
}

std::vector<MaintenanceItem> FusionCore::prioritized_list(
    ObjectId machine) const {
  std::vector<MaintenanceItem> items;
  append_list(machine, items);
  return items;
}

const std::vector<MaintenanceItem>& FusionCore::prioritized_list() const {
  if (!list_dirty_) return list_;
  list_dirty_ = false;
  // Each machine's list in ascending machine order (tracks_ is key-ordered),
  // then one global sort: the sort is unstable, so this input order is part
  // of the rendered bytes.
  list_.clear();
  for (auto it = tracks_.begin(); it != tracks_.end();) {
    const std::uint64_t machine = it->first.machine;
    append_list(ObjectId(machine), list_);
    while (it != tracks_.end() && it->first.machine == machine) ++it;
  }
  std::sort(list_.begin(), list_.end(), by_priority);
  return list_;
}

std::optional<fusion::PrognosticVector> FusionCore::prognosis(
    ObjectId machine, FailureMode mode) const {
  const auto it = tracks_.find(ModeKey{machine.value(), mode});
  if (it == tracks_.end() || it->second.fused_prognosis.empty()) {
    return std::nullopt;
  }
  return it->second.fused_prognosis;
}

fusion::PrognosticVector FusionCore::trend_prognosis(ObjectId machine,
                                                     FailureMode mode) const {
  const auto it = tracks_.find(ModeKey{machine.value(), mode});
  if (it == tracks_.end()) return fusion::PrognosticVector{};
  return it->second.trend.project(it->second.latest_report);
}

std::vector<net::FailureReport> FusionCore::reports_for(
    ObjectId machine) const {
  const auto it = history_.find(machine.value());
  if (it == history_.end()) return {};
  std::vector<net::FailureReport> out(it->second.size());
  for (std::size_t i = 0; i < out.size(); ++i) log_.read(it->second[i], out[i]);
  return out;
}

void FusionCore::reset_machine(ObjectId machine) {
  list_dirty_ = true;
  diagnostics_.reset(machine);
  history_.erase(machine.value());
  for (auto it = tracks_.begin(); it != tracks_.end();) {
    if (it->first.machine == machine.value()) {
      it = tracks_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace mpros::pdme
