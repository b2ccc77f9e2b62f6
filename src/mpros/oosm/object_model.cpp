#include "mpros/oosm/object_model.hpp"

#include <algorithm>
#include <iterator>
#include <string_view>

#include "mpros/common/assert.hpp"

namespace mpros::oosm {

const char* to_string(Relation r) {
  switch (r) {
    case Relation::PartOf: return "part-of";
    case Relation::Proximity: return "proximity";
    case Relation::FlowTo: return "flow-to";
    case Relation::KindOf: return "kind-of";
    case Relation::RefersTo: return "refers-to";
  }
  return "?";
}

namespace {

/// A logged report's property keys, ASCII-sorted (PropertyMap order).
constexpr std::string_view kReportKeys[] = {
    "belief", "condition",   "dc",          "explanation",
    "ks",     "posted",      "prognostics", "recommendations",
    "sensed", "severity",    "timestamp_us", "trace"};

}  // namespace

ObjectModel::Slot& ObjectModel::allocate_slot(ObjectId id) {
  if (id.value() >= slots_.size()) slots_.resize(id.value() + 1);
  Slot& s = slots_[id.value()];
  MPROS_EXPECTS(!s.live());
  return s;
}

ObjectModel::ObjectRecord& ObjectModel::new_record(ObjectId id, Slot& slot) {
  MPROS_EXPECTS(records_.size() < kNone);
  slot.record = static_cast<std::uint32_t>(records_.size());
  ObjectRecord& rec = records_.emplace_back();
  rec.id = id;
  return rec;
}

ObjectId ObjectModel::create_object(std::string name,
                                    domain::EquipmentKind kind) {
  const ObjectId id(next_id_++);
  ObjectRecord& rec = new_record(id, allocate_slot(id));
  rec.name = std::move(name);
  rec.kind = kind;
  notify(OosmEvent{OosmEvent::Kind::ObjectCreated, id, {}, {}, {}});
  return id;
}

void ObjectModel::create_object_with_id(ObjectId id, std::string name,
                                        domain::EquipmentKind kind) {
  MPROS_EXPECTS(id.valid() && !exists(id));
  ObjectRecord& rec = new_record(id, allocate_slot(id));
  rec.name = std::move(name);
  rec.kind = kind;
  next_id_ = std::max(next_id_, id.value() + 1);
  notify(OosmEvent{OosmEvent::Kind::ObjectCreated, id, {}, {}, {}});
}

void ObjectModel::append_report(ObjectId id, const net::FailureReport& report,
                                bool refers) {
  const std::uint32_t index = log_.append(report);
  allocate_slot(id).log = index;
  const ObjectId sensed = report.sensed_object;
  if (refers && exists(sensed) && find_record(sensed) != nullptr) {
    log_.mutable_record(index).flags = ReportLog::kRefersTo;
    record(sensed).in[static_cast<std::size_t>(Relation::RefersTo)].push_back(
        id);
  }
}

ObjectId ObjectModel::post_report(const net::FailureReport& report) {
  const ObjectId id(next_id_++);
  append_report(id, report, /*refers=*/true);
  notify(OosmEvent{OosmEvent::Kind::ReportPosted, id, {}, {}, {}});
  return id;
}

void ObjectModel::restore_report(ObjectId id, const net::FailureReport& report,
                                 bool refers) {
  MPROS_EXPECTS(id.valid() && !exists(id));
  append_report(id, report, refers);
  next_id_ = std::max(next_id_, id.value() + 1);
  notify(OosmEvent{OosmEvent::Kind::ReportPosted, id, {}, {}, {}});
}

std::optional<std::uint32_t> ObjectModel::report_index(ObjectId id) const {
  if (!exists(id) || slots_[id.value()].log == kNone) return std::nullopt;
  return slots_[id.value()].log;
}

void ObjectModel::reset_reports(ObjectId machine) {
  const ObjectId watermark(next_id_);
  resets_[machine.value()] = watermark;
  notify(OosmEvent{OosmEvent::Kind::ReportsReset, machine, {}, {}, watermark});
}

void ObjectModel::restore_reset(ObjectId machine, ObjectId watermark) {
  resets_[machine.value()] = watermark;
}

bool ObjectModel::exists(ObjectId id) const {
  return id.value() < slots_.size() && slots_[id.value()].live();
}

const ObjectModel::Slot& ObjectModel::slot(ObjectId id) const {
  MPROS_EXPECTS(exists(id));
  return slots_[id.value()];
}

ObjectModel::ObjectRecord& ObjectModel::record(ObjectId id) {
  MPROS_EXPECTS(exists(id) && slots_[id.value()].record != kNone);
  return records_[slots_[id.value()].record];
}

const ObjectModel::ObjectRecord* ObjectModel::find_record(ObjectId id) const {
  const Slot& s = slot(id);
  return s.record != kNone ? &records_[s.record] : nullptr;
}

const ReportLog::Record* ObjectModel::log_record(ObjectId id) const {
  const Slot& s = slot(id);
  return s.log != kNone ? &log_.record(s.log) : nullptr;
}

const std::string& ObjectModel::name(ObjectId id) const {
  const Slot& s = slot(id);
  return s.log != kNone ? log_.text(log_.record(s.log).name)
                        : records_[s.record].name;
}

domain::EquipmentKind ObjectModel::kind(ObjectId id) const {
  const Slot& s = slot(id);
  return s.log != kNone ? domain::EquipmentKind::Report
                        : records_[s.record].kind;
}

std::optional<ObjectId> ObjectModel::find_by_name(
    const std::string& name) const {
  for (std::uint64_t v = 1; v < slots_.size(); ++v) {
    if (slots_[v].live() && this->name(ObjectId(v)) == name) {
      return ObjectId(v);
    }
  }
  return std::nullopt;
}

std::vector<ObjectId> ObjectModel::objects_of_kind(
    domain::EquipmentKind kind) const {
  std::vector<ObjectId> out;
  for (std::uint64_t v = 1; v < slots_.size(); ++v) {
    if (slots_[v].live() && this->kind(ObjectId(v)) == kind) {
      out.emplace_back(v);
    }
  }
  return out;
}

std::vector<ObjectId> ObjectModel::all_objects() const {
  std::vector<ObjectId> out;
  out.reserve(object_count());
  for (std::uint64_t v = 1; v < slots_.size(); ++v) {
    if (slots_[v].live()) out.emplace_back(v);
  }
  return out;
}

std::vector<ObjectId> ObjectModel::equipment_objects() const {
  // Only general objects have records, so this walk never touches the
  // report log. Records are made in creation order (Persistence::load
  // restores ascending ids).
  std::vector<ObjectId> out;
  for (const ObjectRecord& rec : records_) {
    if (rec.kind != domain::EquipmentKind::Report) out.push_back(rec.id);
  }
  return out;
}

void ObjectModel::set_property(ObjectId id, const std::string& key,
                               db::Value value) {
  record(id).properties.set(key, std::move(value));
  notify(OosmEvent{OosmEvent::Kind::PropertyChanged, id, key, {}, {}});
}

std::optional<db::Value> ObjectModel::report_property(
    const ReportLog::Record& rec, std::string_view key) const {
  const auto integer = [](std::uint64_t v) {
    return db::Value(static_cast<std::int64_t>(v));
  };
  if (key == "belief") return db::Value(rec.belief);
  if (key == "condition") return integer(rec.machine_condition.value());
  if (key == "dc") return integer(rec.dc.value());
  if (key == "explanation") return db::Value(log_.text(rec.explanation));
  if (key == "ks") return integer(rec.knowledge_source.value());
  if (key == "posted") return db::Value(std::int64_t{1});
  if (key == "prognostics") {
    return db::Value(encode_prognostics(log_.prognostics(rec)));
  }
  if (key == "recommendations") {
    return db::Value(log_.text(rec.recommendations));
  }
  if (key == "sensed") return integer(rec.sensed_object.value());
  if (key == "severity") return db::Value(rec.severity);
  if (key == "timestamp_us") return db::Value(rec.timestamp.micros());
  if (key == "trace" && rec.trace != 0) return integer(rec.trace);
  return std::nullopt;
}

std::optional<db::Value> ObjectModel::property(ObjectId id,
                                               const std::string& key) const {
  if (const ReportLog::Record* lr = log_record(id)) {
    return report_property(*lr, key);
  }
  if (const db::Value* v = find_record(id)->properties.find(key)) return *v;
  return std::nullopt;
}

PropertyMap ObjectModel::properties(ObjectId id) const {
  const ReportLog::Record* lr = log_record(id);
  if (lr == nullptr) return find_record(id)->properties;
  PropertyMap out;
  out.reserve(std::size(kReportKeys));
  for (const std::string_view key : kReportKeys) {
    if (auto v = report_property(*lr, key)) out.append(key, std::move(*v));
  }
  return out;
}

void ObjectModel::add_edge(ObjectId from, Relation relation, ObjectId to) {
  const auto r = static_cast<std::size_t>(relation);
  // record() is the precondition: both ends are general objects.
  auto& out = record(from).out[r];
  auto& in = record(to).in[r];
  if (std::find(out.begin(), out.end(), to) != out.end()) return;
  out.push_back(to);
  in.push_back(from);
  notify(OosmEvent{OosmEvent::Kind::RelationAdded, from, {}, relation, to});
}

void ObjectModel::relate(ObjectId from, Relation relation, ObjectId to) {
  MPROS_EXPECTS(from != to);
  add_edge(from, relation, to);
  if (relation == Relation::Proximity) add_edge(to, relation, from);
}

std::vector<ObjectId> ObjectModel::related(ObjectId from,
                                           Relation relation) const {
  if (const ReportLog::Record* lr = log_record(from)) {
    if (relation == Relation::RefersTo &&
        (lr->flags & ReportLog::kRefersTo) != 0) {
      return {lr->sensed_object};
    }
    return {};
  }
  return find_record(from)->out[static_cast<std::size_t>(relation)];
}

std::vector<ObjectId> ObjectModel::related_to(ObjectId to,
                                              Relation relation) const {
  const ObjectRecord* rec = find_record(to);
  if (rec == nullptr) return {};
  return rec->in[static_cast<std::size_t>(relation)];
}

bool ObjectModel::has_relation(ObjectId from, Relation relation,
                               ObjectId to) const {
  const std::vector<ObjectId> targets = related(from, relation);
  return std::find(targets.begin(), targets.end(), to) != targets.end();
}

std::vector<ObjectId> ObjectModel::downstream_of(ObjectId id) const {
  std::vector<ObjectId> result;
  std::vector<ObjectId> frontier{id};
  while (!frontier.empty()) {
    const ObjectId current = frontier.back();
    frontier.pop_back();
    for (const ObjectId next : related(current, Relation::FlowTo)) {
      if (std::find(result.begin(), result.end(), next) != result.end()) {
        continue;  // cycles (closed fluid loops) are expected
      }
      if (next == id) continue;
      result.push_back(next);
      frontier.push_back(next);
    }
  }
  return result;
}

std::optional<ObjectId> ObjectModel::parent_of(ObjectId id) const {
  const auto parents = related(id, Relation::PartOf);
  if (parents.empty()) return std::nullopt;
  MPROS_ASSERT(parents.size() == 1);
  return parents.front();
}

std::vector<ObjectId> ObjectModel::components_of(ObjectId id) const {
  std::vector<ObjectId> result;
  std::vector<ObjectId> frontier{id};
  while (!frontier.empty()) {
    const ObjectId current = frontier.back();
    frontier.pop_back();
    for (const ObjectId child : related_to(current, Relation::PartOf)) {
      result.push_back(child);
      frontier.push_back(child);
    }
  }
  return result;
}

ObjectModel::SubscriptionId ObjectModel::subscribe(Listener listener) {
  MPROS_EXPECTS(listener != nullptr);
  const SubscriptionId id = next_subscription_++;
  listeners_.emplace(id, std::move(listener));
  return id;
}

void ObjectModel::unsubscribe(SubscriptionId id) {
  MPROS_EXPECTS(listeners_.erase(id) == 1);
}

void ObjectModel::notify(const OosmEvent& event) {
  for (const auto& [id, listener] : listeners_) listener(event);
}

}  // namespace mpros::oosm
