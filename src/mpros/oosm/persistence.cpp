#include "mpros/oosm/persistence.hpp"

#include "mpros/common/assert.hpp"

namespace mpros::oosm {
namespace {

using db::ColumnDef;
using db::TableSchema;
using db::Value;
using db::ValueType;

TableSchema objects_schema() {
  return TableSchema{
      Persistence::kObjectsTable,
      {ColumnDef{"id", ValueType::Integer, false},
       ColumnDef{"name", ValueType::Text, false},
       ColumnDef{"kind", ValueType::Integer, false}}};
}

TableSchema properties_schema() {
  return TableSchema{
      Persistence::kPropertiesTable,
      {ColumnDef{"id", ValueType::Integer, false},
       ColumnDef{"object_id", ValueType::Integer, false},
       ColumnDef{"key", ValueType::Text, false},
       // One column per storable type; exactly one is non-null.
       ColumnDef{"int_value", ValueType::Integer, true},
       ColumnDef{"real_value", ValueType::Real, true},
       ColumnDef{"text_value", ValueType::Text, true}}};
}

TableSchema relations_schema() {
  return TableSchema{
      Persistence::kRelationsTable,
      {ColumnDef{"id", ValueType::Integer, false},
       ColumnDef{"from_id", ValueType::Integer, false},
       ColumnDef{"relation", ValueType::Integer, false},
       ColumnDef{"to_id", ValueType::Integer, false}}};
}

TableSchema reports_schema() {
  return TableSchema{
      Persistence::kReportsTable,
      {ColumnDef{"id", ValueType::Integer, false},
       ColumnDef{"dc", ValueType::Integer, false},
       ColumnDef{"ks", ValueType::Integer, false},
       ColumnDef{"sensed", ValueType::Integer, false},
       ColumnDef{"condition", ValueType::Integer, false},
       ColumnDef{"severity", ValueType::Real, false},
       ColumnDef{"belief", ValueType::Real, false},
       ColumnDef{"timestamp_us", ValueType::Integer, false},
       ColumnDef{"trace", ValueType::Integer, false},
       ColumnDef{"refers", ValueType::Integer, false},  ///< RefersTo edge
       ColumnDef{"explanation", ValueType::Text, false},
       ColumnDef{"recommendations", ValueType::Text, false},
       ColumnDef{"additional_info", ValueType::Text, false},
       ColumnDef{"prognostics", ValueType::Text, false}}};
}

TableSchema resets_schema() {
  return TableSchema{Persistence::kResetsTable,
                     {ColumnDef{"machine_id", ValueType::Integer, false},
                      ColumnDef{"watermark", ValueType::Integer, false}}};
}

Value integer(std::uint64_t v) { return Value(static_cast<std::int64_t>(v)); }

/// The oosm_reports row of the logged report `id`.
db::Row report_row(const ObjectModel& model, ObjectId id) {
  const ReportLog& log = model.report_log();
  const ReportLog::Record& r = log.record(*model.report_index(id));
  return {integer(id.value()),
          integer(r.dc.value()),
          integer(r.knowledge_source.value()),
          integer(r.sensed_object.value()),
          integer(r.machine_condition.value()),
          Value(r.severity),
          Value(r.belief),
          Value(r.timestamp.micros()),
          integer(r.trace),
          Value(std::int64_t{(r.flags & ReportLog::kRefersTo) != 0 ? 1 : 0}),
          Value(log.text(r.explanation)),
          Value(log.text(r.recommendations)),
          Value(log.text(r.additional_info)),
          Value(encode_prognostics(log.prognostics(r)))};
}

net::FailureReport report_from_row(const db::Row& row) {
  const auto id = [&](std::size_t column) {
    return static_cast<std::uint64_t>(row[column].as_integer());
  };
  net::FailureReport r;
  r.dc = DcId(id(1));
  r.knowledge_source = KnowledgeSourceId(id(2));
  r.sensed_object = ObjectId(id(3));
  r.machine_condition = ConditionId(id(4));
  r.severity = row[5].as_real();
  r.belief = row[6].as_real();
  r.timestamp = SimTime(row[7].as_integer());
  r.trace = id(8);
  r.explanation = row[10].as_text();
  r.recommendations = row[11].as_text();
  r.additional_info = row[12].as_text();
  r.prognostics = decode_prognostics(row[13].as_text());
  return r;
}

}  // namespace

DurableModelJournal::DurableModelJournal(ObjectModel& model, db::Database& db)
    : model_(model), db_(db) {
  if (db_.has_table(Persistence::kObjectsTable)) {
    adopt_tables();
  } else {
    create_tables();
  }
  subscription_ =
      model_.subscribe([this](const OosmEvent& event) { on_event(event); });
}

DurableModelJournal::~DurableModelJournal() {
  model_.unsubscribe(subscription_);
}

void DurableModelJournal::create_tables() {
  db_.create_table(objects_schema());
  db_.create_table(properties_schema());
  db_.create_table(relations_schema());
  db_.create_table(reports_schema());
  db_.create_table(resets_schema());

  // Whatever the model already holds goes in through the row writers its
  // events use. A logged report is its oosm_reports row alone.
  for (const ObjectId id : model_.all_objects()) {
    if (model_.report_index(id).has_value()) {
      insert_report(id);
      continue;
    }
    insert_object(id);
    for (const auto& [key, value] : model_.properties(id)) {
      upsert_property(id, key);
    }
    for (std::size_t r = 0; r < kRelationCount; ++r) {
      const auto relation = static_cast<Relation>(r);
      for (const ObjectId to : model_.related(id, relation)) {
        insert_relation(id, relation, to);
      }
    }
  }
  for (const auto& [machine, watermark] : model_.report_resets()) {
    record_reset(ObjectId(machine), watermark);
  }
}

void DurableModelJournal::adopt_tables() {
  if (!db_.has_table(Persistence::kReportsTable)) {
    db_.create_table(reports_schema());
  }
  if (!db_.has_table(Persistence::kResetsTable)) {
    db_.create_table(resets_schema());
  }
  for (const auto& [row_key, row] :
       db_.table(Persistence::kPropertiesTable).rows()) {
    const auto object = static_cast<std::uint64_t>(row[1].as_integer());
    db::ValueType type = db::ValueType::Null;
    if (!row[3].is_null()) {
      type = db::ValueType::Integer;
    } else if (!row[4].is_null()) {
      type = db::ValueType::Real;
    } else if (!row[5].is_null()) {
      type = db::ValueType::Text;
    }
    prop_rows_.emplace(std::pair{object, row[2].as_text()},
                       PropRow{row_key, type});
  }
}

namespace {

const char* typed_column(ValueType type) {
  switch (type) {
    case ValueType::Integer: return "int_value";
    case ValueType::Real: return "real_value";
    case ValueType::Text: return "text_value";
    case ValueType::Null: break;
  }
  return nullptr;
}

}  // namespace

void DurableModelJournal::upsert_property(ObjectId id, const std::string& key) {
  const std::optional<Value> value = model_.property(id, key);
  const Value v = value.value_or(Value());
  const ValueType type = v.type();

  const auto map_key = std::pair{id.value(), key};
  const auto it = prop_rows_.find(map_key);
  if (it == prop_rows_.end()) {
    Value int_v, real_v, text_v;
    switch (type) {
      case ValueType::Integer: int_v = v; break;
      case ValueType::Real: real_v = v; break;
      case ValueType::Text: text_v = v; break;
      case ValueType::Null: break;
    }
    const std::int64_t row = db_.insert_auto(
        Persistence::kPropertiesTable,
        {Value(static_cast<std::int64_t>(id.value())), Value(key), int_v,
         real_v, text_v});
    prop_rows_.emplace(map_key, PropRow{row, type});
    return;
  }

  PropRow& rec = it->second;
  if (rec.type != type && rec.type != ValueType::Null) {
    db_.update(Persistence::kPropertiesTable, rec.row, typed_column(rec.type),
               Value());
  }
  if (type != ValueType::Null) {
    db_.update(Persistence::kPropertiesTable, rec.row, typed_column(type), v);
  }
  rec.type = type;
}

void DurableModelJournal::insert_object(ObjectId id) {
  db_.insert(Persistence::kObjectsTable,
             {integer(id.value()), Value(model_.name(id)),
              Value(static_cast<std::int64_t>(model_.kind(id)))});
}

void DurableModelJournal::insert_report(ObjectId id) {
  db_.insert(Persistence::kReportsTable, report_row(model_, id));
}

void DurableModelJournal::insert_relation(ObjectId from, Relation relation,
                                          ObjectId to) {
  db_.insert_auto(Persistence::kRelationsTable,
                  {integer(from.value()),
                   Value(static_cast<std::int64_t>(relation)),
                   integer(to.value())});
}

void DurableModelJournal::record_reset(ObjectId machine, ObjectId watermark) {
  const auto key = static_cast<std::int64_t>(machine.value());
  const Value value = integer(watermark.value());
  if (db_.table(Persistence::kResetsTable).find(key) != nullptr) {
    db_.update(Persistence::kResetsTable, key, "watermark", value);
  } else {
    db_.insert(Persistence::kResetsTable, {Value(key), value});
  }
}

void DurableModelJournal::on_event(const OosmEvent& event) {
  switch (event.kind) {
    case OosmEvent::Kind::ObjectCreated:
      insert_object(event.object);
      break;
    case OosmEvent::Kind::PropertyChanged:
      upsert_property(event.object, event.property);
      break;
    case OosmEvent::Kind::RelationAdded:
      insert_relation(event.object, event.relation, event.other);
      break;
    case OosmEvent::Kind::ReportPosted:
      // The whole report, its RefersTo edge included, is one row.
      insert_report(event.object);
      break;
    case OosmEvent::Kind::ReportsReset:
      record_reset(event.object, event.other);
      break;
  }
}

ObjectModel Persistence::load(const db::Database& db) {
  ObjectModel model;

  // General objects and logged reports interleave by id, which is creation
  // order: restore them merged so every report finds its machine in place.
  static const std::map<std::int64_t, db::Row> kNoRows;
  const auto& objects = db.table(kObjectsTable).rows();
  const auto& reports =
      db.has_table(kReportsTable) ? db.table(kReportsTable).rows() : kNoRows;
  auto o = objects.begin();
  auto r = reports.begin();
  while (o != objects.end() || r != reports.end()) {
    if (r == reports.end() || (o != objects.end() && o->first < r->first)) {
      const db::Row& row = o->second;
      model.create_object_with_id(
          ObjectId(static_cast<std::uint64_t>(row[0].as_integer())),
          row[1].as_text(),
          static_cast<domain::EquipmentKind>(row[2].as_integer()));
      ++o;
    } else {
      const db::Row& row = r->second;
      model.restore_report(
          ObjectId(static_cast<std::uint64_t>(row[0].as_integer())),
          report_from_row(row), row[9].as_integer() != 0);
      ++r;
    }
  }
  if (db.has_table(kResetsTable)) {
    for (const auto& [key, row] : db.table(kResetsTable).rows()) {
      model.restore_reset(
          ObjectId(static_cast<std::uint64_t>(row[0].as_integer())),
          ObjectId(static_cast<std::uint64_t>(row[1].as_integer())));
    }
  }

  for (const auto& [row_key, row] : db.table(kPropertiesTable).rows()) {
    const ObjectId object(static_cast<std::uint64_t>(row[1].as_integer()));
    const std::string& key = row[2].as_text();
    if (!row[3].is_null()) {
      model.set_property(object, key, row[3]);
    } else if (!row[4].is_null()) {
      model.set_property(object, key, row[4]);
    } else if (!row[5].is_null()) {
      model.set_property(object, key, row[5]);
    } else {
      model.set_property(object, key, Value());
    }
  }

  for (const auto& [key, row] : db.table(kRelationsTable).rows()) {
    const ObjectId from(static_cast<std::uint64_t>(row[1].as_integer()));
    const auto relation = static_cast<Relation>(row[2].as_integer());
    const ObjectId to(static_cast<std::uint64_t>(row[3].as_integer()));
    if (!model.has_relation(from, relation, to)) {
      model.relate(from, relation, to);
    }
  }
  return model;
}

}  // namespace mpros::oosm
