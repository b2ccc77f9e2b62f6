#pragma once
// OOSM <-> relational mapping (paper §4.6).
//
// "Object types are mapped to tables and properties and relationships are
// mapped to columns and helper tables." Persistence is managed "entirely in
// the background": a DurableModelJournal writes the tables as the model
// changes; Persistence::load() rebuilds a model from them, preserving
// object ids.

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "mpros/db/database.hpp"
#include "mpros/oosm/object_model.hpp"

namespace mpros::oosm {

class Persistence {
 public:
  /// Rebuild a model from the tables a DurableModelJournal maintains.
  /// Object ids match the originals; listeners are not restored.
  static ObjectModel load(const db::Database& db);

  static constexpr const char* kObjectsTable = "oosm_objects";
  static constexpr const char* kPropertiesTable = "oosm_properties";
  static constexpr const char* kRelationsTable = "oosm_relations";
  static constexpr const char* kReportsTable = "oosm_reports";
  static constexpr const char* kResetsTable = "oosm_report_resets";
};

/// Incremental background persistence (paper §4.6: "managed entirely in the
/// background"): subscribes to an ObjectModel and mirrors every event —
/// creation, property change, relation, report post, report reset — through
/// the *journaled* Database mutators, so an attached write-ahead log
/// captures each change as it happens. General objects go to oosm_objects,
/// their properties and edges to oosm_properties / oosm_relations, one
/// oosm_reports row per logged report (written at its ReportPosted event,
/// its RefersTo edge a column of the row), and one oosm_report_resets row
/// per reset watermark. Rows are only ever inserted or updated: objects are
/// never deleted and a logged report never changes.
///
/// Two start modes, decided by what is already in `db`:
///  - fresh (no oosm_objects table): creates the tables, writes whatever
///    the model already holds, then mirrors events.
///  - adopt (tables exist, e.g. recovered from WAL): rebuilds its row-key
///    bookkeeping from the tables and continues mirroring. The model must
///    match the tables (it was just loaded from them). A directory written
///    before the report tables existed gets them created here.
///
/// Runs inline on the model's single writer thread, like every listener.
class DurableModelJournal {
 public:
  DurableModelJournal(ObjectModel& model, db::Database& db);
  ~DurableModelJournal();

  DurableModelJournal(const DurableModelJournal&) = delete;
  DurableModelJournal& operator=(const DurableModelJournal&) = delete;

 private:
  void create_tables();
  void adopt_tables();
  void on_event(const OosmEvent& event);
  void insert_object(ObjectId id);
  void insert_report(ObjectId id);
  void insert_relation(ObjectId from, Relation relation, ObjectId to);
  void upsert_property(ObjectId id, const std::string& key);
  void record_reset(ObjectId machine, ObjectId watermark);

  ObjectModel& model_;
  db::Database& db_;
  ObjectModel::SubscriptionId subscription_ = 0;

  struct PropRow {
    std::int64_t row = 0;
    db::ValueType type = db::ValueType::Null;  ///< typed column currently set
  };
  std::map<std::pair<std::uint64_t, std::string>, PropRow> prop_rows_;
};

}  // namespace mpros::oosm
