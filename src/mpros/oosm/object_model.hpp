#pragma once
// The Object-Oriented Ship Model (paper §4).
//
// "Entities in the OOSM are modeled as objects with properties and
// relationships to other entities. Some ... represent physical entities
// such as sensors, motors, compressors, decks, and ships while other OOSM
// objects represent more abstract items such as a failure prediction report
// or a knowledge source." (§4.2)
//
// The event model (§4.5) notifies subscribers of object creation, property
// changes, and relationship changes "without the need to poll" — the
// durable journal (persistence.hpp) mirrors every change this way.
//
// Reports the PDME posts live in the report log (report_log.hpp): each
// takes a fixed-layout log record and an 8-byte id slot instead of a full
// object record, and reads back through the same object API. A logged
// report is immutable: it takes no later property or edge, and nothing can
// point at it. Objects built with create_object() — ship equipment,
// reports a third party assembles by hand — are general records; a
// hand-built report is stored and persisted but never fused (the PDME
// fuses only what its submit() posts). Objects are never deleted.
//
// Thread model: single writer (the PDME executive); listeners run inline on
// the writer thread.
//
// Reference stability: general records live in a dense table, so a name()
// reference to a general object is invalidated by object creation (table
// growth). Copy out anything needed across a mutation.

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mpros/common/ids.hpp"
#include "mpros/db/value.hpp"
#include "mpros/domain/equipment.hpp"
#include "mpros/net/report.hpp"
#include "mpros/oosm/property_map.hpp"
#include "mpros/oosm/report_log.hpp"

namespace mpros::oosm {

/// Relationship kinds per §4.2 ("part-of", proximity, kind-of, refers-to)
/// plus the §10.1 flow relation for spatial reasoning.
enum class Relation : std::uint8_t {
  PartOf = 0,   ///< child PartOf parent
  Proximity,    ///< symmetric spatial adjacency (stored both ways)
  FlowTo,       ///< fluid/energy flows from -> to
  KindOf,       ///< instance KindOf type object
  RefersTo,     ///< e.g. a report RefersTo the machine it diagnoses
};

[[nodiscard]] const char* to_string(Relation r);
inline constexpr std::size_t kRelationCount = 5;

struct OosmEvent {
  enum class Kind { ObjectCreated, PropertyChanged, RelationAdded,
                    ReportPosted, ReportsReset } kind;
  ObjectId object;          ///< subject (RelationAdded: the `from` side;
                            ///< ReportPosted: the report; ReportsReset: the
                            ///< machine)
  std::string property;     ///< PropertyChanged only
  Relation relation{};      ///< RelationAdded only
  ObjectId other;           ///< RelationAdded: the `to` side; ReportsReset:
                            ///< the new watermark
};

class ObjectModel {
 public:
  ObjectModel() = default;

  // -- Object lifecycle -----------------------------------------------------

  ObjectId create_object(std::string name, domain::EquipmentKind kind);

  [[nodiscard]] bool exists(ObjectId id) const;
  [[nodiscard]] std::size_t object_count() const {
    return records_.size() + log_.size();
  }

  [[nodiscard]] const std::string& name(ObjectId id) const;
  [[nodiscard]] domain::EquipmentKind kind(ObjectId id) const;

  /// First object with this exact name, if any.
  [[nodiscard]] std::optional<ObjectId> find_by_name(
      const std::string& name) const;
  /// All objects of one kind, in creation order.
  [[nodiscard]] std::vector<ObjectId> objects_of_kind(
      domain::EquipmentKind kind) const;
  /// Every object, in creation order.
  [[nodiscard]] std::vector<ObjectId> all_objects() const;
  /// Every object that is not a Report, in creation order. Costs
  /// O(general objects), however many reports were posted.
  [[nodiscard]] std::vector<ObjectId> equipment_objects() const;

  // -- Properties -------------------------------------------------------------

  /// `id` must be a general object: a logged report is immutable.
  void set_property(ObjectId id, const std::string& key, db::Value value);
  [[nodiscard]] std::optional<db::Value> property(ObjectId id,
                                                  const std::string& key) const;
  /// Key-sorted (same iteration order the historical std::map gave). By
  /// value: a logged report's properties are derived from its record.
  [[nodiscard]] PropertyMap properties(ObjectId id) const;

  // -- Relationships ----------------------------------------------------------

  /// Add `from -(relation)-> to`. Proximity is symmetric and stored in both
  /// directions. Duplicate edges are ignored. Both ends must be general
  /// objects: a logged report is immutable.
  void relate(ObjectId from, Relation relation, ObjectId to);

  /// Targets of `from -(relation)->`.
  [[nodiscard]] std::vector<ObjectId> related(ObjectId from,
                                              Relation relation) const;
  /// Sources of `-(relation)-> to`.
  [[nodiscard]] std::vector<ObjectId> related_to(ObjectId to,
                                                 Relation relation) const;
  [[nodiscard]] bool has_relation(ObjectId from, Relation relation,
                                  ObjectId to) const;

  /// Transitive closure along FlowTo starting after `id` (spatial reasoning
  /// hook of §10.1: fouled fluid propagates downstream).
  [[nodiscard]] std::vector<ObjectId> downstream_of(ObjectId id) const;

  /// Parent via PartOf (a component has at most one).
  [[nodiscard]] std::optional<ObjectId> parent_of(ObjectId id) const;
  /// Transitive PartOf children.
  [[nodiscard]] std::vector<ObjectId> components_of(ObjectId id) const;

  // -- Report log -------------------------------------------------------------

  /// Post one failure report as a Report object backed by the report log,
  /// with a `RefersTo` edge to the sensed object when that is a general
  /// object, and emit one ReportPosted event once the record is complete.
  /// The object reads as "Report <condition> on <sensed>" with properties
  /// belief, condition, dc, explanation, ks, posted (always 1), prognostics
  /// (encode_prognostics text), recommendations, sensed, severity,
  /// timestamp_us and, when nonzero, trace. additional_info is kept in the
  /// log, not as a property.
  ObjectId post_report(const net::FailureReport& report);

  [[nodiscard]] const ReportLog& report_log() const { return log_; }
  /// Log index of a report object posted through post_report().
  [[nodiscard]] std::optional<std::uint32_t> report_index(ObjectId id) const;

  /// Maintenance reset: reports on `machine` posted before now no longer
  /// count toward its condition. Records the watermark — the next object
  /// id, so exactly the reports posted since sit at or above it — and
  /// emits ReportsReset so a journal can persist it.
  void reset_reports(ObjectId machine);
  /// The latest reset watermark of every machine ever reset, by machine id.
  [[nodiscard]] const std::map<std::uint64_t, ObjectId>& report_resets()
      const {
    return resets_;
  }

  // -- Events -----------------------------------------------------------------

  using Listener = std::function<void(const OosmEvent&)>;
  using SubscriptionId = std::size_t;

  SubscriptionId subscribe(Listener listener);
  void unsubscribe(SubscriptionId id);

 private:
  /// A general object: everything but a logged report.
  struct ObjectRecord {
    ObjectId id;
    std::string name;
    domain::EquipmentKind kind{};
    PropertyMap properties;
    std::vector<ObjectId> out[kRelationCount];
    std::vector<ObjectId> in[kRelationCount];
  };
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  /// Per-id slot: a log index (a logged report), a record index (a general
  /// object) or neither (no such object).
  struct Slot {
    std::uint32_t log = kNone;
    std::uint32_t record = kNone;
    [[nodiscard]] bool live() const { return log != kNone || record != kNone; }
  };

  /// Restore an object under a specific id (persistence only).
  void create_object_with_id(ObjectId id, std::string name,
                             domain::EquipmentKind kind);
  /// Restore a logged report under a specific id (persistence only). The
  /// RefersTo edge is restored when `refers` and the sensed object is a
  /// general object.
  void restore_report(ObjectId id, const net::FailureReport& report,
                      bool refers);
  /// Log `report` under `id`, linked RefersTo the sensed object when
  /// `refers` and that is a general object.
  void append_report(ObjectId id, const net::FailureReport& report,
                     bool refers);
  /// Restore a reset watermark (persistence only).
  void restore_reset(ObjectId machine, ObjectId watermark);

  /// Claim the (empty) slot for `id`, growing the table as needed.
  Slot& allocate_slot(ObjectId id);
  ObjectRecord& new_record(ObjectId id, Slot& slot);

  [[nodiscard]] const Slot& slot(ObjectId id) const;
  /// The general record of `id`; a logged report or an unknown id violates
  /// the precondition.
  ObjectRecord& record(ObjectId id);
  /// The general record of `id`, or nullptr for a logged report.
  [[nodiscard]] const ObjectRecord* find_record(ObjectId id) const;
  /// The log record behind `id`, or nullptr for a general object.
  [[nodiscard]] const ReportLog::Record* log_record(ObjectId id) const;
  [[nodiscard]] std::optional<db::Value> report_property(
      const ReportLog::Record& rec, std::string_view key) const;
  void notify(const OosmEvent& event);
  void add_edge(ObjectId from, Relation relation, ObjectId to);

  /// Dense id-indexed slots (ids are allocated sequentially from 1; only a
  /// model loaded from tables with id gaps has holes); id order is
  /// creation order.
  std::vector<Slot> slots_;
  std::vector<ObjectRecord> records_;
  ReportLog log_;
  std::map<std::uint64_t, ObjectId> resets_;
  std::uint64_t next_id_ = 1;
  std::map<SubscriptionId, Listener> listeners_;
  SubscriptionId next_subscription_ = 1;

  friend class Persistence;
};

}  // namespace mpros::oosm
