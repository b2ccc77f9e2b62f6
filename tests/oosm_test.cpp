// Object-Oriented Ship Model tests: objects, properties, relationships,
// events, persistence mapping, spatial queries, ship builder.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "mpros/db/snapshot.hpp"
#include "mpros/oosm/object_model.hpp"
#include "mpros/oosm/persistence.hpp"
#include "mpros/oosm/ship_builder.hpp"

namespace mpros::oosm {
namespace {

using domain::EquipmentKind;

TEST(ObjectModelTest, CreateAndFind) {
  ObjectModel m;
  const ObjectId motor = m.create_object("Motor 1", EquipmentKind::InductionMotor);
  EXPECT_TRUE(m.exists(motor));
  EXPECT_EQ(m.name(motor), "Motor 1");
  EXPECT_EQ(m.kind(motor), EquipmentKind::InductionMotor);
  EXPECT_EQ(m.find_by_name("Motor 1"), motor);
  EXPECT_FALSE(m.find_by_name("nope").has_value());
  EXPECT_FALSE(m.exists(ObjectId(motor.value() + 1)));
  EXPECT_EQ(m.object_count(), 1u);
}

TEST(ObjectModelTest, PropertiesTypedAndOverwritable) {
  ObjectModel m;
  const ObjectId o = m.create_object("x", EquipmentKind::Sensor);
  m.set_property(o, "capacity", 450.0);
  m.set_property(o, "manufacturer", "York");
  EXPECT_DOUBLE_EQ(m.property(o, "capacity")->as_real(), 450.0);
  EXPECT_EQ(m.property(o, "manufacturer")->as_text(), "York");
  EXPECT_FALSE(m.property(o, "missing").has_value());
  m.set_property(o, "capacity", 500.0);
  EXPECT_DOUBLE_EQ(m.property(o, "capacity")->as_real(), 500.0);
  EXPECT_EQ(m.properties(o).size(), 2u);
}

TEST(ObjectModelTest, RelationsForwardAndInverse) {
  ObjectModel m;
  const ObjectId chiller = m.create_object("chiller", EquipmentKind::Chiller);
  const ObjectId motor = m.create_object("motor", EquipmentKind::InductionMotor);
  m.relate(motor, Relation::PartOf, chiller);

  EXPECT_TRUE(m.has_relation(motor, Relation::PartOf, chiller));
  EXPECT_FALSE(m.has_relation(chiller, Relation::PartOf, motor));
  EXPECT_EQ(m.related(motor, Relation::PartOf).size(), 1u);
  EXPECT_EQ(m.related_to(chiller, Relation::PartOf).size(), 1u);
  EXPECT_EQ(m.parent_of(motor), chiller);
  EXPECT_FALSE(m.parent_of(chiller).has_value());
}

TEST(ObjectModelTest, ProximityIsSymmetric) {
  ObjectModel m;
  const ObjectId a = m.create_object("a", EquipmentKind::CentrifugalPump);
  const ObjectId b = m.create_object("b", EquipmentKind::Evaporator);
  m.relate(a, Relation::Proximity, b);
  EXPECT_TRUE(m.has_relation(a, Relation::Proximity, b));
  EXPECT_TRUE(m.has_relation(b, Relation::Proximity, a));
}

TEST(ObjectModelTest, DuplicateEdgesIgnored) {
  ObjectModel m;
  const ObjectId a = m.create_object("a", EquipmentKind::Sensor);
  const ObjectId b = m.create_object("b", EquipmentKind::Sensor);
  m.relate(a, Relation::RefersTo, b);
  m.relate(a, Relation::RefersTo, b);
  EXPECT_EQ(m.related(a, Relation::RefersTo).size(), 1u);
}

TEST(ObjectModelTest, DownstreamFollowsFlowTransitively) {
  // §10.1: "one component passing fouled fluids on to other components
  // downstream".
  ObjectModel m;
  const ObjectId comp = m.create_object("comp", EquipmentKind::CentrifugalCompressor);
  const ObjectId cond = m.create_object("cond", EquipmentKind::Condenser);
  const ObjectId evap = m.create_object("evap", EquipmentKind::Evaporator);
  m.relate(comp, Relation::FlowTo, cond);
  m.relate(cond, Relation::FlowTo, evap);
  m.relate(evap, Relation::FlowTo, comp);  // closed refrigerant loop

  const auto downstream = m.downstream_of(comp);
  EXPECT_EQ(downstream.size(), 2u);  // cond + evap; cycle back excluded
}

TEST(ObjectModelTest, ComponentsOfTransitive) {
  ObjectModel m;
  const ObjectId ship = m.create_object("ship", EquipmentKind::Ship);
  const ObjectId deck = m.create_object("deck", EquipmentKind::Deck);
  const ObjectId chiller = m.create_object("ch", EquipmentKind::Chiller);
  m.relate(deck, Relation::PartOf, ship);
  m.relate(chiller, Relation::PartOf, deck);
  EXPECT_EQ(m.components_of(ship).size(), 2u);
}

TEST(ObjectModelTest, EventsFireForAllMutations) {
  ObjectModel m;
  std::vector<OosmEvent::Kind> kinds;
  const auto sub = m.subscribe(
      [&](const OosmEvent& e) { kinds.push_back(e.kind); });

  const ObjectId a = m.create_object("a", EquipmentKind::Sensor);
  const ObjectId b = m.create_object("b", EquipmentKind::Sensor);
  m.set_property(a, "v", 1.0);
  m.relate(a, Relation::RefersTo, b);
  net::FailureReport r;
  r.sensed_object = a;
  m.post_report(r);
  m.reset_reports(a);

  ASSERT_EQ(kinds.size(), 6u);
  EXPECT_EQ(kinds[0], OosmEvent::Kind::ObjectCreated);
  EXPECT_EQ(kinds[2], OosmEvent::Kind::PropertyChanged);
  EXPECT_EQ(kinds[3], OosmEvent::Kind::RelationAdded);
  EXPECT_EQ(kinds[4], OosmEvent::Kind::ReportPosted);
  EXPECT_EQ(kinds[5], OosmEvent::Kind::ReportsReset);

  m.unsubscribe(sub);
  m.set_property(a, "v", 2.0);
  EXPECT_EQ(kinds.size(), 6u);  // no more notifications
}

TEST(ObjectModelTest, EventCarriesDetails) {
  ObjectModel m;
  const ObjectId a = m.create_object("a", EquipmentKind::Sensor);
  OosmEvent last{};
  m.subscribe([&](const OosmEvent& e) { last = e; });
  m.set_property(a, "temperature", 55.0);
  EXPECT_EQ(last.kind, OosmEvent::Kind::PropertyChanged);
  EXPECT_EQ(last.object, a);
  EXPECT_EQ(last.property, "temperature");
}

TEST(PersistenceTest, SaveLoadRoundTrip) {
  ObjectModel m;
  const ObjectId chiller = m.create_object("AC Plant 1", EquipmentKind::Chiller);
  const ObjectId motor =
      m.create_object("Motor", EquipmentKind::InductionMotor);
  m.relate(motor, Relation::PartOf, chiller);
  m.set_property(motor, "rpm", 1780.0);
  m.set_property(motor, "mfr", "GE");
  m.set_property(motor, "poles", std::int64_t{4});

  db::Database db;
  { DurableModelJournal journal(m, db); }  // attached to a built model
  const ObjectModel restored = Persistence::load(db);

  EXPECT_EQ(restored.object_count(), 2u);
  const auto motor2 = restored.find_by_name("Motor");
  ASSERT_TRUE(motor2.has_value());
  EXPECT_EQ(*motor2, motor);  // ids preserved
  EXPECT_DOUBLE_EQ(restored.property(*motor2, "rpm")->as_real(), 1780.0);
  EXPECT_EQ(restored.property(*motor2, "mfr")->as_text(), "GE");
  EXPECT_EQ(restored.property(*motor2, "poles")->as_integer(), 4);
  EXPECT_TRUE(restored.has_relation(*motor2, Relation::PartOf, chiller));
}

TEST(PersistenceTest, SurvivesIdGapsFromDeletions) {
  // A directory written by an older build that could delete objects has
  // gaps in its ids. Hand-write such tables: objects 1 and 3, and a report
  // at 5 on object 3.
  ObjectModel empty;
  db::Database db;
  { DurableModelJournal journal(empty, db); }  // creates the tables
  const auto row = [](std::int64_t id, const char* name) {
    return db::Row{db::Value(id), db::Value(name),
                   db::Value(static_cast<std::int64_t>(EquipmentKind::Sensor))};
  };
  db.insert(Persistence::kObjectsTable, row(1, "a"));
  db.insert(Persistence::kObjectsTable, row(3, "c"));
  ObjectModel source;
  source.create_object("a", EquipmentKind::Sensor);
  source.create_object("b", EquipmentKind::Sensor);
  const ObjectId c = source.create_object("c", EquipmentKind::Sensor);
  source.create_object("d", EquipmentKind::Sensor);
  net::FailureReport r;
  r.sensed_object = c;
  const ObjectId report = source.post_report(r);
  db::Database reports;
  { DurableModelJournal journal(source, reports); }
  db.insert(Persistence::kReportsTable,
            *reports.table(Persistence::kReportsTable).find(
                static_cast<std::int64_t>(report.value())));

  ObjectModel restored = Persistence::load(db);
  EXPECT_EQ(restored.object_count(), 3u);
  EXPECT_FALSE(restored.exists(ObjectId(2)));
  EXPECT_FALSE(restored.exists(ObjectId(4)));
  EXPECT_EQ(restored.find_by_name("c"), c);
  EXPECT_EQ(restored.related_to(c, Relation::RefersTo),
            std::vector<ObjectId>{report});
  EXPECT_EQ(restored.create_object("e", EquipmentKind::Sensor),
            ObjectId(report.value() + 1));
}

/// Canonical model fingerprint: snapshot-encode the tables a journal
/// attached to the finished model writes. It walks objects in creation
/// order and rows deterministically, so two models with identical content
/// produce identical bytes. The journal detaches before this returns.
std::vector<std::uint8_t> model_fingerprint(ObjectModel& m) {
  db::Database db;
  { DurableModelJournal journal(m, db); }
  return db::encode_snapshot(db, 0);
}

/// A property value as its type name and its value, reals in `%g`.
std::string value_text(const db::Value& v) {
  switch (v.type()) {
    case db::ValueType::Null: return "NULL NULL";
    case db::ValueType::Integer:
      return "INTEGER " + std::to_string(v.as_integer());
    case db::ValueType::Real: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%g", v.as_real());
      return std::string("REAL ") + buf;
    }
    case db::ValueType::Text: return "TEXT " + v.as_text();
  }
  return "?";
}

/// The model as its read API shows it, with no persistence code involved:
/// every live object's name, kind, typed properties and outgoing edges, then
/// the reset watermarks. model_fingerprint() cannot see what a journal
/// attached to a built model leaves out; this can.
std::string model_text(const ObjectModel& m) {
  std::string out;
  for (const ObjectId id : m.all_objects()) {
    out += std::to_string(id.value()) + " " + m.name(id) + " " +
           std::to_string(static_cast<int>(m.kind(id))) + "\n";
    for (const auto& [key, value] : m.properties(id)) {
      out += "  " + std::string(key) + " " + value_text(value) + "\n";
    }
    for (std::size_t r = 0; r < kRelationCount; ++r) {
      for (const ObjectId to : m.related(id, static_cast<Relation>(r))) {
        out += "  -" + std::to_string(r) + "-> " +
               std::to_string(to.value()) + "\n";
      }
    }
  }
  for (const auto& [machine, watermark] : m.report_resets()) {
    out += "reset " + std::to_string(machine) + " " +
           std::to_string(watermark.value()) + "\n";
  }
  return out;
}

/// Exercise every event kind the journal mirrors: creation, report posts,
/// property set/overwrite/type-change/null, relations (incl. the symmetric
/// Proximity double event) and a report reset.
void mutate_model(ObjectModel& m) {
  const ObjectId plant = m.create_object("Plant", EquipmentKind::Chiller);
  const ObjectId motor =
      m.create_object("Motor", EquipmentKind::InductionMotor);
  const ObjectId sensor = m.create_object("Sensor", EquipmentKind::Sensor);
  m.set_property(sensor, "mfr", "GE");
  m.set_property(sensor, "range", 5.0);
  net::FailureReport r;
  r.sensed_object = motor;
  r.machine_condition = ConditionId(3);
  r.explanation = "1x amplitude elevated";
  m.post_report(r);
  r.timestamp = SimTime(1);
  m.post_report(r);
  m.reset_reports(motor);
  m.relate(motor, Relation::PartOf, plant);
  m.relate(motor, Relation::Proximity, sensor);  // symmetric: two events
  m.set_property(motor, "rpm", 1780.0);
  m.set_property(motor, "rpm", 1800.0);              // overwrite, same type
  m.set_property(motor, "rpm", std::int64_t{1800});  // type change
  m.set_property(motor, "note", "ok");
  m.set_property(motor, "note", db::Value());  // nulled out
}

TEST(DurableModelJournalTest, AttachedBeforeAndAfterBuildLoadTheSameModel) {
  ObjectModel m;
  db::Database mirrored;
  DurableModelJournal journal(m, mirrored);
  mutate_model(m);
  db::Database written;
  { DurableModelJournal late(m, written); }

  // The tables mirrored event by event and the tables written over the
  // finished model load back into the same model.
  ObjectModel from_events = Persistence::load(mirrored);
  ObjectModel from_model = Persistence::load(written);
  EXPECT_EQ(model_fingerprint(from_events), model_fingerprint(m));
  EXPECT_EQ(model_fingerprint(from_model), model_fingerprint(m));
  EXPECT_EQ(model_text(from_events), model_text(m));
  EXPECT_EQ(model_text(from_model), model_text(m));
}

TEST(DurableModelJournalTest, AdoptModeContinuesMirroring) {
  db::Database journal_db;
  ObjectModel m;
  {
    DurableModelJournal journal(m, journal_db);
    mutate_model(m);
  }  // journal detaches (crash analogue: the tables are all that survive)

  // Recovery: rebuild the model from the tables, re-attach in adopt mode,
  // and keep mutating — overwrites must hit the *existing* rows.
  ObjectModel recovered = Persistence::load(journal_db);
  DurableModelJournal adopted(recovered, journal_db);
  const ObjectId motor = *recovered.find_by_name("Motor");
  recovered.set_property(motor, "rpm", 60.0);  // type change on adopted row
  recovered.set_property(motor, "fresh", std::int64_t{1});
  const ObjectId pump =
      recovered.create_object("Pump", EquipmentKind::CentrifugalPump);
  recovered.relate(pump, Relation::PartOf, *recovered.find_by_name("Plant"));

  ObjectModel reloaded = Persistence::load(journal_db);
  EXPECT_EQ(model_fingerprint(reloaded), model_fingerprint(recovered));
}

TEST(ShipBuilderTest, BuildsPaperTopology) {
  ObjectModel m;
  const ShipModel ship = build_ship(m, "USNS Mercy", 2, 2);
  EXPECT_EQ(ship.plants.size(), 4u);
  EXPECT_EQ(ship.decks.size(), 2u);

  const ChillerPlant& plant = ship.plants.front();
  // Fig 2's machine name.
  EXPECT_EQ(m.name(plant.motor), "A/C Compressor Motor 1");
  // Drive line is part of the chiller, chiller part of a deck.
  EXPECT_EQ(m.parent_of(plant.motor), plant.chiller);
  EXPECT_TRUE(m.parent_of(plant.chiller).has_value());
  // Refrigerant loop is closed.
  const auto downstream = m.downstream_of(plant.compressor);
  EXPECT_EQ(downstream.size(), 2u);
  // Proximity: the motor neighbours the gearbox.
  EXPECT_TRUE(m.has_relation(plant.motor, Relation::Proximity, plant.gearbox));
  // Instrumentation present.
  EXPECT_EQ(plant.accelerometers.size(), 3u);
  EXPECT_GE(plant.process_sensors.size(), 6u);
}

TEST(ObjectModelTest, KindOfSupportsTypeQueries) {
  // §4.2 lists "kind-of" among the modeled relationships: instances point
  // at type objects, and related_to() answers "all instances of this type".
  ObjectModel m;
  const ObjectId motor_type =
      m.create_object("Induction Motor Type", EquipmentKind::InductionMotor);
  const ObjectId m1 = m.create_object("Motor 1", EquipmentKind::InductionMotor);
  const ObjectId m2 = m.create_object("Motor 2", EquipmentKind::InductionMotor);
  m.relate(m1, Relation::KindOf, motor_type);
  m.relate(m2, Relation::KindOf, motor_type);
  m.set_property(motor_type, "rated_kw", 370.0);

  const auto instances = m.related_to(motor_type, Relation::KindOf);
  EXPECT_EQ(instances.size(), 2u);
  // Type-level properties are one hop away from any instance.
  const auto type_of_m1 = m.related(m1, Relation::KindOf);
  ASSERT_EQ(type_of_m1.size(), 1u);
  EXPECT_DOUBLE_EQ(m.property(type_of_m1[0], "rated_kw")->as_real(), 370.0);
}

TEST(ShipBuilderTest, MechanicalPowerFlowsDownTheDriveLine) {
  ObjectModel m;
  const ShipModel ship = build_ship(m, "Test", 1, 1);
  const ChillerPlant& p = ship.plants.front();
  const auto downstream = m.downstream_of(p.motor);
  // motor -> gearbox -> compressor -> (refrigerant loop).
  EXPECT_GE(downstream.size(), 3u);
}

// --- Report log ----------------------------------------------------------------

net::FailureReport log_report(ObjectId sensed, std::int64_t t_us) {
  net::FailureReport r;
  r.dc = DcId(2);
  r.knowledge_source = KnowledgeSourceId(3);
  r.sensed_object = sensed;
  r.machine_condition = ConditionId(4);
  r.severity = 0.625;
  r.belief = 0.75;
  r.explanation = "bearing tone at BPFO with harmonics";
  r.recommendations = "Schedule bearing replacement.";
  r.additional_info = "load=0.8";
  r.timestamp = SimTime(t_us);
  r.prognostics = {{0.5, 86400.0}, {0.9, 604800.0}};
  r.trace = 77;
  return r;
}

TEST(ReportLogTest, PostedReportReadsAsAnObjectWithTheSameEvents) {
  ObjectModel m;
  const ObjectId motor = m.create_object("Motor", EquipmentKind::InductionMotor);
  std::vector<OosmEvent> events;
  m.subscribe([&](const OosmEvent& e) {
    // The record is complete when its one event fires.
    EXPECT_EQ(m.related(e.object, Relation::RefersTo),
              std::vector<ObjectId>{motor});
    EXPECT_EQ(m.property(e.object, "posted")->as_integer(), 1);
    events.push_back(e);
  });

  const ObjectId report = m.post_report(log_report(motor, 5'000'000));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, OosmEvent::Kind::ReportPosted);
  EXPECT_EQ(events[0].object, report);

  EXPECT_EQ(m.name(report), "Report 4 on " + std::to_string(motor.value()));
  EXPECT_EQ(m.kind(report), EquipmentKind::Report);
  EXPECT_EQ(m.find_by_name(m.name(report)), report);
  EXPECT_EQ(m.objects_of_kind(EquipmentKind::Report),
            std::vector<ObjectId>{report});
  EXPECT_EQ(m.related(report, Relation::RefersTo),
            std::vector<ObjectId>{motor});
  EXPECT_EQ(m.related_to(motor, Relation::RefersTo),
            std::vector<ObjectId>{report});
  std::vector<std::string> keys;
  for (const auto& [key, value] : m.properties(report)) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "belief", "condition", "dc", "explanation", "ks",
                      "posted", "prognostics", "recommendations", "sensed",
                      "severity", "timestamp_us", "trace"}));
  EXPECT_EQ(m.property(report, "trace")->as_integer(), 77);
  EXPECT_EQ(m.property(report, "explanation")->as_text(),
            "bearing tone at BPFO with harmonics");
  EXPECT_FALSE(m.property(report, "additional_info").has_value());
  EXPECT_EQ(decode_prognostics(m.property(report, "prognostics")->as_text()),
            log_report(motor, 0).prognostics);
  EXPECT_EQ(m.report_log().report(*m.report_index(report)),
            log_report(motor, 5'000'000));
}

TEST(ReportLogTest, ReportOnALoggedReportIsPostedWithoutAnEdge) {
  // Nothing points at a logged report: a report whose sensed id is one is
  // logged and persisted without its RefersTo edge.
  ObjectModel m;
  db::Database journal_db;
  DurableModelJournal journal(m, journal_db);
  const ObjectId motor = m.create_object("Motor", EquipmentKind::InductionMotor);
  const ObjectId first = m.post_report(log_report(motor, 1));
  const ObjectId second = m.post_report(log_report(first, 2));

  const ObjectModel& live = m;
  const ObjectModel loaded = Persistence::load(journal_db);
  for (const ObjectModel* r : {&live, &loaded}) {
    EXPECT_TRUE(r->related(second, Relation::RefersTo).empty());
    EXPECT_FALSE(r->has_relation(second, Relation::RefersTo, first));
    EXPECT_TRUE(r->related_to(first, Relation::RefersTo).empty());
    EXPECT_EQ(r->property(second, "sensed")->as_integer(),
              static_cast<std::int64_t>(first.value()));
    EXPECT_EQ(r->related(first, Relation::RefersTo),
              std::vector<ObjectId>{motor});
  }
  const db::Row* row = journal_db.table(Persistence::kReportsTable)
                           .find(static_cast<std::int64_t>(second.value()));
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[9].as_integer(), 0);  // the refers column
}

TEST(ReportLogTest, CopiedModelInternsIntoItsOwnText) {
  ObjectModel copy;
  ObjectId report;
  {
    ObjectModel m;
    const ObjectId motor =
        m.create_object("Motor", EquipmentKind::InductionMotor);
    report = m.post_report(log_report(motor, 1));
    copy = m;
  }
  net::FailureReport again = log_report(ObjectId(1), 2);
  const ObjectId second = copy.post_report(again);
  const auto& log = copy.report_log();
  EXPECT_EQ(log.record(*copy.report_index(second)).explanation,
            log.record(*copy.report_index(report)).explanation);
  EXPECT_EQ(copy.property(report, "recommendations")->as_text(),
            "Schedule bearing replacement.");
  EXPECT_EQ(log.texts().size(), 4u);  // name, explanation, advice, info
}

/// Report `i` of a chunking run: its own timestamp and trace, and 0-6
/// prognostic pairs whose bits name it.
net::FailureReport chunk_report(ObjectId sensed, std::uint32_t i) {
  net::FailureReport r = log_report(sensed, 1000 + i);
  r.trace = i;
  r.severity = 0.001 * i;
  r.prognostics.clear();
  for (std::uint32_t k = 0; k < i % 7; ++k) {
    r.prognostics.push_back({0.1 * k, 86400.0 * i + k});
  }
  return r;
}

TEST(ReportLogTest, RecordAddressesStayPutAcrossAChunkBoundary) {
  ObjectModel m;
  const ObjectId motor = m.create_object("Motor", EquipmentKind::InductionMotor);
  const ReportLog& log = m.report_log();
  constexpr std::uint32_t kFirst = ReportLog::kRecordsPerChunk;
  for (std::uint32_t i = 0; i < kFirst; ++i) {
    m.post_report(chunk_report(motor, i));
  }
  std::vector<const ReportLog::Record*> records;
  std::vector<const net::PrognosticPair*> pairs;
  for (std::uint32_t i = 0; i < kFirst; ++i) {
    records.push_back(&log.record(i));
    pairs.push_back(log.prognostics(log.record(i)).data());
  }
  for (std::uint32_t i = kFirst; i < 2 * kFirst + 3; ++i) {
    m.post_report(chunk_report(motor, i));
  }
  ASSERT_EQ(log.size(), 2 * kFirst + 3);
  for (std::uint32_t i = 0; i < kFirst; ++i) {
    EXPECT_EQ(&log.record(i), records[i]) << i;
    EXPECT_EQ(log.prognostics(log.record(i)).data(), pairs[i]) << i;
  }
}

TEST(ReportLogTest, RecordsAndPrognosticSpansReadBackPastThreeChunks) {
  ObjectModel m;
  const ObjectId motor = m.create_object("Motor", EquipmentKind::InductionMotor);
  std::vector<net::FailureReport> posted;
  for (std::uint32_t i = 0; i < 3 * ReportLog::kRecordsPerChunk + 17; ++i) {
    posted.push_back(chunk_report(motor, i));
    if (i == 400) {
      // More pairs than a pair chunk holds: the report gets its own chunk.
      posted.back().prognostics.assign(ReportLog::kPairsPerChunk + 3,
                                       {0.5, 3600.0});
    }
  }
  std::size_t total_pairs = 0;
  std::vector<std::uint32_t> indexes;
  for (const net::FailureReport& r : posted) {
    indexes.push_back(*m.report_index(m.post_report(r)));
    total_pairs += r.prognostics.size();
  }
  ASSERT_GT(total_pairs, 3 * ReportLog::kPairsPerChunk);

  const ReportLog& log = m.report_log();
  ASSERT_EQ(log.size(), posted.size());
  for (std::size_t i = 0; i < posted.size(); ++i) {
    ASSERT_EQ(indexes[i], i);
    EXPECT_EQ(log.report(indexes[i]), posted[i]) << i;
    const auto span = log.prognostics(log.record(indexes[i]));
    EXPECT_TRUE(std::equal(span.begin(), span.end(),
                           posted[i].prognostics.begin(),
                           posted[i].prognostics.end()))
        << i;
  }
}

TEST(ReportLogTest, CopiedLogEqualsTheOriginalAndStillAppends) {
  ObjectModel m;
  const ObjectId motor = m.create_object("Motor", EquipmentKind::InductionMotor);
  const std::uint32_t n = ReportLog::kRecordsPerChunk + 10;
  for (std::uint32_t i = 0; i < n; ++i) m.post_report(chunk_report(motor, i));

  const ReportLog copy = m.report_log();
  ASSERT_EQ(copy.size(), n);
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(copy.report(i), m.report_log().report(i)) << i;
    EXPECT_EQ(copy.record(i).flags, m.report_log().record(i).flags) << i;
  }
  EXPECT_EQ(copy.texts().size(), m.report_log().texts().size());

  // A copied model appends to its own log, past the copied partial chunk,
  // and leaves the original alone.
  ObjectModel twin = m;
  for (std::uint32_t i = n; i < 2 * ReportLog::kRecordsPerChunk + 1; ++i) {
    EXPECT_EQ(*twin.report_index(twin.post_report(chunk_report(motor, i))),
              i);
  }
  EXPECT_EQ(m.report_log().size(), n);
  for (std::uint32_t i = 0; i < 2 * ReportLog::kRecordsPerChunk + 1; ++i) {
    EXPECT_EQ(twin.report_log().report(i), chunk_report(motor, i)) << i;
  }
}

}  // namespace
}  // namespace mpros::oosm
