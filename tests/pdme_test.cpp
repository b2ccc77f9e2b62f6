// PDME tests: the §5.1 report flow through the OOSM, fusion of conflicting
// and reinforcing reports, prioritized list, browser rendering, ICAS export.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "mpros/common/rng.hpp"
#include "mpros/dc/data_concentrator.hpp"
#include "mpros/net/messages.hpp"
#include "mpros/net/report.hpp"
#include "mpros/oosm/ship_builder.hpp"
#include "mpros/pdme/browser.hpp"
#include "mpros/pdme/mimosa.hpp"
#include "mpros/oosm/persistence.hpp"
#include "mpros/pdme/pdme.hpp"
#include "mpros/telemetry/metrics.hpp"
#include "submit_one.hpp"

namespace mpros::pdme {
namespace {

using domain::FailureMode;

net::FailureReport make_report(ObjectId machine, FailureMode mode,
                               double severity, double belief,
                               std::uint64_t ks = 1, double t_seconds = 100.0,
                               std::uint64_t dc = 1) {
  net::FailureReport r;
  r.dc = DcId(dc);
  r.knowledge_source = KnowledgeSourceId(ks);
  r.sensed_object = machine;
  r.machine_condition = domain::condition_id(mode);
  r.severity = severity;
  r.belief = belief;
  r.timestamp = SimTime::from_seconds(t_seconds);
  r.explanation = "test report";
  r.prognostics = {{0.1, 7.0 * 86400.0}, {0.9, 60.0 * 86400.0}};
  return r;
}

/// A property value as text, reals in `%g`.
std::string value_text(const db::Value& v) {
  switch (v.type()) {
    case db::ValueType::Null: return "NULL";
    case db::ValueType::Integer: return std::to_string(v.as_integer());
    case db::ValueType::Real: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%g", v.as_real());
      return buf;
    }
    case db::ValueType::Text: return v.as_text();
  }
  return "?";
}

class PdmeTest : public ::testing::Test {
 protected:
  PdmeTest() : ship_(oosm::build_ship(model_, "Test", 1, 1)), pdme_(model_) {
    motor_ = ship_.plants.front().motor;
  }

  oosm::ObjectModel model_;
  oosm::ShipModel ship_;
  PdmeExecutive pdme_;
  ObjectId motor_;
};

TEST_F(PdmeTest, AcceptPostsReportObjectIntoOosm) {
  const std::size_t before = model_.object_count();
  const auto obj = submit_one(pdme_, 
      make_report(motor_, FailureMode::MotorImbalance, 0.6, 0.8));
  ASSERT_TRUE(obj.has_value());
  EXPECT_EQ(model_.object_count(), before + 1);
  EXPECT_EQ(model_.kind(*obj), domain::EquipmentKind::Report);
  // The report RefersTo the machine (§4.2).
  EXPECT_TRUE(model_.has_relation(*obj, oosm::Relation::RefersTo, motor_));
  EXPECT_DOUBLE_EQ(model_.property(*obj, "severity")->as_real(), 0.6);
}

TEST_F(PdmeTest, FusionTriggeredViaOosmEvents) {
  submit_one(pdme_, make_report(motor_, FailureMode::MotorImbalance, 0.6, 0.8));
  const auto state =
      pdme_.group_state(motor_, domain::LogicalGroup::RotorDynamics);
  EXPECT_EQ(state.report_count, 1u);
  EXPECT_NEAR(state.modes[0].belief, 0.8, 1e-9);
  EXPECT_EQ(pdme_.snapshot().reports_accepted, 1u);
}

TEST_F(PdmeTest, HandBuiltReportObjectIsNotFused) {
  // submit() is the one road into fusion: a Report object assembled by
  // hand, "posted" marker and all, is stored like any object but never
  // reaches knowledge fusion.
  const ObjectId obj =
      model_.create_object("manual report", domain::EquipmentKind::Report);
  model_.set_property(obj, "dc", std::int64_t{9});
  model_.set_property(obj, "ks", std::int64_t{2});
  model_.set_property(obj, "sensed",
                      static_cast<std::int64_t>(motor_.value()));
  model_.set_property(
      obj, "condition",
      static_cast<std::int64_t>(
          domain::condition_id(FailureMode::RotorBarDefect).value()));
  model_.set_property(obj, "severity", 0.5);
  model_.set_property(obj, "belief", 0.7);
  model_.set_property(obj, "timestamp_us", std::int64_t{1000});
  model_.set_property(obj, "prognostics", "");
  model_.set_property(obj, "posted", std::int64_t{1});

  ASSERT_TRUE(model_.exists(obj));
  EXPECT_EQ(model_.kind(obj), domain::EquipmentKind::Report);
  const auto state =
      pdme_.group_state(motor_, domain::LogicalGroup::Electrical);
  EXPECT_EQ(state.report_count, 0u);
  EXPECT_DOUBLE_EQ(state.unknown, 1.0);  // vacuous: no evidence fused
  for (const auto& mode : state.modes) EXPECT_EQ(mode.belief, 0.0);
  EXPECT_TRUE(pdme_.reports_for(motor_).empty());
  EXPECT_TRUE(pdme_.prioritized_list().empty());
  EXPECT_EQ(pdme_.snapshot().reports_accepted, 0u);
}

TEST_F(PdmeTest, SensorDataForALoggedReportIsDropped) {
  // A logged report is immutable: a sensor batch addressed to its id is
  // counted and dropped, like one addressed to an unknown id.
  const auto report = submit_one(
      pdme_, make_report(motor_, FailureMode::MotorImbalance, 0.6, 0.8));
  ASSERT_TRUE(report.has_value());
  const auto properties_text = [&] {
    std::string out;
    for (const auto& [key, value] : model_.properties(*report)) {
      out += std::string(key) + "=" + value_text(value) + "\n";
    }
    return out;
  };
  const std::string before = properties_text();
  net::SensorDataMessage m;
  m.dc = DcId(1);
  m.machine = *report;
  m.timestamp = SimTime::from_hours(1.0);
  m.values = {{"process.load", 0.8}};
  pdme_.accept(m);
  EXPECT_EQ(properties_text(), before);
  EXPECT_FALSE(model_.property(*report, "process.load").has_value());
  EXPECT_FALSE(
      model_.property(*report, "last_sensor_update_us").has_value());
  EXPECT_EQ(pdme_.snapshot().sensor_batches, 1u);
}

TEST_F(PdmeTest, ReinforcingReportsRaiseBelief) {
  submit_one(pdme_, make_report(motor_, FailureMode::MotorImbalance, 0.6, 0.6,
                           /*ks=*/1));
  submit_one(pdme_, make_report(motor_, FailureMode::MotorImbalance, 0.5, 0.6,
                           /*ks=*/3, /*t=*/200.0));
  const auto state =
      pdme_.group_state(motor_, domain::LogicalGroup::RotorDynamics);
  EXPECT_NEAR(state.modes[0].belief, 1.0 - 0.4 * 0.4, 1e-9);
}

TEST_F(PdmeTest, ConflictingReportsShareGroupBelief) {
  submit_one(pdme_, make_report(motor_, FailureMode::MotorImbalance, 0.6, 0.7,
                           /*ks=*/1));
  submit_one(pdme_, make_report(motor_, FailureMode::ShaftMisalignment, 0.6, 0.7,
                           /*ks=*/3, /*t=*/200.0));
  const auto state =
      pdme_.group_state(motor_, domain::LogicalGroup::RotorDynamics);
  EXPECT_GT(state.last_conflict, 0.0);
  EXPECT_NEAR(state.modes[0].belief, state.modes[1].belief, 1e-9);
}

TEST_F(PdmeTest, DuplicateRetransmissionDropped) {
  const auto report =
      make_report(motor_, FailureMode::MotorImbalance, 0.6, 0.8);
  EXPECT_TRUE(submit_one(pdme_, report).has_value());
  EXPECT_FALSE(submit_one(pdme_, report).has_value());
  EXPECT_EQ(pdme_.snapshot().duplicates_dropped, 1u);
  const auto state =
      pdme_.group_state(motor_, domain::LogicalGroup::RotorDynamics);
  EXPECT_EQ(state.report_count, 1u);  // fused once, not twice
}

TEST_F(PdmeTest, SubmitOutcomeSplitsASpanPerReport) {
  // One unsequenced span carrying the same report twice: the second copy
  // is a retransmission, and the outcome says so report by report.
  const auto report =
      make_report(motor_, FailureMode::MotorImbalance, 0.6, 0.8);
  const std::vector<net::ReportEnvelope> span = {{report.dc, 0, report},
                                                 {report.dc, 0, report}};
  const PdmeExecutive::SubmitOutcome out = pdme_.submit(span);
  EXPECT_EQ(out.accepted, 1u);
  EXPECT_EQ(out.duplicates, 1u);
  EXPECT_EQ(pdme_.snapshot().reports_accepted, 1u);
  EXPECT_EQ(pdme_.snapshot().duplicates_dropped, 1u);
}

TEST_F(PdmeTest, SubmitOutcomeDropsAFusedReportInsideAFreshSequence) {
  const auto fused =
      make_report(motor_, FailureMode::MotorImbalance, 0.6, 0.8, 1, 100.0);
  const auto fresh =
      make_report(motor_, FailureMode::MotorImbalance, 0.7, 0.8, 1, 200.0);
  ASSERT_TRUE(submit_one(pdme_, fused).has_value());

  // Sequence 1 is new to the stream, but one of its reports was already
  // fused unsequenced.
  const std::vector<net::ReportEnvelope> datagram = {{DcId(1), 1, fused},
                                                     {DcId(1), 1, fresh}};
  const PdmeExecutive::SubmitOutcome out = pdme_.submit(datagram);
  EXPECT_EQ(out.accepted, 1u);
  EXPECT_EQ(out.duplicates, 1u);
  EXPECT_TRUE(out.last_object.has_value());
  PdmeExecutive::Stats stats = pdme_.snapshot();
  EXPECT_EQ(stats.reports_accepted, 2u);
  EXPECT_EQ(stats.duplicates_dropped, 1u);
  EXPECT_EQ(stats.envelopes_accepted, 1u);

  // Its retransmission drops whole.
  const PdmeExecutive::SubmitOutcome again = pdme_.submit(datagram);
  EXPECT_EQ(again.accepted, 0u);
  EXPECT_EQ(again.duplicates, 2u);
  EXPECT_FALSE(again.last_object.has_value());
  stats = pdme_.snapshot();
  EXPECT_EQ(stats.reports_accepted, 2u);
  EXPECT_EQ(stats.duplicates_dropped, 3u);
}

// --- Dedup index -------------------------------------------------------------

TEST(DedupIndexTest, BeliefsThatPrintAlikeAreDuplicates) {
  oosm::ObjectModel model;
  DedupIndex dedup(model.report_log());
  const auto post = [&](const net::FailureReport& r) {
    return *model.report_index(model.post_report(r));
  };
  const auto report =
      make_report(ObjectId(7), FailureMode::MotorImbalance, 0.6, 0.8);
  dedup.insert(post(report));

  auto twin = report;
  twin.belief = std::nextafter(0.8, 1.0);
  ASSERT_NE(std::bit_cast<std::uint64_t>(twin.belief),
            std::bit_cast<std::uint64_t>(report.belief));
  EXPECT_TRUE(dedup.contains(twin));
  twin.belief = 0.8000004;  // "0.800000"
  EXPECT_TRUE(dedup.contains(twin));
  twin.belief = 0.800002;  // "0.800002"
  EXPECT_FALSE(dedup.contains(twin));

  // Every other key field must match exactly.
  const std::vector<net::FailureReport> apart = {
      make_report(ObjectId(7), FailureMode::MotorImbalance, 0.6, 0.8, 2),
      make_report(ObjectId(7), FailureMode::MotorImbalance, 0.6, 0.8, 1,
                  100.000001),
      make_report(ObjectId(7), FailureMode::MotorImbalance, 0.6, 0.8, 1,
                  100.0, 2),
      make_report(ObjectId(8), FailureMode::MotorImbalance, 0.6, 0.8),
      make_report(ObjectId(7), FailureMode::RotorBarDefect, 0.6, 0.8)};
  for (const net::FailureReport& r : apart) EXPECT_FALSE(dedup.contains(r));

  // Severity is not part of the key, and inserting a duplicate is a no-op.
  auto resent = report;
  resent.severity = 0.9;
  resent.belief = std::nextafter(0.8, 0.0);
  EXPECT_TRUE(dedup.contains(resent));
  dedup.insert(post(resent));
  EXPECT_EQ(dedup.size(), 1u);
}

TEST(DedupIndexTest, MembershipHoldsAcrossGrows) {
  oosm::ObjectModel model;
  DedupIndex dedup(model.report_log());
  std::vector<net::FailureReport> inserted;
  const auto check_all = [&] {
    for (const net::FailureReport& r : inserted) {
      ASSERT_TRUE(dedup.contains(r)) << inserted.size();
      auto later = r;
      later.timestamp = later.timestamp + SimTime(1);
      ASSERT_FALSE(dedup.contains(later)) << inserted.size();
    }
  };
  constexpr std::size_t kReports = 2000;  // the table grows 8 times
  for (std::size_t i = 0; i < kReports; ++i) {
    const auto r = make_report(
        ObjectId(1 + i % 5),
        i % 2 == 0 ? FailureMode::MotorImbalance : FailureMode::GearMeshWear,
        0.5, 0.5 + 0.0001 * static_cast<double>(i % 7), 1 + i % 3,
        static_cast<double>(i / 4), 1 + i % 4);
    dedup.insert(*model.report_index(model.post_report(r)));
    inserted.push_back(r);
    ASSERT_EQ(dedup.size(), inserted.size());
    if (std::has_single_bit(inserted.size())) check_all();
  }
  check_all();
}

TEST(DedupIndexTest, ClaimIsOneFindOrInsert) {
  oosm::ObjectModel model;
  DedupIndex dedup(model.report_log());
  const auto claim_and_post = [&](const net::FailureReport& r) {
    const auto index = static_cast<std::uint32_t>(model.report_log().size());
    if (!dedup.claim(r, index)) return false;
    EXPECT_EQ(*model.report_index(model.post_report(r)), index);
    return true;
  };
  const auto report =
      make_report(ObjectId(7), FailureMode::MotorImbalance, 0.6, 0.8);
  ASSERT_TRUE(claim_and_post(report));
  EXPECT_EQ(dedup.size(), 1u);
  EXPECT_TRUE(dedup.contains(report));

  // A claimed key rejects its "%.6f" twin, and the rejected claim leaves
  // the set as it was.
  auto twin = report;
  twin.belief = 0.8000004;  // "0.800000"
  EXPECT_FALSE(claim_and_post(twin));
  EXPECT_EQ(dedup.size(), 1u);
  EXPECT_EQ(model.report_log().size(), 1u);

  // A fresh key is claimed at the index the log gives it next.
  auto later = report;
  later.timestamp = later.timestamp + SimTime(1);
  EXPECT_TRUE(claim_and_post(later));
  EXPECT_EQ(dedup.size(), 2u);
  EXPECT_TRUE(dedup.contains(later));
}

TEST_F(PdmeTest, PrioritizedListOrdersBySeverityWeightedBelief) {
  submit_one(pdme_, make_report(motor_, FailureMode::MotorImbalance, 0.9, 0.9));
  submit_one(pdme_, make_report(motor_, FailureMode::RotorBarDefect, 0.2, 0.4,
                           /*ks=*/2, 150.0));
  const auto list = pdme_.prioritized_list();
  ASSERT_GE(list.size(), 2u);
  EXPECT_EQ(list.front().mode, FailureMode::MotorImbalance);
  for (std::size_t i = 1; i < list.size(); ++i) {
    EXPECT_GE(list[i - 1].priority, list[i].priority);
  }
}

TEST_F(PdmeTest, PrognosticFusionFeedsTimeToFailure) {
  submit_one(pdme_, make_report(motor_, FailureMode::MotorImbalance, 0.7, 0.9));
  const auto prognosis =
      pdme_.prognosis(motor_, FailureMode::MotorImbalance);
  ASSERT_TRUE(prognosis.has_value());
  const auto list = pdme_.prioritized_list(motor_);
  ASSERT_FALSE(list.empty());
  ASSERT_TRUE(list.front().median_ttf.has_value());
  EXPECT_GT(list.front().median_ttf->days(), 0.0);
}

TEST_F(PdmeTest, ConservativePrognosticDominates) {
  auto early = make_report(motor_, FailureMode::MotorImbalance, 0.7, 0.9);
  early.prognostics = {{0.9, 10.0 * 86400.0}};  // 90% at 10 days
  auto late = make_report(motor_, FailureMode::MotorImbalance, 0.5, 0.8,
                          /*ks=*/3, 200.0);
  late.prognostics = {{0.9, 100.0 * 86400.0}};
  submit_one(pdme_, late);
  submit_one(pdme_, early);
  const auto list = pdme_.prioritized_list(motor_);
  ASSERT_TRUE(list.front().p90_ttf.has_value());
  EXPECT_LE(list.front().p90_ttf->days(), 10.5);
}

TEST_F(PdmeTest, NetworkAttachDeliversReports) {
  net::SimNetwork network;
  pdme_.attach_to_network(network);
  const auto r = make_report(motor_, FailureMode::GearMeshWear, 0.5, 0.8);
  network.send("dc-1", "pdme", net::wrap_batch_envelope(r.dc, 0, {&r, 1}),
               SimTime(0));
  network.flush();
  EXPECT_EQ(pdme_.snapshot().reports_accepted, 1u);
}

using PdmeWireTest = PdmeTest;

TEST_F(PdmeWireTest, RetiredReportTypesCountedMalformed) {
  // The retired report tags (1 = lone report, 4 = sequenced report,
  // 10 = bare batch), each carrying a well-formed body in its old layout:
  // the PDME counts them malformed and fuses nothing.
  net::SimNetwork network;
  pdme_.attach_to_network(network);
  const auto r = make_report(motor_, FailureMode::GearMeshWear, 0.5, 0.8);
  const std::vector<std::uint8_t> batch =
      net::wrap_batch_envelope(r.dc, 1, {&r, 1});
  const std::vector<std::uint8_t> frame = net::serialize(r);
  const auto header = std::span(batch).subspan(1, 16);  // dc + sequence
  const auto body = std::span(batch).subspan(1 + 16);   // batch body

  std::vector<std::vector<std::uint8_t>> retired(3);
  retired[0].push_back(1);
  retired[0].insert(retired[0].end(), frame.begin(), frame.end());
  retired[1].push_back(4);
  retired[1].insert(retired[1].end(), header.begin(), header.end());
  retired[1].insert(retired[1].end(), frame.begin(), frame.end());
  retired[2].push_back(10);
  retired[2].insert(retired[2].end(), body.begin(), body.end());

  std::uint64_t malformed = pdme_.snapshot().malformed_dropped;
  for (const auto& payload : retired) {
    network.send("dc-1", "pdme", payload, SimTime(0));
    network.flush();
    EXPECT_EQ(pdme_.snapshot().malformed_dropped, malformed + 1)
        << "type byte " << int{payload[0]};
    malformed = pdme_.snapshot().malformed_dropped;
    EXPECT_EQ(pdme_.snapshot().reports_accepted, 0u);
  }
}

TEST_F(PdmeTest, ResetMachineForgets) {
  submit_one(pdme_, make_report(motor_, FailureMode::MotorImbalance, 0.6, 0.8));
  pdme_.reset_machine(motor_);
  EXPECT_TRUE(pdme_.prioritized_list(motor_).empty());
  EXPECT_TRUE(pdme_.reports_for(motor_).empty());
}

TEST_F(PdmeTest, BrowserRendersFig2Layout) {
  // Fig 2's situation: six condition reports from four knowledge sources,
  // some conflicting and some reinforcing, for A/C Compressor Motor 1.
  submit_one(pdme_, make_report(motor_, FailureMode::MotorImbalance, 0.6, 0.7,
                           /*ks=*/1, 100));
  submit_one(pdme_, make_report(motor_, FailureMode::MotorImbalance, 0.5, 0.6,
                           /*ks=*/3, 110));
  submit_one(pdme_, make_report(motor_, FailureMode::ShaftMisalignment, 0.4, 0.5,
                           /*ks=*/2, 120));
  submit_one(pdme_, make_report(motor_, FailureMode::RotorBarDefect, 0.3, 0.6,
                           /*ks=*/1, 130));
  submit_one(pdme_, make_report(motor_, FailureMode::MotorBearingWear, 0.5, 0.7,
                           /*ks=*/4, 140));
  submit_one(pdme_, make_report(motor_, FailureMode::MotorBearingWear, 0.6, 0.8,
                           /*ks=*/2, 150));

  const std::string screen = render_machine(pdme_, model_, motor_);
  EXPECT_NE(screen.find("A/C Compressor Motor 1"), std::string::npos);
  EXPECT_NE(screen.find("Condition reports received: 6"), std::string::npos);
  EXPECT_NE(screen.find("DLI Expert System"), std::string::npos);
  EXPECT_NE(screen.find("Fuzzy Logic"), std::string::npos);
  EXPECT_NE(screen.find("motor imbalance"), std::string::npos);
  EXPECT_NE(screen.find("Failure predictions"), std::string::npos);
}

TEST_F(PdmeTest, SummaryAndIcasExport) {
  submit_one(pdme_, make_report(motor_, FailureMode::MotorImbalance, 0.8, 0.9));
  const std::string summary = render_summary(pdme_, model_);
  EXPECT_NE(summary.find("Prioritized Maintenance List"), std::string::npos);
  EXPECT_NE(summary.find("A/C Compressor Motor 1"), std::string::npos);

  const std::string csv = export_icas_csv(pdme_, model_);
  EXPECT_NE(csv.find("machine,condition"), std::string::npos);
  EXPECT_NE(csv.find("motor imbalance"), std::string::npos);
}

TEST_F(PdmeTest, IcasRowsMatchPrintfFormat) {
  // The ICAS export writes its rows without printf; each must still equal
  // the historical "%.4f,%.4f,%.3f,%zu,%.0f,%.0f" rendering of the list.
  const oosm::ShipModel more = oosm::build_ship(model_, "Icas", 2, 4);
  std::vector<ObjectId> machines;
  for (const oosm::ChillerPlant& p : ship_.plants) {
    machines.insert(machines.end(), {p.motor, p.gearbox, p.compressor,
                                     p.chw_pump, p.cw_pump});
  }
  for (const oosm::ChillerPlant& p : more.plants) {
    machines.insert(machines.end(), {p.motor, p.gearbox, p.compressor,
                                     p.chw_pump, p.cw_pump});
  }

  Rng rng(0x1CA5);
  const auto modes = domain::all_failure_modes();
  for (int i = 0; i < 400; ++i) {
    net::FailureReport r = make_report(
        machines[rng.integer(0, machines.size() - 1)],
        modes[rng.integer(0, modes.size() - 1)], rng.uniform(0.0, 1.0),
        rng.uniform(0.05, 0.95), rng.integer(1, 4), 100.0 + 37.0 * i);
    r.prognostics = {{rng.uniform(0.0, 0.4), rng.uniform(1e3, 1e6)},
                     {rng.uniform(0.6, 1.0), rng.uniform(1e6, 1e8)}};
    submit_one(pdme_, r);
  }
  // Lone reports on objects nothing else reports on: exact binary rounding
  // ties (severity 0.0625 and 0.3125 at %.3f, p50 3.5 s at %.0f), and an
  // unnamed machine with no prognosis.
  net::FailureReport tie =
      make_report(ship_.plants.front().evaporator,
                  FailureMode::OilDegradation, 0.0625, 0.5, 1, 90000.0);
  tie.prognostics = {{0.25, 2.5}, {0.75, 4.5}};
  submit_one(pdme_, tie);
  net::FailureReport bare =
      make_report(ObjectId(987654), FailureMode::PumpCavitation, 0.3125, 0.4);
  bare.prognostics.clear();
  submit_one(pdme_, bare);

  std::string want =
      "machine,condition,fused_belief,plausibility,max_severity,"
      "report_count,p50_ttf_seconds,p90_ttf_seconds\n";
  std::size_t without_prognosis = 0;
  for (const MaintenanceItem& item : pdme_.prioritized_list()) {
    const std::string name = model_.exists(item.machine)
                                 ? model_.name(item.machine)
                                 : std::to_string(item.machine.value());
    const double p50 = item.median_ttf ? item.median_ttf->seconds() : -1.0;
    const double p90 = item.p90_ttf ? item.p90_ttf->seconds() : -1.0;
    if (!item.median_ttf) ++without_prognosis;
    char row[512];
    std::snprintf(row, sizeof row,
                  "\"%s\",\"%s\",%.4f,%.4f,%.3f,%zu,%.0f,%.0f\n",
                  name.c_str(), domain::condition_text(item.mode).c_str(),
                  item.fused_belief, item.plausibility, item.max_severity,
                  item.report_count, p50, p90);
    want += row;
  }
  EXPECT_GE(without_prognosis, 1u);

  EXPECT_GT(std::count(want.begin(), want.end(), '\n'), 40);
  // One string compare: gtest prints a line diff for multi-line strings.
  EXPECT_EQ(export_icas_csv(pdme_, model_), want);
}

/// Field-for-field equality, doubles compared bit for bit.
void expect_same_list(const std::vector<MaintenanceItem>& got,
                      const std::vector<MaintenanceItem>& want,
                      const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t i = 0; i < got.size(); ++i) {
    const MaintenanceItem& a = got[i];
    const MaintenanceItem& b = want[i];
    EXPECT_TRUE(a.machine == b.machine && a.mode == b.mode &&
                bits(a.fused_belief) == bits(b.fused_belief) &&
                bits(a.plausibility) == bits(b.plausibility) &&
                bits(a.max_severity) == bits(b.max_severity) &&
                bits(a.priority) == bits(b.priority) &&
                a.report_count == b.report_count &&
                a.median_ttf == b.median_ttf && a.p90_ttf == b.p90_ttf &&
                a.trend_ttf == b.trend_ttf)
        << where << ": item " << i << " differs";
  }
}

TEST_F(PdmeTest, CachedListMatchesColdRebuild) {
  // The global list is derived state, rebuilt only by the first read after
  // a fuse or reset. At every read of a seeded run of submits, duplicates,
  // sensor-fault reports and maintenance resets, it and the per-machine
  // lists must equal what a fresh executive rebuilds from the same model,
  // and so must the ICAS text.
  oosm::ShipModel more = oosm::build_ship(model_, "Cache", 2, 3);
  std::vector<ObjectId> machines;
  for (const oosm::ShipModel* ship : {&ship_, &more}) {
    for (const oosm::ChillerPlant& p : ship->plants) {
      machines.insert(machines.end(), {p.motor, p.gearbox, p.compressor,
                                       p.chw_pump});
    }
  }
  const auto modes = domain::all_failure_modes();
  Rng rng(0xCAC4E);
  std::vector<net::FailureReport> sent;
  double t = 100.0;
  const auto random_report = [&] {
    net::FailureReport r = make_report(
        machines[rng.integer(0, machines.size() - 1)],
        modes[rng.integer(0, modes.size() - 1)], rng.uniform(0.0, 1.0),
        rng.uniform(0.05, 0.95), rng.integer(1, 4), t += 30.0,
        rng.integer(1, 3));
    if (rng.uniform(0.0, 1.0) < 0.1) {
      r.machine_condition = domain::sensor_fault_condition(
          domain::SensorFaultKind::Flatline);
      r.severity = 0.0;  // a cleared channel: the ledger, not fusion
    }
    return r;
  };

  std::size_t reads = 0;
  std::size_t resets = 0;
  for (int step = 0; step < 600; ++step) {
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.55) {
      std::vector<net::ReportEnvelope> batch;
      const std::size_t n = rng.integer(1, 4);
      for (std::size_t i = 0; i < n; ++i) {
        // Every fifth report is a retransmission of one already sent.
        net::FailureReport r = !sent.empty() && rng.integer(0, 4) == 0
                                   ? sent[rng.integer(0, sent.size() - 1)]
                                   : random_report();
        sent.push_back(r);
        batch.push_back({r.dc, 0, std::move(r)});
      }
      pdme_.submit(batch);
    } else if (roll < 0.62) {
      pdme_.reset_machine(machines[rng.integer(0, machines.size() - 1)]);
      ++resets;
    } else {
      PdmeExecutive cold(model_);
      cold.rebuild_from_model();
      const std::string where = "step " + std::to_string(step);
      // A machine's list, the global list, or both; some reads find the
      // global list clean, some find it dirty.
      const std::uint64_t kind = rng.integer(0, 2);
      if (kind != 1) {
        const ObjectId m = machines[rng.integer(0, machines.size() - 1)];
        expect_same_list(pdme_.prioritized_list(m), cold.prioritized_list(m),
                         where + " machine " + std::to_string(m.value()));
      }
      if (kind != 0) {
        expect_same_list(pdme_.prioritized_list(), cold.prioritized_list(),
                         where + " global");
        EXPECT_EQ(export_icas_csv(pdme_, model_),
                  export_icas_csv(cold, model_))
            << where;
      }
      ++reads;
    }
    if (HasFailure()) return;
  }
  EXPECT_GT(reads, 150u);
  EXPECT_GT(resets, 20u);
  EXPECT_GT(pdme_.snapshot().duplicates_dropped, 50u);
  EXPECT_GT(pdme_.snapshot().sensor_fault_reports, 50u);
  EXPECT_GT(pdme_.prioritized_list().size(), 10u);
}

TEST_F(PdmeTest, RebuildFromModelRecoversFusionState) {
  // §4.9: the OOSM is the persistent record; a restarted executive must
  // recover the maintenance picture from the Report objects alone.
  submit_one(pdme_, make_report(motor_, FailureMode::MotorImbalance, 0.7, 0.6,
                           /*ks=*/1, 100));
  submit_one(pdme_, make_report(motor_, FailureMode::MotorImbalance, 0.6, 0.6,
                           /*ks=*/3, 200));
  submit_one(pdme_, make_report(motor_, FailureMode::RotorBarDefect, 0.4, 0.5,
                           /*ks=*/2, 300));
  const auto original = pdme_.prioritized_list(motor_);

  db::Database store;
  { oosm::DurableModelJournal journal(model_, store); }
  oosm::ObjectModel restored = oosm::Persistence::load(store);
  PdmeExecutive recovered(restored);
  EXPECT_EQ(recovered.rebuild_from_model(), 3u);

  const auto rebuilt = recovered.prioritized_list(motor_);
  ASSERT_EQ(rebuilt.size(), original.size());
  for (std::size_t i = 0; i < rebuilt.size(); ++i) {
    EXPECT_EQ(rebuilt[i].mode, original[i].mode);
    EXPECT_NEAR(rebuilt[i].fused_belief, original[i].fused_belief, 1e-9);
    EXPECT_NEAR(rebuilt[i].max_severity, original[i].max_severity, 1e-9);
  }
  // Recovery also primes dedup: a replayed datagram is still dropped.
  EXPECT_FALSE(submit_one(recovered,
                          make_report(motor_, FailureMode::MotorImbalance,
                                      0.7, 0.6, /*ks=*/1, 100))
                   .has_value());
}

TEST_F(PdmeTest, TrendProjectionFromEscalatingReports) {
  // §10.1 temporal reasoning in the live path: reports escalate linearly
  // (0.2 -> 0.6 over 40 days), so the trend projects failure ~40 days past
  // the last report (severity 1.0 at the extrapolated crossing).
  for (int i = 0; i <= 4; ++i) {
    submit_one(pdme_, make_report(motor_, FailureMode::MotorImbalance,
                             0.2 + 0.1 * i, 0.8, /*ks=*/1,
                             /*t=*/86400.0 * 10.0 * i));
  }
  const auto list = pdme_.prioritized_list(motor_);
  ASSERT_FALSE(list.empty());
  ASSERT_TRUE(list.front().trend_ttf.has_value());
  EXPECT_NEAR(list.front().trend_ttf->days(), 40.0, 1.0);

  const auto curve =
      pdme_.trend_prognosis(motor_, FailureMode::MotorImbalance);
  ASSERT_FALSE(curve.empty());
  EXPECT_NEAR(curve.probability_at(SimTime::from_days(40.0)), 0.5, 0.02);
}

TEST_F(PdmeTest, FlatSeverityHasNoTrendProjection) {
  for (int i = 0; i <= 4; ++i) {
    submit_one(pdme_, make_report(motor_, FailureMode::MotorImbalance, 0.4, 0.8,
                             /*ks=*/1, /*t=*/86400.0 * 10.0 * i));
  }
  const auto list = pdme_.prioritized_list(motor_);
  ASSERT_FALSE(list.empty());
  EXPECT_FALSE(list.front().trend_ttf.has_value());
}

TEST_F(PdmeTest, MimosaExportCarriesStandardRecords) {
  // §3.3: MIMOSA integration — asset, health-assessment and proposed-event
  // records for every fused conclusion.
  submit_one(pdme_, make_report(motor_, FailureMode::MotorImbalance, 0.9, 0.9));
  const std::string doc = export_mimosa(pdme_, model_);

  EXPECT_NE(doc.find("HD|USNS-MERCY|MPROS-PDME|"), std::string::npos);
  EXPECT_NE(doc.find("AS|USNS-MERCY|"), std::string::npos);
  EXPECT_NE(doc.find("A/C Compressor Motor 1|InductionMotor"),
            std::string::npos);
  EXPECT_NE(doc.find("HA|USNS-MERCY|"), std::string::npos);
  EXPECT_NE(doc.find("|motor imbalance|CRITICAL|"), std::string::npos);
  EXPECT_NE(doc.find("PE|USNS-MERCY|"), std::string::npos);
}

TEST_F(PdmeTest, MimosaGradeLadder) {
  MaintenanceItem item;
  item.fused_belief = 0.05;
  item.max_severity = 0.5;
  EXPECT_STREQ(mimosa_grade(item), "NORMAL");
  item.fused_belief = 0.5;
  item.max_severity = 0.4;
  EXPECT_STREQ(mimosa_grade(item), "WARNING");
  item.fused_belief = 0.9;
  item.max_severity = 0.5;
  EXPECT_STREQ(mimosa_grade(item), "ALERT");
  item.fused_belief = 0.95;
  item.max_severity = 0.9;
  EXPECT_STREQ(mimosa_grade(item), "CRITICAL");
}

TEST_F(PdmeTest, MalformedConditionDropped) {
  auto bad = make_report(motor_, FailureMode::MotorImbalance, 0.5, 0.5);
  bad.machine_condition = ConditionId(999);
  submit_one(pdme_, bad);
  EXPECT_EQ(pdme_.snapshot().malformed_dropped, 1u);
  EXPECT_EQ(pdme_.snapshot().reports_accepted, 0u);
}

// --- Reliable envelope intake ------------------------------------------------

TEST_F(PdmeTest, EnvelopeStreamGapsDetectedAckedAndHealed) {
  net::NetworkConfig ncfg;
  ncfg.base_latency = SimTime::from_millis(1.0);
  ncfg.jitter = SimTime(0);
  net::SimNetwork network(ncfg);
  pdme_.attach_to_network(network);

  std::vector<net::AckMessage> acks;
  network.register_endpoint("dc-1", [&](const net::Message& m) {
    const auto ack = net::try_unwrap_ack(m.payload);
    if (ack.has_value()) acks.push_back(*ack);
  });

  net::ReliableSender sender{DcId(1)};
  const auto seal = [&](double severity, double t_seconds) {
    const auto r = make_report(motor_, FailureMode::MotorImbalance, severity,
                               0.8, 1, t_seconds);
    return sender.envelope(std::span(&r, 1), SimTime(0));
  };
  const auto p1 = seal(0.5, 100.0);
  const auto p2 = seal(0.6, 200.0);
  const auto p3 = seal(0.7, 300.0);

  // Sequence 2 is lost in transit; 3's arrival exposes the gap.
  network.send("dc-1", "pdme", p1, SimTime::from_seconds(1));
  network.send("dc-1", "pdme", p3, SimTime::from_seconds(2));
  network.flush();
  EXPECT_EQ(pdme_.snapshot().envelopes_accepted, 2u);
  EXPECT_EQ(pdme_.snapshot().gaps_detected, 1u);
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks.back().cumulative, 1u);  // can't ack past the hole

  // The retransmission heals the gap and the cumulative ack jumps to 3.
  network.send("dc-1", "pdme", p2, SimTime::from_seconds(3));
  network.flush();
  ASSERT_EQ(acks.size(), 3u);
  EXPECT_EQ(acks.back().cumulative, 3u);
  EXPECT_EQ(pdme_.receiver().snapshot().gaps_healed, 1u);
  EXPECT_EQ(pdme_.snapshot().reports_accepted, 3u);

  // A spurious re-retransmission is dropped but still acked (the DC may
  // simply have missed our ack).
  network.send("dc-1", "pdme", p2, SimTime::from_seconds(4));
  network.flush();
  EXPECT_EQ(pdme_.snapshot().duplicates_dropped, 1u);
  ASSERT_EQ(acks.size(), 4u);
  EXPECT_EQ(acks.back().cumulative, 3u);
  EXPECT_EQ(pdme_.snapshot().reports_accepted, 3u);

  sender.on_ack(acks.back());
  EXPECT_EQ(sender.unacked(), 0u);
}

using BatchProtocolTest = PdmeTest;

TEST_F(BatchProtocolTest, UnsequencedBatchAppliesWithoutAck) {
  // Sequence 0 is unsequenced delivery: the batch decodes and fuses, but
  // the PDME neither acks it nor opens a reliable stream for its DC.
  net::SimNetwork network;
  pdme_.attach_to_network(network);
  std::size_t acks = 0;
  network.register_endpoint("dc-1", [&](const net::Message& m) {
    if (net::try_unwrap_ack(m.payload).has_value()) ++acks;
  });

  const std::vector<net::FailureReport> reports = {
      make_report(motor_, FailureMode::MotorImbalance, 0.5, 0.8, 1, 100.0),
      make_report(motor_, FailureMode::GearMeshWear, 0.6, 0.7, 2, 200.0)};
  const auto wire = net::wrap_batch_envelope(DcId(1), 0, reports);
  std::vector<net::ReportEnvelope> arena;
  const auto view = net::try_unwrap_reports_into(wire, arena);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->sequence, 0u);
  EXPECT_EQ(view->count, reports.size());

  network.send("dc-1", "pdme", wire, SimTime::from_seconds(300));
  network.flush();
  const PdmeExecutive::Stats stats = pdme_.snapshot();
  EXPECT_EQ(stats.reports_accepted, reports.size());
  EXPECT_EQ(stats.batches_received, 1u);
  EXPECT_EQ(stats.acks_sent, 0u);
  EXPECT_EQ(acks, 0u);
  EXPECT_EQ(stats.envelopes_accepted, 0u);
  EXPECT_EQ(pdme_.receiver().snapshot().accepted, 0u);
  EXPECT_EQ(pdme_.receiver().cumulative(DcId(1)), 0u);
  EXPECT_EQ(pdme_.receiver().open_gaps(DcId(1)), 0u);
}

// --- DC liveness supervision -------------------------------------------------

TEST_F(PdmeTest, WatchdogMarksSilentDcStaleThenLost) {
  pdme_.expect_dc(DcId(9), SimTime(0));  // 60 s heartbeat interval (default)

  pdme_.update_liveness(SimTime::from_seconds(60));
  EXPECT_EQ(pdme_.dc_liveness(DcId(9)), DcLiveness::Alive);
  pdme_.update_liveness(SimTime::from_seconds(120));
  EXPECT_EQ(pdme_.dc_liveness(DcId(9)), DcLiveness::Stale);
  pdme_.update_liveness(SimTime::from_seconds(180));
  EXPECT_EQ(pdme_.dc_liveness(DcId(9)), DcLiveness::Lost);

  // Any arrival restores the space to Alive.
  pdme_.accept(net::HeartbeatMessage{DcId(9), SimTime::from_seconds(200), 0},
               SimTime::from_seconds(200));
  EXPECT_EQ(pdme_.dc_liveness(DcId(9)), DcLiveness::Alive);
  EXPECT_EQ(pdme_.snapshot().heartbeats_received, 1u);
  EXPECT_GE(pdme_.snapshot().liveness_transitions, 3u);

  // The watchdog never resurrects a DC on its own.
  pdme_.update_liveness(SimTime::from_seconds(500));
  EXPECT_EQ(pdme_.dc_liveness(DcId(9)), DcLiveness::Lost);
  pdme_.update_liveness(SimTime::from_seconds(510));
  EXPECT_EQ(pdme_.dc_liveness(DcId(9)), DcLiveness::Lost);
}

TEST_F(PdmeTest, SummaryShowsNoDataSinceForDeadDc) {
  pdme_.expect_dc(DcId(2), SimTime(0));
  pdme_.update_liveness(SimTime::from_hours(1.0));
  const std::string out = render_summary(pdme_, model_);
  EXPECT_NE(out.find("Data Concentrator health"), std::string::npos);
  EXPECT_NE(out.find("Lost"), std::string::npos);
  EXPECT_NE(out.find("NO DATA since"), std::string::npos);
}

TEST_F(PdmeTest, HeartbeatAdvertisedTailSequenceCountsGaps) {
  // Nothing arrived, but the DC claims it sent 2 reports: both are gaps.
  pdme_.accept(net::HeartbeatMessage{DcId(1), SimTime::from_seconds(60), 2},
               SimTime::from_seconds(60));
  EXPECT_EQ(pdme_.snapshot().gaps_detected, 2u);
  EXPECT_EQ(pdme_.receiver().open_gaps(DcId(1)), 2u);
}

TEST_F(PdmeTest, EveryCounterMovesWithItsRegistryTwin) {
  // Each Stats field that has a pdme.* registry counter is counted once, in
  // one place: on every counting path the field and the registry counter
  // move by the same amount.
  using Field = std::uint64_t PdmeExecutive::Stats::*;
  using S = PdmeExecutive::Stats;
  const std::vector<std::pair<const char*, Field>> twins = {
      {"pdme.reports_accepted", &S::reports_accepted},
      {"pdme.duplicates_dropped", &S::duplicates_dropped},
      {"pdme.malformed_dropped", &S::malformed_dropped},
      {"pdme.fusion_updates", &S::fusion_updates},
      {"pdme.sensor_fault_reports", &S::sensor_fault_reports},
      {"pdme.gaps_detected", &S::gaps_detected},
      {"pdme.heartbeats_received", &S::heartbeats_received}};
  auto& registry = telemetry::Registry::instance();
  net::SimNetwork network;
  pdme_.attach_to_network(network);
  network.register_endpoint("dc-1", [](const net::Message&) {});  // acks

  // Drive one path; `expected` is the field that path must move.
  const auto drive = [&](const char* path, Field expected, auto&& action) {
    const S before = pdme_.snapshot();
    std::vector<std::uint64_t> registry_before;
    for (const auto& twin : twins) {
      registry_before.push_back(registry.counter(twin.first).value());
    }
    action();
    const S after = pdme_.snapshot();
    EXPECT_GT(after.*expected, before.*expected) << path;
    for (std::size_t i = 0; i < twins.size(); ++i) {
      const auto [name, field] = twins[i];
      EXPECT_EQ(after.*field - before.*field,
                registry.counter(name).value() - registry_before[i])
          << path << ": " << name;
    }
  };

  const std::vector<net::FailureReport> batch = {
      make_report(motor_, FailureMode::MotorImbalance, 0.5, 0.8, 1, 100.0),
      [&] {
        auto r = make_report(motor_, FailureMode::MotorImbalance, 0.4, 1.0, 2,
                             100.0);
        r.machine_condition =
            domain::sensor_fault_condition(domain::SensorFaultKind::Spike);
        return r;
      }()};
  const auto datagram = net::wrap_batch_envelope(DcId(1), 1, batch);
  const auto send = [&](const std::vector<std::uint8_t>& payload) {
    network.send("dc-1", "pdme", payload, SimTime::from_seconds(1));
    network.flush();
  };

  drive("fresh batch", &S::fusion_updates, [&] { send(datagram); });
  drive("retransmitted datagram", &S::duplicates_dropped,
        [&] { send(datagram); });
  drive("signature duplicate", &S::duplicates_dropped,
        [&] { submit_one(pdme_, batch[0]); });
  drive("malformed condition", &S::malformed_dropped, [&] {
    auto bad = make_report(motor_, FailureMode::MotorImbalance, 0.5, 0.5);
    bad.machine_condition = ConditionId(999);
    submit_one(pdme_, bad);
  });
  drive("malformed wire payload", &S::malformed_dropped,
        [&] { send({0xFF, 0x00, 0x01}); });
  drive("heartbeat with a tail gap", &S::gaps_detected, [&] {
    pdme_.accept(net::HeartbeatMessage{DcId(1), SimTime::from_seconds(60), 3},
                 SimTime::from_seconds(60));
  });
  const S totals = pdme_.snapshot();
  EXPECT_EQ(totals.sensor_fault_reports, 1u);
  EXPECT_EQ(totals.heartbeats_received, 1u);
}

// --- Sensor-fault routing ----------------------------------------------------

TEST_F(PdmeTest, SensorFaultReportsBypassFusionIntoQuarantineLedger) {
  net::FailureReport r =
      make_report(motor_, FailureMode::MotorImbalance, 1.0, 0.9, /*ks=*/5);
  r.machine_condition =
      domain::sensor_fault_condition(domain::SensorFaultKind::Spike);
  r.explanation = "vib.motor: impulsive outliers beyond robust scatter";
  submit_one(pdme_, r);

  EXPECT_EQ(pdme_.snapshot().sensor_fault_reports, 1u);
  // The instrument fault never reaches Dempster-Shafer or the list.
  EXPECT_TRUE(pdme_.prioritized_list(motor_).empty());
  const auto faults = pdme_.sensor_faults();
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].kind, domain::SensorFaultKind::Spike);
  EXPECT_EQ(faults[0].dc, DcId(1));

  // The operator's summary page lists the quarantined channel.
  const std::string out = render_summary(pdme_, model_);
  EXPECT_NE(out.find("Quarantined sensor channels"), std::string::npos);
  EXPECT_NE(out.find("vib.motor"), std::string::npos);

  // The all-clear (severity 0) retires the active entry but keeps history.
  net::FailureReport clear = r;
  clear.severity = 0.0;
  clear.timestamp = r.timestamp + SimTime::from_seconds(300);
  submit_one(pdme_, clear);
  EXPECT_TRUE(pdme_.sensor_faults().empty());
  EXPECT_EQ(pdme_.sensor_faults(/*active_only=*/false).size(), 1u);
}

}  // namespace
}  // namespace mpros::pdme
