// Demonstrates the §5.1 requirement directly: knowledge fusion must
// "accommodate inputs which are incomplete, time-disordered, fragmentary,
// and which have gaps, inconsistencies, and contradictions."
//
// The same six-report set is delivered (a) in order on a perfect network
// and (b) shuffled/duplicated/delayed on a hostile one; the fused beliefs
// are printed side by side.
//
//   ./build/examples/disordered_reports

#include <cstdio>

#include "mpros/mpros/mpros.hpp"

namespace {

using namespace mpros;
using domain::FailureMode;

std::vector<net::FailureReport> make_reports(ObjectId motor) {
  std::vector<net::FailureReport> reports;
  const struct {
    FailureMode mode;
    double severity, belief;
    std::uint64_t ks;
  } specs[] = {
      {FailureMode::MotorImbalance, 0.6, 0.7, 1},
      {FailureMode::MotorImbalance, 0.5, 0.6, 3},
      {FailureMode::ShaftMisalignment, 0.4, 0.5, 2},
      {FailureMode::MotorBearingWear, 0.5, 0.7, 4},
      {FailureMode::MotorBearingWear, 0.6, 0.8, 1},
      {FailureMode::MotorImbalance, 0.7, 0.6, 2},
  };
  double t = 100.0;
  for (const auto& s : specs) {
    net::FailureReport r;
    r.dc = DcId(1);
    r.knowledge_source = KnowledgeSourceId(s.ks);
    r.sensed_object = motor;
    r.machine_condition = domain::condition_id(s.mode);
    r.severity = s.severity;
    r.belief = s.belief;
    r.timestamp = SimTime::from_seconds(t);
    t += 60.0;
    reports.push_back(r);
  }
  return reports;
}

void print_state(const char* label, pdme::PdmeExecutive& pdme,
                 ObjectId motor) {
  std::printf("%s\n", label);
  for (const auto& item : pdme.prioritized_list(motor)) {
    std::printf("  %-28s bel=%.4f pl=%.4f\n",
                domain::condition_text(item.mode).c_str(), item.fused_belief,
                item.plausibility);
  }
}

}  // namespace

int main() {
  oosm::ObjectModel model_a, model_b;
  const auto ship_a = oosm::build_ship(model_a, "A", 1, 1);
  const auto ship_b = oosm::build_ship(model_b, "B", 1, 1);
  pdme::PdmeExecutive pdme_a(model_a);
  pdme::PdmeExecutive pdme_b(model_b);

  // (a) Perfect, in-order delivery: one unsequenced batch.
  std::vector<net::ReportEnvelope> in_order;
  for (const auto& r : make_reports(ship_a.plants[0].motor)) {
    in_order.push_back({r.dc, 0, r});
  }
  pdme_a.submit(in_order);

  // (b) Hostile transport: heavy jitter reorders, duplicates retransmit.
  net::NetworkConfig hostile;
  hostile.jitter = SimTime::from_seconds(120.0);
  hostile.duplicate_probability = 0.4;
  hostile.seed = 1234;
  net::SimNetwork network(hostile);
  pdme_b.attach_to_network(network);
  for (const auto& r : make_reports(ship_b.plants[0].motor)) {
    network.send("dc-1", "pdme", net::wrap_batch_envelope(r.dc, 0, {&r, 1}),
                 r.timestamp);
  }
  network.flush();

  print_state("In-order delivery:", pdme_a, ship_a.plants[0].motor);
  print_state("Disordered + duplicated delivery:", pdme_b,
              ship_b.plants[0].motor);

  const auto na = pdme_a.snapshot();
  const auto nb = pdme_b.snapshot();
  std::printf("\nreports fused: in-order=%llu, disordered=%llu "
              "(duplicates dropped: %llu)\n",
              static_cast<unsigned long long>(na.reports_accepted),
              static_cast<unsigned long long>(nb.reports_accepted),
              static_cast<unsigned long long>(nb.duplicates_dropped));
  std::printf("Fused beliefs match because Dempster-Shafer combination is "
              "commutative and the PDME de-duplicates retransmissions.\n");
  return 0;
}
