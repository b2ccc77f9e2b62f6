// Property-based tests: randomized sweeps over the library's algebraic
// invariants (TEST_P / INSTANTIATE_TEST_SUITE_P).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "mpros/common/rng.hpp"
#include "mpros/common/units.hpp"
#include "mpros/db/database.hpp"
#include "mpros/dsp/fft.hpp"
#include "mpros/fusion/dempster_shafer.hpp"
#include "mpros/fusion/hazard.hpp"
#include "mpros/fusion/prognostic_fusion.hpp"
#include "mpros/net/network.hpp"
#include "mpros/net/report.hpp"
#include "mpros/oosm/persistence.hpp"
#include "mpros/oosm/ship_builder.hpp"
#include "mpros/pdme/browser.hpp"
#include "mpros/pdme/pdme.hpp"
#include "mpros/sbfr/interpreter.hpp"
#include "mpros/wavelet/dwt.hpp"

namespace mpros {
namespace {

// --- FFT invariants across sizes ---------------------------------------------

class FftSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeTest, RoundTripAndParseval) {
  const std::size_t n = GetParam();
  Rng rng(n);
  std::vector<dsp::Complex> x(n);
  for (auto& c : x) c = dsp::Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));

  std::vector<dsp::Complex> y = x;
  const dsp::FftPlan plan(n);
  plan.forward(y);

  // Parseval: sum |x|^2 = (1/n) sum |X|^2.
  double ex = 0.0, ey = 0.0;
  for (const auto& c : x) ex += std::norm(c);
  for (const auto& c : y) ey += std::norm(c);
  EXPECT_NEAR(ex, ey / static_cast<double>(n), 1e-6 * ex + 1e-12);

  plan.inverse(y);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-9);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-9);
  }
}

TEST_P(FftSizeTest, LinearityHolds) {
  const std::size_t n = GetParam();
  Rng rng(n * 7);
  std::vector<dsp::Complex> a(n), b(n), sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = dsp::Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    b[i] = dsp::Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    sum[i] = a[i] + 2.0 * b[i];
  }
  const dsp::FftPlan plan(n);
  plan.forward(a);
  plan.forward(b);
  plan.forward(sum);
  for (std::size_t i = 0; i < n; ++i) {
    const dsp::Complex expected = a[i] + 2.0 * b[i];
    EXPECT_NEAR(sum[i].real(), expected.real(), 1e-8);
    EXPECT_NEAR(sum[i].imag(), expected.imag(), 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizeTest,
                         ::testing::Values(8, 32, 128, 512, 2048, 8192),
                         [](const auto& inst) {
                           return "n" + std::to_string(inst.param);
                         });

// --- DWT perfect reconstruction across lengths --------------------------------

class DwtLengthTest
    : public ::testing::TestWithParam<std::pair<std::size_t, int>> {};

TEST_P(DwtLengthTest, ReconstructionAndEnergy) {
  const auto [n, levels] = GetParam();
  Rng rng(n + static_cast<std::size_t>(levels));
  std::vector<double> x(n);
  for (double& v : x) v = rng.uniform(-2, 2);

  for (const auto family :
       {wavelet::Family::Haar, wavelet::Family::Db2, wavelet::Family::Db4}) {
    const auto d = wavelet::decompose(x, family, levels);
    const auto back = wavelet::reconstruct(d);
    ASSERT_EQ(back.size(), n);
    double max_err = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      max_err = std::max(max_err, std::fabs(back[i] - x[i]));
    }
    EXPECT_LT(max_err, 1e-9) << wavelet::to_string(family);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LengthsAndLevels, DwtLengthTest,
    ::testing::Values(std::pair<std::size_t, int>{64, 3},
                      std::pair<std::size_t, int>{96, 5},
                      std::pair<std::size_t, int>{256, 6},
                      std::pair<std::size_t, int>{1024, 4}),
    [](const auto& inst) {
      return "n" + std::to_string(inst.param.first) + "_l" +
             std::to_string(inst.param.second);
    });

// --- Dempster-Shafer algebra under random evidence -----------------------------

class DsAlgebraTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static fusion::MassFunction random_support(
      const fusion::FrameOfDiscernment& frame, Rng& rng) {
    const auto focus = static_cast<fusion::HypothesisSet>(
        rng.integer(1, frame.theta()));
    return fusion::MassFunction::simple_support(frame, focus,
                                                rng.uniform(0.0, 0.9));
  }
};

TEST_P(DsAlgebraTest, CommutativeAssociativeNormalized) {
  const fusion::FrameOfDiscernment frame({"a", "b", "c", "d"});
  Rng rng(GetParam());
  const auto m1 = random_support(frame, rng);
  const auto m2 = random_support(frame, rng);
  const auto m3 = random_support(frame, rng);

  // Commutativity.
  const auto ab = fusion::combine(m1, m2).fused;
  const auto ba = fusion::combine(m2, m1).fused;
  for (const auto& [set, mass] : ab.focal_elements()) {
    EXPECT_NEAR(ba.mass(set), mass, 1e-12);
  }

  // Associativity: (m1 ⊕ m2) ⊕ m3 == m1 ⊕ (m2 ⊕ m3).
  const auto left = fusion::combine(ab, m3).fused;
  const auto right = fusion::combine(m1, fusion::combine(m2, m3).fused).fused;
  for (const auto& [set, mass] : left.focal_elements()) {
    EXPECT_NEAR(right.mass(set), mass, 1e-9);
  }

  // Normalization and belief/plausibility bracketing.
  double total = 0.0;
  for (const auto& [set, mass] : left.focal_elements()) {
    EXPECT_GE(mass, 0.0);
    total += mass;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  for (std::size_t h = 0; h < frame.size(); ++h) {
    const auto s = frame.singleton(h);
    EXPECT_LE(left.belief(s), left.plausibility(s) + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DsAlgebraTest,
                         ::testing::Range<std::uint64_t>(1, 17));

// --- Prognostic fusion invariants under random curves --------------------------

class PrognosticPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static fusion::PrognosticVector random_curve(Rng& rng, std::size_t max_pts) {
    std::vector<fusion::PrognosticPoint> pts;
    double mo = 0.0;
    const std::size_t n = 1 + rng.integer(0, max_pts - 1);
    for (std::size_t i = 0; i < n; ++i) {
      mo += rng.uniform(0.2, 2.0);
      pts.push_back({SimTime::from_months(mo), rng.uniform(0.0, 1.0)});
    }
    return fusion::PrognosticVector(std::move(pts));
  }
};

TEST_P(PrognosticPropertyTest, FusionInvariants) {
  Rng rng(GetParam() * 31 + 5);
  const auto a = random_curve(rng, 6);
  const auto b = random_curve(rng, 6);

  const auto ab = fuse_conservative(a, b);
  const auto ba = fuse_conservative(b, a);

  for (double mo = 0.25; mo < 15.0; mo += 0.25) {
    const SimTime t = SimTime::from_months(mo);
    // Commutative.
    EXPECT_NEAR(ab.probability_at(t), ba.probability_at(t), 1e-9);
    // Monotone in time (a failure CDF cannot fall).
    EXPECT_GE(ab.probability_at(t + SimTime::from_months(0.25)) + 1e-12,
              ab.probability_at(t));
  }

  // Conservative at every reported constraint point.
  for (const auto* curve : {&a, &b}) {
    for (const auto& p : curve->points()) {
      EXPECT_GE(ab.probability_at(p.horizon) + 1e-9, p.probability);
    }
  }

  // Idempotent under refusion.
  const auto again = fuse_conservative(ab, a);
  for (double mo = 0.25; mo < 15.0; mo += 0.5) {
    const SimTime t = SimTime::from_months(mo);
    EXPECT_NEAR(again.probability_at(t), ab.probability_at(t), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrognosticPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 17));

// --- Report codec under random field content -----------------------------------

class CodecFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzzTest, RandomReportsRoundTrip) {
  Rng rng(GetParam() * 97);
  for (int trial = 0; trial < 25; ++trial) {
    net::FailureReport r;
    r.dc = DcId(rng.integer(0, 1u << 20));
    r.knowledge_source = KnowledgeSourceId(rng.integer(0, 255));
    r.sensed_object = ObjectId(rng.integer(0, 1u << 30));
    r.machine_condition = ConditionId(rng.integer(0, 64));
    r.severity = rng.uniform(0, 1);
    r.belief = rng.uniform(0, 1);
    r.timestamp = SimTime(static_cast<std::int64_t>(
        rng.integer(0, 1ull << 50)));
    const auto text_len = rng.integer(0, 300);
    for (std::uint64_t i = 0; i < text_len; ++i) {
      r.explanation.push_back(
          static_cast<char>(rng.integer(1, 255)));  // arbitrary bytes
    }
    const auto prog_count = rng.integer(0, 8);
    for (std::uint64_t i = 0; i < prog_count; ++i) {
      r.prognostics.push_back(
          {rng.uniform(0, 1), rng.uniform(0, 1e9)});
    }
    const auto back = net::try_deserialize_report(net::serialize(r));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, r);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// --- SBFR: random machines never corrupt the interpreter ------------------------

class SbfrFuzzTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  /// A random but always-valid expression over 2 channels / 2 locals /
  /// `machines` status registers, depth-bounded.
  static sbfr::Expr random_expr(Rng& rng, int depth, std::uint8_t machines) {
    if (depth <= 0) {
      switch (rng.integer(0, 4)) {
        case 0: return sbfr::Expr::constant(rng.uniform(-5, 5));
        case 1: return sbfr::Expr::input(static_cast<std::uint8_t>(
                    rng.integer(0, 1)));
        case 2: return sbfr::Expr::delta(static_cast<std::uint8_t>(
                    rng.integer(0, 1)));
        case 3: return sbfr::Expr::local(static_cast<std::uint8_t>(
                    rng.integer(0, 1)));
        default: return sbfr::Expr::dt();
      }
    }
    const sbfr::Expr lhs = random_expr(rng, depth - 1, machines);
    const sbfr::Expr rhs = random_expr(rng, depth - 1, machines);
    switch (rng.integer(0, 6)) {
      case 0: return lhs + rhs;
      case 1: return lhs - rhs;
      case 2: return lhs * rhs;
      case 3: return lhs > rhs;
      case 4: return lhs <= rhs;
      case 5: return lhs && rhs;
      default: return lhs || rhs;
    }
  }

  static sbfr::MachineDef random_machine(Rng& rng, std::uint8_t machines,
                                         std::uint8_t self) {
    const auto states = static_cast<std::uint8_t>(rng.integer(1, 4));
    sbfr::MachineDef def("fuzz", /*num_locals=*/2, 0);
    for (std::uint8_t s = 0; s < states; ++s) {
      def.add_state("s" + std::to_string(s));
    }
    const auto transitions = rng.integer(1, 8);
    for (std::uint64_t t = 0; t < transitions; ++t) {
      const auto from = static_cast<std::uint8_t>(rng.integer(0, states - 1));
      const auto to = static_cast<std::uint8_t>(rng.integer(0, states - 1));
      sbfr::Action action;
      if (rng.bernoulli(0.7)) {
        action.set_local(static_cast<std::uint8_t>(rng.integer(0, 1)),
                         random_expr(rng, 1, machines));
      }
      if (rng.bernoulli(0.3)) {
        action.set_status(self, random_expr(rng, 1, machines));
      }
      def.add_transition(from, to, random_expr(rng, 2, machines), action);
    }
    return def;
  }
};

TEST_P(SbfrFuzzTest, RandomMachinesRunAndSerializeStably) {
  Rng rng(GetParam() * 1337);
  constexpr std::uint8_t kMachines = 4;
  sbfr::SbfrSystem sys(2);
  std::vector<std::vector<std::uint8_t>> images;
  for (std::uint8_t m = 0; m < kMachines; ++m) {
    const auto def = random_machine(rng, kMachines, m);
    ASSERT_TRUE(sbfr::validate(def).empty());
    images.push_back(def.serialize());
    sys.add_machine(def);
  }

  for (int cycle = 0; cycle < 2000; ++cycle) {
    const double inputs[2] = {rng.uniform(-10, 10), rng.uniform(-10, 10)};
    sys.step(inputs);
  }
  for (std::uint8_t m = 0; m < kMachines; ++m) {
    EXPECT_LT(sys.state(m), 4);  // state index stays in range
    // Serialized image is stable through a round trip.
    EXPECT_EQ(sbfr::MachineDef::deserialize(images[m]).serialize(),
              images[m]);
  }
  (void)sys.drain_events();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SbfrFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// --- DB vs reference model -------------------------------------------------------

class DbModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DbModelTest, RandomOpsMatchReferenceMap) {
  Rng rng(GetParam() * 271);
  db::Table table(db::TableSchema{
      "t",
      {db::ColumnDef{"id", db::ValueType::Integer, false},
       db::ColumnDef{"v", db::ValueType::Real, false}}});
  table.create_index("v");
  std::map<std::int64_t, double> reference;

  for (int op = 0; op < 800; ++op) {
    const auto choice = rng.integer(0, 9);
    if (choice < 5) {  // insert
      const double v = std::floor(rng.uniform(0, 20));
      const auto key = table.insert_auto({db::Value(v)});
      reference[key] = v;
    } else if (choice < 7 && !reference.empty()) {  // erase random existing
      auto it = reference.begin();
      std::advance(it, static_cast<long>(
                           rng.integer(0, reference.size() - 1)));
      EXPECT_TRUE(table.erase(it->first));
      reference.erase(it);
    } else if (!reference.empty()) {  // update random existing
      auto it = reference.begin();
      std::advance(it, static_cast<long>(
                           rng.integer(0, reference.size() - 1)));
      const double v = std::floor(rng.uniform(0, 20));
      EXPECT_TRUE(table.update(it->first, "v", db::Value(v)));
      it->second = v;
    }
  }

  // Row count and contents agree.
  ASSERT_EQ(table.row_count(), reference.size());
  for (const auto& [key, v] : reference) {
    const db::Row* row = table.find(key);
    ASSERT_NE(row, nullptr);
    EXPECT_DOUBLE_EQ((*row)[1].numeric(), v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbModelTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// --- Network conservation law ----------------------------------------------------

struct NetCase {
  double drop, dup;
  std::uint64_t seed;
};

class NetworkConservationTest : public ::testing::TestWithParam<NetCase> {};

TEST_P(NetworkConservationTest, DatagramsAreConserved) {
  const NetCase c = GetParam();
  net::NetworkConfig cfg;
  cfg.drop_probability = c.drop;
  cfg.duplicate_probability = c.dup;
  cfg.jitter = SimTime::from_millis(200.0);
  cfg.seed = c.seed;
  net::SimNetwork network(cfg);
  std::size_t received = 0;
  network.register_endpoint("sink", [&](const net::Message&) { ++received; });

  Rng rng(c.seed);
  constexpr std::size_t kSent = 500;
  for (std::size_t i = 0; i < kSent; ++i) {
    // 10% of traffic goes to an unregistered endpoint.
    const std::string to = rng.bernoulli(0.1) ? "ghost" : "sink";
    network.send("src", to, {static_cast<std::uint8_t>(i)},
                 SimTime::from_millis(static_cast<double>(i)));
  }
  network.flush();

  const net::NetworkStats s = network.stats();
  EXPECT_EQ(s.sent, kSent);
  // Everything sent is accounted for exactly once.
  EXPECT_EQ(s.delivered + s.dead_lettered,
            s.sent - s.dropped + s.duplicated);
  EXPECT_EQ(received, s.delivered);
  EXPECT_EQ(network.in_flight(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, NetworkConservationTest,
    ::testing::Values(NetCase{0.0, 0.0, 1}, NetCase{0.3, 0.0, 2},
                      NetCase{0.0, 0.4, 3}, NetCase{0.25, 0.25, 4},
                      NetCase{0.6, 0.1, 5}),
    [](const auto& inst) {
      return "case" + std::to_string(inst.param.seed);
    });

// --- Weibull fit recovery across parameter space ----------------------------------

struct WeibullCase {
  double shape, scale;
};

class WeibullRecoveryTest : public ::testing::TestWithParam<WeibullCase> {};

TEST_P(WeibullRecoveryTest, MleRecoversParameters) {
  const WeibullCase c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.shape * 100 + c.scale));
  std::vector<fusion::LifeRecord> records;
  for (int i = 0; i < 600; ++i) {
    const double u = rng.uniform(1e-6, 1.0 - 1e-6);
    records.push_back(
        {SimTime::from_days(c.scale *
                            std::pow(-std::log(1.0 - u), 1.0 / c.shape)),
         true});
  }
  const auto fit = fusion::WeibullModel::fit(records);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->shape() / c.shape, 1.0, 0.12);
  EXPECT_NEAR(fit->scale_days() / c.scale, 1.0, 0.08);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndScales, WeibullRecoveryTest,
    ::testing::Values(WeibullCase{0.7, 60.0}, WeibullCase{1.0, 150.0},
                      WeibullCase{2.0, 90.0}, WeibullCase{3.5, 400.0}),
    [](const auto& inst) {
      return "k" + std::to_string(static_cast<int>(inst.param.shape * 10)) +
             "_s" + std::to_string(static_cast<int>(inst.param.scale));
    });

// --- PDME ingest stream fixture ----------------------------------------------
//
// A four-plant ship model with its own executive, plus a seeded report
// stream to feed it.

class PdmeStreamFixture : public ::testing::TestWithParam<std::size_t> {
 protected:
  struct Rig {
    oosm::ObjectModel model;
    oosm::ShipModel ship;
    std::unique_ptr<pdme::PdmeExecutive> exec;

    Rig()
        : ship(oosm::build_ship(model, "Prop", /*decks=*/2,
                                /*plants_per_deck=*/2)),
          exec(std::make_unique<pdme::PdmeExecutive>(model)) {}

    [[nodiscard]] std::vector<ObjectId> machines() const {
      std::vector<ObjectId> out;
      for (const auto& plant : ship.plants) {
        out.insert(out.end(), {plant.chiller, plant.motor, plant.gearbox,
                               plant.compressor});
      }
      return out;
    }
  };

  /// A seeded multi-plant stream: reinforcing/conflicting reports over all
  /// machines, exact-duplicate retransmissions, sensor-fault flags.
  static std::vector<net::FailureReport> make_stream(
      const std::vector<ObjectId>& machines) {
    constexpr domain::FailureMode kModes[] = {
        domain::FailureMode::MotorImbalance,
        domain::FailureMode::ShaftMisalignment,
        domain::FailureMode::BearingHousingLooseness,
        domain::FailureMode::RotorBarDefect,
        domain::FailureMode::StatorWindingFault,
        domain::FailureMode::MotorBearingWear,
        domain::FailureMode::CompressorBearingWear,
        domain::FailureMode::OilDegradation,
        domain::FailureMode::GearMeshWear,
        domain::FailureMode::PumpCavitation,
        domain::FailureMode::RefrigerantLeak,
        domain::FailureMode::CondenserFouling,
    };
    Rng rng(0xE18);
    std::vector<net::FailureReport> stream;
    for (int i = 0; i < 400; ++i) {
      if (!stream.empty() && rng.bernoulli(0.15)) {
        // Retransmission: both executives must drop it by signature.
        stream.push_back(stream[rng.integer(0, stream.size() - 1)]);
        continue;
      }
      net::FailureReport r;
      r.dc = DcId(1 + rng.integer(0, 3));
      r.knowledge_source = KnowledgeSourceId(rng.integer(1, 4));
      r.sensed_object = machines[rng.integer(0, machines.size() - 1)];
      if (rng.bernoulli(0.08)) {
        r.machine_condition = domain::sensor_fault_condition(
            static_cast<domain::SensorFaultKind>(rng.integer(0, 2)));
        r.severity = rng.bernoulli(0.7) ? rng.uniform(0.3, 1.0) : 0.0;
      } else {
        r.machine_condition = domain::condition_id(kModes[rng.integer(0, 11)]);
        r.severity = rng.uniform(0.05, 1.0);
      }
      r.belief = rng.uniform(0.05, 0.95);
      r.timestamp = SimTime::from_seconds(10.0 * (i + 1));
      r.explanation = "prop stream #" + std::to_string(i);
      const auto prog_count = rng.integer(0, 3);
      for (std::uint64_t p = 0; p < prog_count; ++p) {
        r.prognostics.push_back(
            {rng.uniform(0.0, 1.0), rng.uniform(86400.0, 100.0 * 86400.0)});
      }
      stream.push_back(r);
    }
    return stream;
  }
};

// --- E21: batched submit() is byte-identical to singleton submit() -----------
//
// The committed guarantee of the batched ingest redesign: however the same
// report stream is partitioned into submit() spans — including the whole
// window at once — the OOSM population, browser pages, ICAS export, and
// report-level counters match one-report-at-a-time submission exactly.

class PdmeBatchEquivalenceTest : public PdmeStreamFixture {
 protected:
  static std::vector<net::ReportEnvelope> to_envelopes(
      const std::vector<net::FailureReport>& stream) {
    std::vector<net::ReportEnvelope> envs;
    envs.reserve(stream.size());
    for (const auto& r : stream) {
      net::ReportEnvelope env;
      env.dc = r.dc;
      env.sequence = 0;  // unsequenced: partitioning is the variable here
      env.report = r;
      envs.push_back(std::move(env));
    }
    return envs;
  }

  /// Feed `envs` as submit() spans: fixed size `batch`, the whole window
  /// when `batch` is 0, or randomized span lengths when `rng` is given.
  static void submit_partitioned(pdme::PdmeExecutive& exec,
                                 const std::vector<net::ReportEnvelope>& envs,
                                 std::size_t batch, Rng* rng = nullptr) {
    std::size_t i = 0;
    while (i < envs.size()) {
      std::size_t n = batch == 0 ? envs.size() - i
                      : rng == nullptr
                          ? batch
                          : 1 + rng->integer(0, 2 * batch - 1);
      n = std::min(n, envs.size() - i);
      exec.submit({envs.data() + i, n});
      i += n;
    }
  }

  /// Deep equivalence: every object (id, name, kind, every property value,
  /// every relation edge), browser pages, ICAS export, counters.
  static void expect_equivalent(const Rig& a, const Rig& b,
                                const std::vector<ObjectId>& machines) {
    const auto sa = a.exec->snapshot();
    const auto sb = b.exec->snapshot();
    EXPECT_EQ(sa.reports_accepted, sb.reports_accepted);
    EXPECT_EQ(sa.duplicates_dropped, sb.duplicates_dropped);
    EXPECT_EQ(sa.malformed_dropped, sb.malformed_dropped);
    EXPECT_EQ(sa.fusion_updates, sb.fusion_updates);
    EXPECT_EQ(sa.sensor_fault_reports, sb.sensor_fault_reports);

    const auto objs_a = a.model.all_objects();
    const auto objs_b = b.model.all_objects();
    ASSERT_EQ(objs_a.size(), objs_b.size());
    for (std::size_t i = 0; i < objs_a.size(); ++i) {
      const ObjectId id = objs_a[i];
      ASSERT_EQ(id.value(), objs_b[i].value());
      EXPECT_EQ(a.model.name(id), b.model.name(id));
      EXPECT_EQ(a.model.kind(id), b.model.kind(id));
      const auto& pa = a.model.properties(id);
      const auto& pb = b.model.properties(id);
      ASSERT_EQ(pa.size(), pb.size());
      for (auto ia = pa.begin(), ib = pb.begin(); ia != pa.end(); ++ia, ++ib) {
        EXPECT_EQ(ia->first, ib->first);
        EXPECT_TRUE(ia->second == ib->second)
            << "property " << ia->first << " differs on object " << id.value();
      }
      for (std::size_t rel = 0; rel < oosm::kRelationCount; ++rel) {
        const auto ra = a.model.related(id, static_cast<oosm::Relation>(rel));
        const auto rb = b.model.related(id, static_cast<oosm::Relation>(rel));
        ASSERT_EQ(ra.size(), rb.size());
        for (std::size_t e = 0; e < ra.size(); ++e) {
          EXPECT_EQ(ra[e].value(), rb[e].value());
        }
      }
    }

    EXPECT_EQ(pdme::render_summary(*a.exec, a.model, 50),
              pdme::render_summary(*b.exec, b.model, 50));
    for (const ObjectId m : machines) {
      EXPECT_EQ(pdme::render_machine(*a.exec, a.model, m),
                pdme::render_machine(*b.exec, b.model, m));
    }
    EXPECT_EQ(pdme::export_icas_csv(*a.exec, a.model),
              pdme::export_icas_csv(*b.exec, b.model));
  }
};

TEST_P(PdmeBatchEquivalenceTest, PartitionedSubmitMatchesSingleton) {
  Rig singleton;
  Rig batched;
  const std::vector<ObjectId> machines = singleton.machines();
  const auto envs = to_envelopes(make_stream(machines));

  submit_partitioned(*singleton.exec, envs, /*batch=*/1);
  submit_partitioned(*batched.exec, envs, GetParam());
  expect_equivalent(singleton, batched, machines);
}

TEST_F(PdmeBatchEquivalenceTest, RandomizedPartitionsMatchSingleton) {
  Rig singleton;
  const std::vector<ObjectId> machines = singleton.machines();
  const auto envs = to_envelopes(make_stream(machines));
  submit_partitioned(*singleton.exec, envs, /*batch=*/1);

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rig batched;
    Rng rng(0xBA7C4 + seed);
    submit_partitioned(*batched.exec, envs, /*batch=*/16, &rng);
    expect_equivalent(singleton, batched, machines);
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, PdmeBatchEquivalenceTest,
                         ::testing::Values<std::size_t>(7, 64, 0),
                         [](const auto& inst) {
                           return inst.param == 0
                                      ? std::string("fullwindow")
                                      : "batch" + std::to_string(inst.param);
                         });

// --- Report log: reads the same as the pre-log representation ---------------
//
// Posted reports used to be kept three ways in memory: a FailureReport copy
// in a per-machine history, a full OOSM object with a dozen properties, and
// a signature string for dedup. The shadow below keeps exactly that, driven
// by a seeded generator over sequenced, unsequenced, duplicate,
// malformed-condition and sensor-fault reports, hand-built report objects
// (stored and persisted, never fused: only submit() reaches fusion) and
// maintenance resets. The live executive — and a journal attached to the
// finished model -> load -> rebuild of it, and a journal mirror -> load ->
// rebuild — must read the same: reports_for(), each report object's
// property() and properties(), and the operator renders.

class ReportLogEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  using Props = std::vector<std::pair<std::string, db::Value>>;

  static Props as_vector(const oosm::PropertyMap& m) {
    return {m.begin(), m.end()};
  }

  /// The properties a posted report object carried before the log.
  static Props old_properties(const net::FailureReport& r) {
    oosm::PropertyMap p;
    p.set("belief", r.belief);
    p.set("condition", static_cast<std::int64_t>(r.machine_condition.value()));
    p.set("dc", static_cast<std::int64_t>(r.dc.value()));
    p.set("explanation", r.explanation);
    p.set("ks", static_cast<std::int64_t>(r.knowledge_source.value()));
    p.set("prognostics", oosm::encode_prognostics(r.prognostics));
    p.set("recommendations", r.recommendations);
    p.set("sensed", static_cast<std::int64_t>(r.sensed_object.value()));
    p.set("severity", r.severity);
    p.set("timestamp_us", r.timestamp.micros());
    if (r.trace != 0) p.set("trace", static_cast<std::int64_t>(r.trace));
    p.set("posted", std::int64_t{1});
    return as_vector(p);
  }

  /// The pre-log dedup signature string.
  static std::string old_signature(const net::FailureReport& r) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%llu/%llu/%llu/%llu/%lld/%.6f",
                  static_cast<unsigned long long>(r.dc.value()),
                  static_cast<unsigned long long>(r.knowledge_source.value()),
                  static_cast<unsigned long long>(r.sensed_object.value()),
                  static_cast<unsigned long long>(r.machine_condition.value()),
                  static_cast<long long>(r.timestamp.micros()), r.belief);
    return buf;
  }

  struct Shadow {
    std::map<std::uint64_t, std::vector<net::FailureReport>> history;
    std::map<std::uint64_t, Props> objects;  ///< report objects by id
    std::vector<std::uint64_t> hand_built;   ///< hand-built report ids
    std::set<std::string> signatures;
    std::set<std::pair<std::uint64_t, std::uint64_t>> datagrams;
    std::uint64_t next_id = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t accepted = 0;

    void fuse(const net::FailureReport& r) {
      const ConditionId c = r.machine_condition;
      if (!domain::is_sensor_fault_condition(c) &&
          (!c.valid() || c.value() > domain::kFailureModeCount)) {
        return;  // malformed: posted, counted, never in the history
      }
      history[r.sensed_object.value()].push_back(r);
      ++accepted;
    }

    /// One submit() of one datagram (sequenced) or stretch (unsequenced).
    void submit(const std::vector<net::ReportEnvelope>& run) {
      const net::ReportEnvelope& head = run.front();
      if (head.sequence != 0 &&
          !datagrams.insert({head.dc.value(), head.sequence}).second) {
        duplicates += run.size();
        return;
      }
      for (const net::ReportEnvelope& env : run) {
        if (!signatures.insert(old_signature(env.report)).second) {
          ++duplicates;
          continue;
        }
        objects[next_id++] = old_properties(env.report);
        fuse(env.report);
      }
    }
  };

  struct Rig {
    db::Database journal_db;
    oosm::ObjectModel model;
    std::unique_ptr<oosm::DurableModelJournal> journal;
    oosm::ShipModel ship;
    std::unique_ptr<pdme::PdmeExecutive> exec;

    Rig()
        : journal(std::make_unique<oosm::DurableModelJournal>(model,
                                                              journal_db)),
          ship(oosm::build_ship(model, "Log", 1, 2)),
          exec(std::make_unique<pdme::PdmeExecutive>(model)) {}
  };

  static net::FailureReport random_report(Rng& rng,
                                          const std::vector<ObjectId>& targets,
                                          int step) {
    static const char* const kExplanations[] = {"", "bearing tone at BPFO",
                                                "1x amplitude elevated"};
    static const char* const kRecommendations[] = {"", "Balance the rotor."};
    net::FailureReport r;
    r.dc = DcId(rng.integer(1, 3));
    r.knowledge_source = KnowledgeSourceId(rng.integer(1, 4));
    r.sensed_object = targets[rng.integer(0, targets.size() - 1)];
    const double kind = rng.uniform(0.0, 1.0);
    if (kind < 0.72) {
      r.machine_condition = domain::condition_id(
          domain::all_failure_modes()[rng.integer(0, 11)]);
    } else if (kind < 0.86) {
      r.machine_condition = domain::sensor_fault_condition(
          static_cast<domain::SensorFaultKind>(rng.integer(0, 3)));
    } else {
      const std::uint64_t malformed[] = {0, domain::kFailureModeCount + 1, 57};
      r.machine_condition = ConditionId(malformed[rng.integer(0, 2)]);
    }
    r.severity = rng.uniform(0.0, 1.0);
    // Beliefs that print alike to six decimals are duplicates too.
    const double beliefs[] = {0.5, 0.5 + 1e-9, 0.25, rng.uniform(0.05, 0.95)};
    r.belief = beliefs[rng.integer(0, 3)];
    // A narrow timestamp range makes distinct reports collide on the key.
    r.timestamp = SimTime::from_seconds(60.0 * rng.integer(1, 30));
    r.explanation = kExplanations[rng.integer(0, 2)];
    r.recommendations = kRecommendations[rng.integer(0, 1)];
    r.additional_info =
        rng.bernoulli(0.5) ? "" : "load=0.8;step=" + std::to_string(step);
    const auto pairs = rng.integer(0, 3);
    for (std::uint64_t p = 0; p < pairs; ++p) {
      r.prognostics.push_back(
          {rng.uniform(0.0, 1.0), rng.uniform(3600.0, 90.0 * 86400.0)});
    }
    r.trace = rng.bernoulli(0.5) ? rng.integer(1, 1ull << 40) : 0;
    return r;
  }

  /// A Report object assembled by hand, the way a third-party poster would.
  static void post_by_hand(Rig& rig, Shadow& shadow,
                           const net::FailureReport& r) {
    oosm::ObjectModel& m = rig.model;
    const ObjectId obj =
        m.create_object("Hand-posted report", domain::EquipmentKind::Report);
    ASSERT_EQ(obj.value(), shadow.next_id);
    ++shadow.next_id;
    m.set_property(obj, "dc", static_cast<std::int64_t>(r.dc.value()));
    m.set_property(obj, "ks",
                   static_cast<std::int64_t>(r.knowledge_source.value()));
    m.set_property(obj, "sensed",
                   static_cast<std::int64_t>(r.sensed_object.value()));
    m.set_property(obj, "condition",
                   static_cast<std::int64_t>(r.machine_condition.value()));
    m.set_property(obj, "severity", r.severity);
    m.set_property(obj, "belief", r.belief);
    m.set_property(obj, "timestamp_us", r.timestamp.micros());
    m.set_property(obj, "explanation", r.explanation);
    m.set_property(obj, "recommendations", r.recommendations);
    m.set_property(obj, "prognostics", oosm::encode_prognostics(r.prognostics));
    if (m.exists(r.sensed_object)) {
      m.relate(obj, oosm::Relation::RefersTo, r.sensed_object);
    }
    m.set_property(obj, "posted", std::int64_t{1});
    // Not fused: the history and the counters stay as they were.
    shadow.hand_built.push_back(obj.value());
  }

  static void expect_matches(const Shadow& shadow, const oosm::ObjectModel& m,
                             const pdme::PdmeExecutive& exec,
                             const std::vector<ObjectId>& targets,
                             const char* where) {
    for (const ObjectId t : targets) {
      const auto it = shadow.history.find(t.value());
      EXPECT_EQ(exec.reports_for(t),
                it == shadow.history.end() ? std::vector<net::FailureReport>{}
                                           : it->second)
          << where << ": history of object " << t.value();
    }
    for (const auto& [id, props] : shadow.objects) {
      const ObjectId obj(id);
      ASSERT_TRUE(m.exists(obj)) << where << ": report " << id;
      EXPECT_EQ(m.kind(obj), domain::EquipmentKind::Report);
      const auto sensed = static_cast<std::uint64_t>(
          m.property(obj, "sensed")->as_integer());
      const auto condition = static_cast<std::uint64_t>(
          m.property(obj, "condition")->as_integer());
      EXPECT_EQ(m.name(obj), "Report " + std::to_string(condition) + " on " +
                                 std::to_string(sensed));
      EXPECT_EQ(m.has_relation(obj, oosm::Relation::RefersTo,
                               ObjectId(sensed)),
                m.exists(ObjectId(sensed)));
      EXPECT_TRUE(as_vector(m.properties(obj)) == props)
          << where << ": properties of report " << id;
      for (const auto& [key, value] : props) {
        const auto v = m.property(obj, key);
        EXPECT_TRUE(v.has_value() && *v == value)
            << where << ": report " << id << " property " << key;
      }
      EXPECT_FALSE(m.property(obj, "additional_info").has_value());
    }
    for (const std::uint64_t id : shadow.hand_built) {
      const ObjectId obj(id);
      ASSERT_TRUE(m.exists(obj)) << where << ": hand-built report " << id;
      EXPECT_EQ(m.kind(obj), domain::EquipmentKind::Report);
      EXPECT_EQ(m.name(obj), "Hand-posted report");
      EXPECT_TRUE(m.property(obj, "posted").has_value());
    }
  }
};

TEST_P(ReportLogEquivalenceTest, LogReadsLikeTheObjectsItReplaced) {
  Rng rng(splitmix64(0x106E9 ^ GetParam()));
  Rig rig;
  Shadow shadow;
  shadow.next_id = rig.model.all_objects().back().value() + 1;
  std::vector<ObjectId> targets;
  for (const auto& plant : rig.ship.plants) {
    targets.insert(targets.end(),
                   {plant.chiller, plant.motor, plant.gearbox,
                    plant.compressor});
  }
  targets.push_back(ObjectId(999'999));  // a sensed object the OOSM lacks

  std::vector<std::vector<net::ReportEnvelope>> sent;  // sequenced datagrams
  std::vector<net::FailureReport> reports;             // for resends
  std::uint64_t sequence[4] = {};
  std::size_t hand_posted = 0;
  std::size_t resets = 0;
  const auto submit = [&](const std::vector<net::ReportEnvelope>& run) {
    std::uint64_t predicted = shadow.next_id;
    shadow.submit(run);
    const auto out = rig.exec->submit(run);
    if (shadow.next_id != predicted) {
      ASSERT_TRUE(out.last_object.has_value());
      EXPECT_EQ(out.last_object->value(), shadow.next_id - 1);
    } else {
      EXPECT_FALSE(out.last_object.has_value());
    }
  };
  for (int step = 0; step < 300; ++step) {
    const double action = rng.uniform(0.0, 1.0);
    if (action < 0.50) {
      // A fresh sequenced datagram of one to four reports.
      const DcId dc(rng.integer(1, 3));
      std::vector<net::ReportEnvelope> run;
      const auto n = rng.integer(1, 4);
      ++sequence[dc.value()];
      for (std::uint64_t k = 0; k < n; ++k) {
        net::FailureReport r = random_report(rng, targets, step);
        r.dc = dc;
        reports.push_back(r);
        run.push_back({dc, sequence[dc.value()], std::move(r)});
      }
      sent.push_back(run);
      submit(run);
    } else if (action < 0.60 && !sent.empty()) {
      submit(sent[rng.integer(0, sent.size() - 1)]);  // retransmission
    } else if (action < 0.80) {
      // Unsequenced reports; some are copies of earlier ones.
      std::vector<net::ReportEnvelope> run;
      const auto n = rng.integer(1, 3);
      for (std::uint64_t k = 0; k < n; ++k) {
        net::FailureReport r =
            !reports.empty() && rng.bernoulli(0.3)
                ? reports[rng.integer(0, reports.size() - 1)]
                : random_report(rng, targets, step);
        reports.push_back(r);
        run.push_back({r.dc, 0, std::move(r)});
      }
      submit(run);
    } else if (action < 0.90) {
      net::FailureReport r = random_report(rng, targets, step);
      r.machine_condition = domain::condition_id(
          domain::all_failure_modes()[rng.integer(0, 11)]);
      post_by_hand(rig, shadow, r);
      ++hand_posted;
    } else {
      const ObjectId machine = targets[rng.integer(0, targets.size() - 1)];
      rig.exec->reset_machine(machine);
      shadow.history.erase(machine.value());
      ++resets;
    }
    if (step % 50 == 0) expect_matches(shadow, rig.model, *rig.exec, targets,
                                       "live");
  }
  ASSERT_GT(hand_posted, 0u);
  ASSERT_GT(resets, 0u);
  expect_matches(shadow, rig.model, *rig.exec, targets, "live");
  EXPECT_EQ(rig.exec->snapshot().duplicates_dropped, shadow.duplicates);
  EXPECT_EQ(rig.exec->snapshot().reports_accepted, shadow.accepted);

  db::Database saved;
  { oosm::DurableModelJournal late(rig.model, saved); }
  for (const auto& [where, db] :
       {std::pair<const char*, const db::Database*>{"late journal/load",
                                                    &saved},
        {"journal/load", &rig.journal_db}}) {
    oosm::ObjectModel restored = oosm::Persistence::load(*db);
    EXPECT_EQ(restored.object_count(), rig.model.object_count()) << where;
    pdme::PdmeExecutive rebuilt(restored);
    rebuilt.rebuild_from_model();
    expect_matches(shadow, restored, rebuilt, targets, where);
    EXPECT_EQ(rebuilt.snapshot().reports_accepted, shadow.accepted) << where;
    EXPECT_EQ(pdme::render_summary(rebuilt, restored, 50),
              pdme::render_summary(*rig.exec, rig.model, 50))
        << where;
    for (const ObjectId t : targets) {
      EXPECT_EQ(pdme::render_machine(rebuilt, restored, t),
                pdme::render_machine(*rig.exec, rig.model, t))
          << where;
    }
    EXPECT_EQ(pdme::export_icas_csv(rebuilt, restored),
              pdme::export_icas_csv(*rig.exec, rig.model))
        << where;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReportLogEquivalenceTest,
                         ::testing::Values<std::uint64_t>(1, 2, 3, 4, 5, 6, 7,
                                                          8));

}  // namespace
}  // namespace mpros
