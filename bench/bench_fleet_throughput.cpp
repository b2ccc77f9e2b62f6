// E7 — Fleet data rates (§1).
//
// Paper claim: "thousands of embedded processors will collect millions of
// data points per second"; "Results from hundreds of DCs per ship will be
// correlated at a system level" by the PDME. The harness sweeps DC count
// and reports simulated samples/second of acquisition plus PDME report
// throughput, demonstrating the data-load shape the paper motivates.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <thread>
#include <vector>

#include "mpros/common/rng.hpp"
#include "mpros/mpros/ship_system.hpp"

namespace {

using namespace mpros;

void BM_FleetHour(benchmark::State& state) {
  const auto plants = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    ShipSystemConfig cfg;
    cfg.plant_count = plants;
    cfg.dc_template.vibration_period = SimTime::from_seconds(600);
    cfg.dc_template.process_period = SimTime::from_seconds(60);
    cfg.seed = 0xF1EE7 + state.iterations();
    ShipSystem ship(cfg);
    // One faulted plant keeps the report path exercised.
    ship.chiller(0).faults().schedule(
        {domain::FailureMode::MotorImbalance, SimTime(0), SimTime(0), 0.9,
         plant::GrowthProfile::Step});
    state.ResumeTiming();

    ship.run_until(SimTime::from_hours(1.0));

    state.PauseTiming();
    const auto stats = ship.fleet_stats();
    state.counters["dc_count"] = static_cast<double>(plants);
    state.counters["samples_per_sim_s"] =
        static_cast<double>(stats.samples_processed) / 3600.0;
    state.counters["reports_fused"] =
        static_cast<double>(stats.reports_fused);
    state.ResumeTiming();
  }
  state.SetLabel("1 simulated hour");
}
BENCHMARK(BM_FleetHour)->Arg(1)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_PdmeReportIngest(benchmark::State& state) {
  // Raw PDME fusion throughput: how many §7 reports per second the central
  // engine can post + fuse (the "hundreds of DCs" correlation point).
  oosm::ObjectModel model;
  const auto ship = oosm::build_ship(model, "bench", 1, 1);
  pdme::PdmeConfig cfg;
  cfg.deduplicate = false;  // measure fusion, not the dedup cache
  pdme::PdmeExecutive pdme(model, cfg);

  const auto modes = domain::all_failure_modes();
  std::uint64_t i = 0;
  for (auto _ : state) {
    net::FailureReport r;
    r.dc = DcId(1 + i % 200);
    r.knowledge_source = KnowledgeSourceId(1 + i % 4);
    r.sensed_object = ship.plants[0].motor;
    r.machine_condition = domain::condition_id(modes[i % modes.size()]);
    r.severity = 0.5;
    r.belief = 0.4;
    r.timestamp = SimTime(static_cast<std::int64_t>(i));
    const net::ReportEnvelope env{r.dc, 0, std::move(r)};
    pdme.submit({&env, 1});
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("reports fused (OOSM post + D-S + prognostic)");
}
BENCHMARK(BM_PdmeReportIngest);

void BM_WireSerialization(benchmark::State& state) {
  net::FailureReport r;
  r.dc = DcId(3);
  r.knowledge_source = KnowledgeSourceId(1);
  r.sensed_object = ObjectId(17);
  r.machine_condition = ConditionId(5);
  r.severity = 0.62;
  r.belief = 0.91;
  r.explanation = "1x running-speed amplitude elevated";
  r.recommendations = "Field balance the rotor.";
  r.prognostics = {{0.1, 86400.0}, {0.5, 604800.0}, {0.9, 2592000.0}};
  for (auto _ : state) {
    const auto bytes = net::serialize(r);
    benchmark::DoNotOptimize(net::try_deserialize_report(bytes));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("report round-trips");
}
BENCHMARK(BM_WireSerialization);

// --- E21: batched PDME ingest -------------------------------------------------
//
// Replays one fixed prognostics-rich multi-plant report stream through the
// executive, measuring accepted reports/s end to end (dedup + OOSM post +
// fuse), once through span submit() and once through one-report submits.

constexpr std::size_t kSweepReports = 24000;

/// One fixed stream over 32 machines (8 plants x 4), dense enough that
/// Dempster-Shafer + prognostic-curve fusion dominates the serial OOSM post.
std::vector<net::FailureReport> sweep_stream(const oosm::ShipModel& ship) {
  const auto modes = domain::all_failure_modes();
  std::vector<ObjectId> machines;
  for (const auto& plant : ship.plants) {
    machines.insert(machines.end(), {plant.chiller, plant.motor, plant.gearbox,
                                     plant.compressor});
  }
  Rng rng(0xE18);
  std::vector<net::FailureReport> stream;
  stream.reserve(kSweepReports);
  for (std::size_t i = 0; i < kSweepReports; ++i) {
    net::FailureReport r;
    r.dc = DcId(1 + i % ship.plants.size());
    r.knowledge_source = KnowledgeSourceId(1 + i % 4);
    r.sensed_object = machines[i % machines.size()];
    r.machine_condition = domain::condition_id(modes[(i / 7) % modes.size()]);
    r.severity = rng.uniform(0.1, 1.0);
    r.belief = rng.uniform(0.1, 0.9);
    r.timestamp = SimTime(static_cast<std::int64_t>(i * 1000));
    r.explanation = "bench sweep";
    for (int p = 0; p < 6; ++p) {
      r.prognostics.push_back(
          {0.1 + 0.15 * p, rng.uniform(86400.0, 200.0 * 86400.0)});
    }
    stream.push_back(r);
  }
  return stream;
}

/// One DC sync window's worth of coalesced reports per submit() span (E21):
/// the wire batch size the DCs produce.
constexpr std::size_t kIngestBatch = 256;

/// The sweep stream as prebuilt submit() envelopes (unsequenced: the bench
/// measures the ingest pipeline, not reliable-stream bookkeeping).
std::vector<net::ReportEnvelope> sweep_envelopes(
    const std::vector<net::FailureReport>& stream) {
  std::vector<net::ReportEnvelope> envs;
  envs.reserve(stream.size());
  for (const auto& r : stream) {
    net::ReportEnvelope env;
    env.dc = r.dc;
    env.sequence = 0;
    env.report = r;
    envs.push_back(std::move(env));
  }
  return envs;
}

/// Accepted reports/s (fresh model + executive), ingesting through the
/// span-based submit() API in kIngestBatch spans.
double measure_batched_rate(const std::vector<net::ReportEnvelope>& envs) {
  oosm::ObjectModel model;
  const auto ship = oosm::build_ship(model, "bench", 4, 2);
  pdme::PdmeConfig cfg;
  cfg.deduplicate = false;  // measure fusion, not the signature cache
  pdme::PdmeExecutive pdme(model, cfg);

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < envs.size(); i += kIngestBatch) {
    const std::size_t n = std::min(kIngestBatch, envs.size() - i);
    pdme.submit({envs.data() + i, n});
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return static_cast<double>(pdme.snapshot().reports_accepted) / secs;
}

/// The pre-E21 call shape for comparison: an envelope build plus a
/// one-element submit per report.
double measure_singleton_rate(const std::vector<net::FailureReport>& stream) {
  oosm::ObjectModel model;
  const auto ship = oosm::build_ship(model, "bench", 4, 2);
  pdme::PdmeConfig cfg;
  cfg.deduplicate = false;
  pdme::PdmeExecutive pdme(model, cfg);

  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& r : stream) {
    const net::ReportEnvelope env{r.dc, 0, r};
    pdme.submit({&env, 1});
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return static_cast<double>(pdme.snapshot().reports_accepted) / secs;
}

void BM_PdmeBatchedIngest(benchmark::State& state) {
  oosm::ObjectModel topo;
  const auto ship = oosm::build_ship(topo, "bench", 4, 2);
  const auto envs = sweep_envelopes(sweep_stream(ship));
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure_batched_rate(envs));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kSweepReports));
  state.SetLabel("batched submit()");
}
BENCHMARK(BM_PdmeBatchedIngest)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void write_json_snapshot() {
  oosm::ObjectModel topo;
  const auto ship = oosm::build_ship(topo, "bench", 4, 2);
  const auto stream = sweep_stream(ship);
  const auto envs = sweep_envelopes(stream);

  (void)measure_batched_rate(envs);  // warm allocators and code paths
  double batched = 0.0;  // best-of-3 to shave scheduler noise
  double singleton = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    batched = std::max(batched, measure_batched_rate(envs));
    singleton = std::max(singleton, measure_singleton_rate(stream));
  }

  std::FILE* f = std::fopen("BENCH_FLEET.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_fleet: cannot write BENCH_FLEET.json\n");
    return;
  }
  // Wall-clock rates depend on the host; record its core count beside them.
  const unsigned hw = std::thread::hardware_concurrency();
  std::fprintf(f,
               "{\n"
               "  \"experiment\": \"E18+E21\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"report_count\": %zu,\n"
               "  \"machine_count\": %zu,\n"
               "  \"ingest_batch\": %zu,\n"
               "  \"reports_per_s_inline\": %.0f,\n"
               "  \"reports_per_s_inline_singleton\": %.0f\n"
               "}\n",
               hw, kSweepReports, ship.plants.size() * 4, kIngestBatch,
               batched, singleton);
  std::fclose(f);
  std::printf(
      "batched        : %.0f/s via submit() spans of %zu  (%u cores)\n"
      "singleton      : %.0f/s via one-report submit() for comparison "
      "(BENCH_FLEET.json written)\n",
      batched, kIngestBatch, hw, singleton);
}

/// --quick: CI regression gate. Re-measures the inline batched ingest rate
/// and compares against the committed BENCH_FLEET.json in the working
/// directory; exits nonzero on a >20% regression. Never rewrites the file.
int run_quick_gate() {
  double baseline = 0.0;
  std::FILE* f = std::fopen("BENCH_FLEET.json", "r");
  if (f != nullptr) {
    char buf[4096];
    const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
    buf[n] = '\0';
    std::fclose(f);
    const char* key = std::strstr(buf, "\"reports_per_s_inline\"");
    if (key != nullptr) std::sscanf(key, "\"reports_per_s_inline\": %lf",
                                    &baseline);
  }
  if (baseline <= 0.0) {
    std::printf("bench_fleet --quick: no BENCH_FLEET.json baseline here; "
                "nothing to gate against\n");
    return 0;
  }

  oosm::ObjectModel topo;
  const auto ship = oosm::build_ship(topo, "bench", 4, 2);
  const auto envs = sweep_envelopes(sweep_stream(ship));
  (void)measure_batched_rate(envs);  // warm-up
  double best = 0.0;  // best-of-5: the gate runs on loaded CI machines
  for (int rep = 0; rep < 5; ++rep) {
    best = std::max(best, measure_batched_rate(envs));
  }
  const double floor = 0.8 * baseline;
  std::printf("bench_fleet --quick: inline batched ingest %.0f/s "
              "(baseline %.0f/s, floor %.0f/s)\n", best, baseline, floor);
  if (best < floor) {
    std::fprintf(stderr,
                 "bench_fleet --quick: REGRESSION — more than 20%% below "
                 "the committed baseline\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == std::string_view("--quick")) {
      return run_quick_gate();
    }
  }
  std::printf(
      "\nE7 fleet data rates (paper §1) + E21 batched PDME ingest\n"
      "  claim  : 'millions of data points per second' fleet-wide;\n"
      "           'hundreds of DCs per ship' correlated at the PDME\n"
      "  shape  : samples_per_sim_s scales linearly with dc_count below;\n"
      "           BM_PdmeReportIngest bounds central correlation capacity;\n"
      "           BM_PdmeBatchedIngest lifts it with span submit()\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  write_json_snapshot();
  return 0;
}
