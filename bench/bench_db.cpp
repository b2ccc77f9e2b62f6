// E22 — Durable OOSM: group-commit throughput and crash-recovery time.
//
// Part 1 measures sustained journaled-mutation throughput through the
// write-ahead log as a function of commit-batch size. Batch 1 is the
// classical fsync-per-record discipline; larger batches amortise the single
// group-commit fsync over the whole window (the WAL seals one CRC-framed
// commit record and issues ONE fsync per commit() regardless of how many
// mutations the window buffered). Acceptance: group commit at batch >= 64
// sustains at least 5x the fsync-per-record rate.
//
// Part 2 measures recovery time against OOSM size: a ship model plus N
// failure-prediction Report objects (~11 properties each) is journalled
// through a DurableModelJournal into the WAL, then the directory is
// reopened cold — construction replays the log — and Persistence::load
// rebuilds the model. Metric: wall milliseconds to a live model, and the
// fsync-free replay rate in records/s (the CPU-bound half, which is what
// the --quick gate checks).
//
// Writes BENCH_DB.json at the current working directory (run from the repo
// root to refresh the committed snapshot).
//
// --quick: CI regression gate. Re-measures the WAL replay rate and fails
// on a >20% drop against the committed BENCH_DB.json baseline. Never
// rewrites the file.

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "mpros/db/durable.hpp"
#include "mpros/oosm/object_model.hpp"
#include "mpros/oosm/persistence.hpp"
#include "mpros/oosm/ship_builder.hpp"

namespace {

using namespace mpros;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Scratch durability directory, wiped on entry and exit.
class BenchDir {
 public:
  explicit BenchDir(const std::string& tag) {
    path_ = fs::temp_directory_path() /
            ("mpros_bench_db_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~BenchDir() { fs::remove_all(path_); }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

db::TableSchema stream_schema() {
  return db::TableSchema{"stream",
                         {db::ColumnDef{"id", db::ValueType::Integer, false},
                          db::ColumnDef{"tag", db::ValueType::Text, false},
                          db::ColumnDef{"value", db::ValueType::Real, false}}};
}

// ---------------------------------------------------------------------------
// Part 1: group-commit throughput vs batch size.

struct CommitPoint {
  std::size_t batch = 0;
  std::uint64_t records = 0;
  std::uint64_t fsyncs = 0;
  double records_per_s = 0.0;
};

CommitPoint run_commit_sweep(std::size_t batch, std::uint64_t records) {
  BenchDir dir("commit_" + std::to_string(batch));
  db::DurabilityConfig cfg;
  cfg.directory = dir.str();
  cfg.checkpoint_bytes = 0;  // pure log append; compaction measured apart
  db::DurableDatabase dur(cfg);
  dur.db().create_table(stream_schema());
  dur.commit();  // schema out of the timed window

  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < records; ++i) {
    dur.db().insert_auto("stream",
                         {db::Value("vibration"),
                          db::Value(static_cast<double>(i) * 0.5)});
    if ((i + 1) % batch == 0) dur.commit();
  }
  if (records % batch != 0) dur.commit();
  const double elapsed = seconds_since(t0);

  CommitPoint p;
  p.batch = batch;
  p.records = records;
  p.fsyncs = dur.wal_stats().fsyncs;
  p.records_per_s = static_cast<double>(records) / elapsed;
  return p;
}

// ---------------------------------------------------------------------------
// Part 2: recovery time vs OOSM size.

struct RecoveryPoint {
  std::size_t reports = 0;
  std::size_t objects = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t records_replayed = 0;
  double recover_ms = 0.0;           ///< WAL replay + Persistence::load
  double replay_records_per_s = 0.0;
};

/// Journal a ship plus `reports` Report objects into a fresh WAL; commit
/// every 64 posts (the ShipSystem's per-barrier cadence writ small).
void populate(const std::string& dir, std::size_t reports) {
  db::DurabilityConfig cfg;
  cfg.directory = dir;
  cfg.checkpoint_bytes = 0;
  db::DurableDatabase dur(cfg);
  oosm::ObjectModel model;
  oosm::DurableModelJournal journal(model, dur.db());
  const auto ship = oosm::build_ship(model, "bench", 2, 2);
  for (std::size_t i = 0; i < reports; ++i) {
    const ObjectId report = model.create_object(
        "report-" + std::to_string(i), domain::EquipmentKind::Report);
    model.set_property(report, "belief",
                       0.25 + 0.5 * static_cast<double>(i % 3));
    model.set_property(report, "dc", std::int64_t(1 + i % 4));
    model.set_property(report, "ks", std::int64_t(1 + i % 4));
    model.set_property(report, "machine_condition", std::int64_t(2 + i % 5));
    model.set_property(report, "plausibility", 0.75);
    model.set_property(report, "severity", 0.4);
    model.set_property(report, "timestamp_us", std::int64_t(i) * 1000000);
    model.relate(report, oosm::Relation::RefersTo,
                 ship.plants[i % ship.plants.size()].motor);
    if ((i + 1) % 64 == 0) dur.commit();
  }
  dur.commit();
}

RecoveryPoint run_recovery(std::size_t reports) {
  BenchDir dir("recover_" + std::to_string(reports));
  populate(dir.str(), reports);

  const auto t0 = Clock::now();
  db::DurabilityConfig cfg;
  cfg.directory = dir.str();
  cfg.checkpoint_bytes = 0;
  db::DurableDatabase dur(cfg);  // construction replays the whole log
  const oosm::ObjectModel model = oosm::Persistence::load(dur.db());
  const double elapsed = seconds_since(t0);

  RecoveryPoint p;
  p.reports = reports;
  p.objects = model.object_count();
  p.wal_bytes = dur.wal_bytes();
  p.records_replayed = dur.recovery().records_replayed;
  p.recover_ms = elapsed * 1e3;
  p.replay_records_per_s =
      static_cast<double>(dur.recovery().records_replayed) / elapsed;
  return p;
}

// ---------------------------------------------------------------------------

void write_json(const std::vector<CommitPoint>& commits,
                const std::vector<RecoveryPoint>& recoveries,
                double replay_best) {
  std::FILE* f = std::fopen("BENCH_DB.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_db: cannot write BENCH_DB.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"experiment\": \"E22\",\n  \"group_commit\": [\n");
  for (std::size_t i = 0; i < commits.size(); ++i) {
    const CommitPoint& p = commits[i];
    std::fprintf(f,
                 "    {\"batch\": %zu, \"records\": %llu, \"fsyncs\": %llu, "
                 "\"records_per_s\": %.0f}%s\n",
                 p.batch, static_cast<unsigned long long>(p.records),
                 static_cast<unsigned long long>(p.fsyncs), p.records_per_s,
                 i + 1 < commits.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"recovery\": [\n");
  for (std::size_t i = 0; i < recoveries.size(); ++i) {
    const RecoveryPoint& p = recoveries[i];
    std::fprintf(f,
                 "    {\"reports\": %zu, \"objects\": %zu, "
                 "\"wal_bytes\": %llu, \"records_replayed\": %llu, "
                 "\"recover_ms\": %.2f, \"replay_records_per_s\": %.0f}%s\n",
                 p.reports, p.objects,
                 static_cast<unsigned long long>(p.wal_bytes),
                 static_cast<unsigned long long>(p.records_replayed),
                 p.recover_ms, p.replay_records_per_s,
                 i + 1 < recoveries.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"replay_records_per_s_best\": %.0f\n}\n",
               replay_best);
  std::fclose(f);
}

/// --quick: re-measure the fsync-free replay rate against the committed
/// baseline; exit nonzero on a >20% regression. Never rewrites the file.
int run_quick_gate() {
  double baseline = 0.0;
  std::FILE* f = std::fopen("BENCH_DB.json", "r");
  if (f != nullptr) {
    char buf[8192];
    const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
    buf[n] = '\0';
    std::fclose(f);
    const char* key = std::strstr(buf, "\"replay_records_per_s_best\"");
    if (key != nullptr) {
      std::sscanf(key, "\"replay_records_per_s_best\": %lf", &baseline);
    }
  }
  if (baseline <= 0.0) {
    std::printf("bench_db --quick: no BENCH_DB.json baseline here; "
                "nothing to gate against\n");
    return 0;
  }

  (void)run_recovery(500);  // warm-up (page cache, allocator)
  double best = 0.0;        // best-of-5: the gate runs on loaded CI machines
  for (int rep = 0; rep < 5; ++rep) {
    best = std::max(best, run_recovery(2000).replay_records_per_s);
  }
  const double floor = 0.8 * baseline;
  std::printf("bench_db --quick: WAL replay %.0f records/s "
              "(baseline %.0f/s, floor %.0f/s)\n", best, baseline, floor);
  if (best < floor) {
    std::fprintf(stderr,
                 "bench_db --quick: REGRESSION — more than 20%% below the "
                 "committed baseline\n");
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
      "\nE22 durable OOSM (group commit + crash recovery)\n"
      "  claim  : persistence 'managed entirely in the background' (§4.6)\n"
      "           survives a kill -9 with one fsync per barrier\n"
      "  shape  : records/s grows with commit batch (amortised fsync);\n"
      "           recovery wall time grows ~linearly with model size\n\n");

  std::vector<CommitPoint> commits;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{8},
                                  std::size_t{64}, std::size_t{512}}) {
    const CommitPoint p = run_commit_sweep(batch, 4096);
    std::printf("  group-commit batch %4zu : %9.0f records/s  (%llu fsyncs)\n",
                p.batch, p.records_per_s,
                static_cast<unsigned long long>(p.fsyncs));
    commits.push_back(p);
  }

  std::vector<RecoveryPoint> recoveries;
  double replay_best = 0.0;
  for (const std::size_t reports : {std::size_t{100}, std::size_t{1000},
                                    std::size_t{5000}}) {
    const RecoveryPoint p = run_recovery(reports);
    std::printf(
        "  recovery %5zu reports  : %8.2f ms  (%zu objects, %llu records, "
        "%.0f records/s replay)\n",
        p.reports, p.recover_ms, p.objects,
        static_cast<unsigned long long>(p.records_replayed),
        p.replay_records_per_s);
    recoveries.push_back(p);
    replay_best = std::max(replay_best, p.replay_records_per_s);
  }

  write_json(commits, recoveries, replay_best);
  std::printf("BENCH_DB.json written\n");
  return 0;
}
