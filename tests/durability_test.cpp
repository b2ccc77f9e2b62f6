// Durability layer tests: WAL group commit, snapshot/checkpoint, crash
// recovery, and exhaustive torn-tail fuzz (truncation at every byte offset,
// single-byte corruption) — plus commit-vs-shadow property scripts.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mpros/db/durable.hpp"
#include "mpros/db/snapshot.hpp"
#include "mpros/db/wal.hpp"
#include "mpros/telemetry/metrics.hpp"

namespace mpros::db {
namespace {

namespace fs = std::filesystem;

/// Fresh directory under the system temp root, unique per test and process
/// (ctest runs tests in parallel), removed on teardown.
class TempDir {
 public:
  TempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = fs::temp_directory_path() /
            (std::string("mpros_dur_") + info->test_suite_name() + "_" +
             info->name() + "_" + std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }

  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

TableSchema crew_schema() {
  return TableSchema{"crew",
                     {ColumnDef{"id", ValueType::Integer, false},
                      ColumnDef{"name", ValueType::Text, false},
                      ColumnDef{"rank", ValueType::Integer, true},
                      ColumnDef{"score", ValueType::Real, true}}};
}

DurabilityConfig config_for(const TempDir& dir) {
  DurabilityConfig cfg;
  cfg.directory = dir.str();
  cfg.checkpoint_bytes = 0;  // explicit checkpoints only, unless a test asks
  return cfg;
}

std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Canonical fingerprint of a database's full contents (wal_seq pinned so
/// only the tables matter).
std::vector<std::uint8_t> fingerprint(const Database& db) {
  return encode_snapshot(db, 0);
}

// --- Group commit & reopen ---------------------------------------------------

TEST(DurableDatabaseTest, CommittedStateSurvivesReopen) {
  TempDir dir;
  Database shadow;
  shadow.create_table(crew_schema());
  shadow.insert_auto("crew", {Value("ada"), Value(std::int64_t{3}),
                              Value(0.9)});
  shadow.insert_auto("crew", {Value("bo"), Value(), Value()});

  {
    DurableDatabase durable(config_for(dir));
    durable.db().create_table(crew_schema());
    durable.db().insert_auto("crew", {Value("ada"), Value(std::int64_t{3}),
                                      Value(0.9)});
    durable.db().insert_auto("crew", {Value("bo"), Value(), Value()});
    EXPECT_TRUE(durable.commit());
  }  // crash: destructor does not flush

  DurableDatabase reopened(config_for(dir));
  EXPECT_EQ(reopened.recovery().commits_replayed, 1u);
  EXPECT_EQ(fingerprint(reopened.db()), fingerprint(shadow));
}

TEST(DurableDatabaseTest, UncommittedWindowIsGoneAfterCrash) {
  TempDir dir;
  {
    DurableDatabase durable(config_for(dir));
    durable.db().create_table(crew_schema());
    durable.db().insert_auto("crew", {Value("kept"), Value(), Value()});
    EXPECT_TRUE(durable.commit());
    // Buffered but never committed: lost by design.
    durable.db().insert_auto("crew", {Value("lost"), Value(), Value()});
  }
  DurableDatabase reopened(config_for(dir));
  EXPECT_EQ(reopened.db().table("crew").row_count(), 1u);
  EXPECT_EQ((*reopened.db().table("crew").find(1))[1].as_text(), "kept");
}

TEST(DurableDatabaseTest, GroupCommitIsOneFsyncPerWindow) {
  TempDir dir;
  DurableDatabase durable(config_for(dir));
  durable.db().create_table(crew_schema());
  for (int i = 0; i < 100; ++i) {
    durable.db().insert_auto(
        "crew", {Value("r" + std::to_string(i)), Value(), Value()});
  }
  EXPECT_TRUE(durable.commit());
  // 101 records (create_table + 100 inserts), ONE commit frame, ONE fsync.
  EXPECT_EQ(durable.wal_stats().records, 101u);
  EXPECT_EQ(durable.wal_stats().commits, 1u);
  EXPECT_EQ(durable.wal_stats().fsyncs, 1u);
  // An empty window costs nothing.
  EXPECT_TRUE(durable.commit());
  EXPECT_EQ(durable.wal_stats().fsyncs, 1u);
}

TEST(DurableDatabaseTest, RegistersTelemetryCounters) {
  auto& reg = telemetry::Registry::instance();
  const std::uint64_t commits_before = reg.counter("wal.commits").value();
  const std::uint64_t records_before = reg.counter("wal.records").value();
  const std::uint64_t fsyncs_before = reg.counter("wal.fsyncs").value();

  TempDir dir;
  {
    DurableDatabase durable(config_for(dir));
    durable.db().create_table(crew_schema());
    durable.db().insert_auto("crew", {Value("x"), Value(), Value()});
    EXPECT_TRUE(durable.commit());
  }
  EXPECT_EQ(reg.counter("wal.commits").value(), commits_before + 1);
  EXPECT_EQ(reg.counter("wal.records").value(), records_before + 2);
  EXPECT_EQ(reg.counter("wal.fsyncs").value(), fsyncs_before + 1);

  const std::uint64_t replayed_before =
      reg.counter("wal.replayed_records").value();
  DurableDatabase reopened(config_for(dir));
  EXPECT_EQ(reg.counter("wal.replayed_records").value(), replayed_before + 2);
}

// --- Snapshot & checkpoint ---------------------------------------------------

TEST(SnapshotTest, EncodeIsDeterministicAndRoundTrips) {
  Database db;
  db.create_table(crew_schema());
  db.create_index("crew", "name");
  db.insert_auto("crew", {Value("ada"), Value(std::int64_t{1}), Value(2.5)});
  db.insert_auto("crew", {Value("bo"), Value(), Value()});
  db.create_table(TableSchema{
      "log", {ColumnDef{"id", ValueType::Integer, false},
              ColumnDef{"note", ValueType::Text, false}}});
  db.insert("log", {Value(std::int64_t{42}), Value("hello")});

  const auto bytes = encode_snapshot(db, 7);
  EXPECT_EQ(bytes, encode_snapshot(db, 7));  // deterministic

  const auto decoded = decode_snapshot(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->wal_seq, 7u);
  EXPECT_EQ(encode_snapshot(decoded->db, 7), bytes);  // fixed point
  // Index declarations and auto-key counters survive.
  EXPECT_EQ(decoded->db.table("crew").indexed_columns(),
            std::vector<std::string>{"name"});
  EXPECT_EQ(decoded->db.table("crew").next_auto_key(),
            db.table("crew").next_auto_key());
}

TEST(SnapshotTest, EveryProperPrefixFailsToDecode) {
  Database db;
  db.create_table(crew_schema());
  db.insert_auto("crew", {Value("ada"), Value(std::int64_t{1}), Value(0.5)});
  const auto bytes = encode_snapshot(db, 3);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> prefix(bytes.begin(),
                                           bytes.begin() + len);
    EXPECT_FALSE(decode_snapshot(prefix).has_value()) << "prefix len " << len;
  }
  // Trailing garbage is rejected too.
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(decode_snapshot(padded).has_value());
}

TEST(DurableDatabaseTest, CheckpointCompactsLogAndPreservesState) {
  TempDir dir;
  std::vector<std::uint8_t> before;
  std::uint64_t wal_after_checkpoint = 0;
  {
    DurableDatabase durable(config_for(dir));
    durable.db().create_table(crew_schema());
    for (int i = 0; i < 50; ++i) {
      durable.db().insert_auto(
          "crew", {Value("r" + std::to_string(i)), Value(), Value()});
      EXPECT_TRUE(durable.commit());
    }
    const std::uint64_t wal_before = durable.wal_bytes();
    before = fingerprint(durable.db());
    EXPECT_TRUE(durable.checkpoint());
    wal_after_checkpoint = durable.wal_bytes();
    EXPECT_LT(wal_after_checkpoint, wal_before);
  }
  DurableDatabase reopened(config_for(dir));
  EXPECT_TRUE(reopened.recovery().snapshot_loaded);
  EXPECT_EQ(reopened.recovery().commits_replayed, 0u);
  EXPECT_EQ(fingerprint(reopened.db()), before);

  // And the snapshot+tail composition: more commits after the checkpoint
  // replay on top of the snapshot.
  reopened.db().insert_auto("crew", {Value("tail"), Value(), Value()});
  EXPECT_TRUE(reopened.commit());
  DurableDatabase again(config_for(dir));
  EXPECT_TRUE(again.recovery().snapshot_loaded);
  EXPECT_EQ(again.recovery().commits_replayed, 1u);
  EXPECT_EQ(again.db().table("crew").row_count(), 51u);
}

TEST(DurableDatabaseTest, AutoCheckpointByBytes) {
  TempDir dir;
  DurabilityConfig cfg = config_for(dir);
  cfg.checkpoint_bytes = 256;
  DurableDatabase durable(cfg);
  durable.db().create_table(crew_schema());
  ASSERT_TRUE(durable.commit());
  std::size_t rows = 0;
  while (!fs::exists(DurableDatabase::snapshot_path(dir.str())) && rows < 64) {
    durable.db().insert_auto("crew", {Value("x"), Value(), Value()});
    EXPECT_TRUE(durable.commit());
    ++rows;
  }
  // The commit that took the log past the budget triggered snapshot + log
  // compaction; earlier commits did not.
  ASSERT_TRUE(fs::exists(DurableDatabase::snapshot_path(dir.str())));
  EXPECT_GT(rows, 1u);
  EXPECT_LT(durable.wal_bytes(), cfg.checkpoint_bytes);
  DurableDatabase reopened(cfg);
  EXPECT_TRUE(reopened.recovery().snapshot_loaded);
  EXPECT_EQ(reopened.recovery().commits_replayed, 0u);
  EXPECT_EQ(reopened.db().table("crew").row_count(), rows);
}

TEST(DurableDatabaseTest, CorruptSnapshotFailsSoftToEmpty) {
  TempDir dir;
  {
    DurableDatabase durable(config_for(dir));
    durable.db().create_table(crew_schema());
    durable.db().insert_auto("crew", {Value("x"), Value(), Value()});
    EXPECT_TRUE(durable.commit());
    EXPECT_TRUE(durable.checkpoint());
  }
  // Tear the snapshot (every proper prefix fails to decode): recovery must
  // not abort — it falls back to an empty store (the compacted WAL no
  // longer re-derives state on its own).
  const auto snap = read_file(DurableDatabase::snapshot_path(dir.str()));
  ASSERT_GT(snap.size(), 16u);
  write_file(DurableDatabase::snapshot_path(dir.str()),
             {snap.begin(),
              snap.begin() + static_cast<std::ptrdiff_t>(snap.size() - 3)});
  DurableDatabase reopened(config_for(dir));
  EXPECT_FALSE(reopened.recovery().snapshot_loaded);
}

// --- Exhaustive WAL-tail fuzz ------------------------------------------------

/// Build a reference run in `dir` and return the fingerprint after each
/// commit (index 0 = empty store), so fuzzed recoveries can be checked for
/// the prefix property: whatever the mutilation, the recovered state IS one
/// of the states that was once group-committed.
std::vector<std::vector<std::uint8_t>> build_reference_run(TempDir& dir) {
  std::vector<std::vector<std::uint8_t>> states;
  states.push_back(fingerprint(Database{}));

  DurableDatabase durable(config_for(dir));
  Database& db = durable.db();

  db.create_table(crew_schema());
  db.create_index("crew", "name");
  db.insert_auto("crew", {Value("ada"), Value(std::int64_t{1}), Value(0.1)});
  EXPECT_TRUE(durable.commit());
  states.push_back(fingerprint(db));

  db.insert_auto("crew", {Value("bo"), Value(std::int64_t{2}), Value()});
  db.insert_auto("crew", {Value("cy"), Value(), Value(2.5)});
  EXPECT_TRUE(durable.commit());
  states.push_back(fingerprint(db));

  db.update("crew", 1, "score", Value(0.9));
  db.erase("crew", 2);
  EXPECT_TRUE(durable.commit());
  states.push_back(fingerprint(db));

  db.create_table(TableSchema{
      "log", {ColumnDef{"id", ValueType::Integer, false},
              ColumnDef{"note", ValueType::Text, false}}});
  db.insert("log", {Value(std::int64_t{7}), Value("last")});
  EXPECT_TRUE(durable.commit());
  states.push_back(fingerprint(db));
  return states;
}

TEST(WalFuzzTest, TruncationAtEveryOffsetRecoversACommittedPrefix) {
  TempDir dir;
  const auto states = build_reference_run(dir);
  const std::set<std::vector<std::uint8_t>> valid(states.begin(),
                                                  states.end());
  const auto wal = read_file(DurableDatabase::wal_path(dir.str()));
  ASSERT_GT(wal.size(), 16u);

  TempDir scratch;
  std::size_t full_prefixes = 0;
  for (std::size_t len = 0; len <= wal.size(); ++len) {
    write_file(DurableDatabase::wal_path(scratch.str()),
               {wal.begin(), wal.begin() + static_cast<std::ptrdiff_t>(len)});
    DurableDatabase recovered(config_for(scratch));
    const auto got = fingerprint(recovered.db());
    ASSERT_TRUE(valid.count(got) == 1) << "truncation at byte " << len;
    if (got == states.back()) ++full_prefixes;
    // Monotone: dropping bytes never recovers MORE commits.
    ASSERT_LE(recovered.recovery().commits_replayed, states.size() - 1);
  }
  // Only the untouched file (and nothing shorter) yields the final state.
  EXPECT_EQ(full_prefixes, 1u);
}

TEST(WalFuzzTest, SingleByteCorruptionAtEveryOffsetRecoversAPrefix) {
  TempDir dir;
  const auto states = build_reference_run(dir);
  const std::set<std::vector<std::uint8_t>> valid(states.begin(),
                                                  states.end());
  const auto wal = read_file(DurableDatabase::wal_path(dir.str()));

  TempDir scratch;
  for (std::size_t pos = 0; pos < wal.size(); ++pos) {
    auto mutated = wal;
    mutated[pos] ^= 0x5A;
    write_file(DurableDatabase::wal_path(scratch.str()), mutated);
    DurableDatabase recovered(config_for(scratch));
    ASSERT_TRUE(valid.count(fingerprint(recovered.db())) == 1)
        << "corruption at byte " << pos;
  }
}

TEST(WalFuzzTest, RecoveryTruncatesTornTailAndKeepsAppending) {
  TempDir dir;
  const auto states = build_reference_run(dir);
  const auto wal = read_file(DurableDatabase::wal_path(dir.str()));

  // Tear the last frame in half, recover, then commit NEW work on top; the
  // log stays coherent (reopen number two sees old prefix + new commit).
  write_file(DurableDatabase::wal_path(dir.str()),
             {wal.begin(),
              wal.begin() + static_cast<std::ptrdiff_t>(wal.size() - 9)});
  std::vector<std::uint8_t> expected;
  {
    DurableDatabase recovered(config_for(dir));
    EXPECT_GT(recovered.recovery().truncated_bytes, 0u);
    recovered.db().insert_auto("crew",
                               {Value("fresh"), Value(), Value()});
    EXPECT_TRUE(recovered.commit());
    expected = fingerprint(recovered.db());
  }
  DurableDatabase reopened(config_for(dir));
  EXPECT_EQ(fingerprint(reopened.db()), expected);
}

// --- Commit-under-interleaving property scripts ------------------------------

TEST(DurabilityPropertyTest, ScriptedInterleavingsMatchShadowAndSurviveCrash) {
  TempDir dir;
  std::mt19937_64 rng(0x5417C0FFEEULL);
  const auto pick_key = [&](const Database& db) -> std::int64_t {
    const auto& rows = db.table("crew").rows();
    if (rows.empty()) return -1;
    auto it = rows.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng() % rows.size()));
    return it->first;
  };

  Database shadow;
  shadow.create_table(crew_schema());
  shadow.create_index("crew", "rank");
  std::vector<std::uint8_t> committed;  // fingerprint at the last commit()

  {
    DurableDatabase durable(config_for(dir));
    durable.db().create_table(crew_schema());
    durable.db().create_index("crew", "rank");

    for (int round = 0; round < 60; ++round) {
      // Script the round's ops concretely so the keeper replay into the
      // shadow uses identical keys/values.
      const int op_count = 1 + static_cast<int>(rng() % 4);
      for (int o = 0; o < op_count; ++o) {
        switch (rng() % 3) {
          case 0: {
            Row row{Value("p" + std::to_string(rng() % 100)),
                    Value(static_cast<std::int64_t>(rng() % 10)),
                    Value(static_cast<double>(rng() % 1000) / 8.0)};
            durable.db().insert_auto("crew", row);
            shadow.insert_auto("crew", row);
            break;
          }
          case 1: {
            const std::int64_t key = pick_key(durable.db());
            if (key < 0) break;
            const Value v(static_cast<std::int64_t>(rng() % 10));
            durable.db().update("crew", key, "rank", v);
            shadow.update("crew", key, "rank", v);
            break;
          }
          case 2: {
            const std::int64_t key = pick_key(durable.db());
            if (key < 0) break;
            durable.db().erase("crew", key);
            shadow.erase("crew", key);
            break;
          }
        }
      }

      // The live store tracks the shadow after every round.
      ASSERT_EQ(fingerprint(durable.db()), fingerprint(shadow))
          << "round " << round;

      if (rng() % 4 == 0) {
        ASSERT_TRUE(durable.commit());
        committed = fingerprint(durable.db());
      }
    }
    ASSERT_TRUE(durable.commit());
    committed = fingerprint(durable.db());
  }  // crash

  DurableDatabase recovered(config_for(dir));
  EXPECT_EQ(fingerprint(recovered.db()), committed);
  EXPECT_EQ(fingerprint(recovered.db()), fingerprint(shadow));
}

// --- Index declarations from outside input -----------------------------------

TEST(WalFuzzTest, CreateIndexOnUnknownColumnOrTableCutsTheTail) {
  // A CRC-valid frame whose create-index names a column or a table the
  // store does not have is refused by apply_redo: recovery stops there and
  // drops that frame and everything after it, as it does for torn bytes.
  const std::pair<const char*, const char*> bad[] = {{"crew", "nope"},
                                                     {"ghost", "name"}};
  for (const auto& [table, column] : bad) {
    TempDir dir;
    std::vector<std::uint8_t> committed;
    std::uint64_t good_bytes = 0;
    {
      DurableDatabase durable(config_for(dir));
      durable.db().create_table(crew_schema());
      durable.db().insert_auto("crew", {Value("ada"), Value(), Value()});
      ASSERT_TRUE(durable.commit());
      committed = fingerprint(durable.db());
      good_bytes = durable.wal_bytes();
    }
    {
      WriteAheadLog wal(DurableDatabase::wal_path(dir.str()), 2);
      RedoOp create_index;
      create_index.kind = RedoOp::Kind::CreateIndex;
      create_index.table = table;
      create_index.column = column;
      wal.append(create_index);
      wal.seal();
      RedoOp insert;
      insert.kind = RedoOp::Kind::Insert;
      insert.table = "crew";
      insert.key = 2;
      insert.row = {Value(std::int64_t{2}), Value("bo"), Value(), Value()};
      wal.append(insert);
      wal.seal();
      ASSERT_TRUE(wal.sync());
    }
    const std::uint64_t wal_size =
        fs::file_size(DurableDatabase::wal_path(dir.str()));

    const Recovered r = recover_directory(dir.str());
    EXPECT_EQ(r.wal.commits, 1u) << table << "." << column;
    EXPECT_EQ(r.wal.last_seq, 1u);
    EXPECT_EQ(r.wal.valid_bytes, good_bytes);
    EXPECT_EQ(r.wal.truncated_bytes, wal_size - good_bytes);
    EXPECT_FALSE(r.wal.partial_frame);
    EXPECT_EQ(fingerprint(r.db), committed);

    DurableDatabase recovered(config_for(dir));
    EXPECT_EQ(fingerprint(recovered.db()), committed);
    EXPECT_TRUE(recovered.db().table("crew").indexed_columns().empty());
    EXPECT_EQ(fs::file_size(DurableDatabase::wal_path(dir.str())),
              good_bytes);
  }
}


// --- Read errors are not empty files ----------------------------------------
// fopen("rb") succeeds on a directory and fread then fails with EISDIR: the
// cheapest real read error. Recovery must report it and touch nothing.

TEST(DurableDatabaseTest, UnreadableWalIsReportedAndLeftUntouched) {
  TempDir dir;
  {
    DurableDatabase durable(config_for(dir));
    durable.db().create_table(crew_schema());
    durable.db().insert_auto("crew", {Value("ada"), Value(), Value()});
    ASSERT_TRUE(durable.checkpoint());
  }
  const fs::path snap = DurableDatabase::snapshot_path(dir.str());
  const auto snapshot = read_file(snap);
  const fs::path wal = DurableDatabase::wal_path(dir.str());
  fs::remove(wal);
  fs::create_directories(wal / "keep");

  DurableDatabase durable(config_for(dir));
  EXPECT_NE(durable.recovery().io_error.find("db.wal"), std::string::npos)
      << durable.recovery().io_error;
  // Nothing buffered yet: a checkpoint must still not replace the
  // snapshot with the empty store recovery fell back to.
  EXPECT_FALSE(durable.checkpoint());
  durable.db().create_table(crew_schema());
  EXPECT_FALSE(durable.commit());

  EXPECT_TRUE(fs::is_directory(wal / "keep"));
  EXPECT_EQ(read_file(snap), snapshot);
}

TEST(DurableDatabaseTest, UnreadableSnapshotIsReportedAndNotOverwritten) {
  TempDir dir;
  {
    DurableDatabase durable(config_for(dir));
    durable.db().create_table(crew_schema());
    durable.db().insert_auto("crew", {Value("ada"), Value(), Value()});
    ASSERT_TRUE(durable.commit());
  }
  const fs::path snap = DurableDatabase::snapshot_path(dir.str());
  fs::create_directories(snap / "keep");
  const auto wal = read_file(DurableDatabase::wal_path(dir.str()));

  DurableDatabase reopened(config_for(dir));
  EXPECT_NE(reopened.recovery().io_error.find("db.snapshot"),
            std::string::npos)
      << reopened.recovery().io_error;
  EXPECT_FALSE(reopened.recovery().snapshot_loaded);
  reopened.db().create_table(crew_schema());
  EXPECT_FALSE(reopened.commit());
  EXPECT_FALSE(reopened.checkpoint());

  EXPECT_TRUE(fs::is_directory(snap / "keep"));
  EXPECT_EQ(read_file(DurableDatabase::wal_path(dir.str())), wal);
}

// --- recover_directory: the one recovery routine, read-only ------------------

TEST(RecoverDirectoryTest, TornTailIsReportedButNotCut) {
  TempDir dir;
  {
    DurableDatabase durable(config_for(dir));
    durable.db().create_table(crew_schema());
    ASSERT_TRUE(durable.commit());
    durable.db().insert_auto("crew", {Value("ada"), Value(), Value()});
    ASSERT_TRUE(durable.commit());
  }
  const fs::path wal = DurableDatabase::wal_path(dir.str());
  auto bytes = read_file(wal);
  bytes.resize(bytes.size() - 3);
  write_file(wal, bytes);

  const Recovered r = recover_directory(dir.str());
  EXPECT_TRUE(r.report.io_error.empty());
  EXPECT_EQ(r.report.commits_replayed, 1u);
  EXPECT_GT(r.report.truncated_bytes, 0u);
  EXPECT_EQ(r.report.truncated_bytes, r.wal.truncated_bytes);
  EXPECT_TRUE(r.db.has_table("crew"));
  EXPECT_EQ(r.db.table("crew").row_count(), 0u);
  EXPECT_EQ(read_file(wal), bytes);  // nothing on disk changed

  // The live store, built on the same routine, does cut the tail.
  DurableDatabase live(config_for(dir));
  EXPECT_EQ(live.recovery().truncated_bytes, r.report.truncated_bytes);
  EXPECT_EQ(fingerprint(live.db()), fingerprint(r.db));
  EXPECT_LT(read_file(wal).size(), bytes.size());
}

TEST(RecoverDirectoryTest, MalformedSnapshotIsReportedApartFromMissing) {
  TempDir dir;
  EXPECT_FALSE(recover_directory(dir.str()).report.snapshot_malformed);
  {
    DurableDatabase durable(config_for(dir));
    durable.db().create_table(crew_schema());
    ASSERT_TRUE(durable.checkpoint());
  }
  const fs::path snap = DurableDatabase::snapshot_path(dir.str());
  const Recovered clean = recover_directory(dir.str());
  EXPECT_TRUE(clean.report.snapshot_loaded);
  EXPECT_FALSE(clean.report.snapshot_malformed);

  auto bytes = read_file(snap);
  bytes.push_back(0x00);  // trailing garbage
  write_file(snap, bytes);
  const Recovered r = recover_directory(dir.str());
  EXPECT_TRUE(r.report.io_error.empty());
  EXPECT_FALSE(r.report.snapshot_loaded);
  EXPECT_TRUE(r.report.snapshot_malformed);
  EXPECT_EQ(read_file(snap), bytes);
}

}  // namespace
}  // namespace mpros::db
