// Golden corpus: on-disk files recorded by an earlier build, committed under
// tests/data, decoded and re-encoded by this one. A change to any byte
// layout (WAL frame, snapshot, flight-recorder dump) or to recovery fails
// here; an intentional format change re-records the corpus (see
// tests/data/README.md).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "mpros/db/durable.hpp"
#include "mpros/db/snapshot.hpp"
#include "mpros/mpros/mpros.hpp"
#include "mpros/mpros/replay.hpp"
#include "mpros/telemetry/recorder.hpp"

namespace mpros {
namespace {

const std::string kData = MPROS_CORPUS_DIR;

std::vector<std::uint8_t> bytes_of(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string text_of(const std::string& path) {
  const std::vector<std::uint8_t> b = bytes_of(path);
  return {b.begin(), b.end()};
}

TEST(GoldenCorpusTest, SnapshotReencodesToItsOwnBytes) {
  const std::vector<std::uint8_t> snap = bytes_of(kData + "/durable/db.snapshot");
  const auto decoded = db::decode_snapshot(snap);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(db::encode_snapshot(decoded->db, decoded->wal_seq), snap);
}

TEST(GoldenCorpusTest, DurableDirectoryRecoversToRecordedStore) {
  const db::Recovered r = db::recover_directory(kData + "/durable");
  EXPECT_TRUE(r.report.io_error.empty()) << r.report.io_error;
  EXPECT_TRUE(r.report.snapshot_loaded);
  EXPECT_EQ(r.report.snapshot_seq, 2u);
  EXPECT_EQ(r.report.commits_replayed, 4u);
  EXPECT_EQ(r.report.records_replayed, 8u);
  EXPECT_EQ(r.report.truncated_bytes, 0u);
  EXPECT_FALSE(r.wal.partial_frame);
  EXPECT_EQ(db::encode_snapshot(r.db, r.report.recovered_seq),
            bytes_of(kData + "/durable.recovered.snapshot"));
}

TEST(GoldenCorpusTest, DamagedCopiesAreReportedAsDamage) {
  const db::Recovered torn = db::recover_directory(kData + "/durable-torn");
  EXPECT_TRUE(torn.report.io_error.empty());
  EXPECT_GT(torn.report.truncated_bytes, 0u);
  EXPECT_EQ(torn.report.commits_replayed, 3u);

  const db::Recovered bad = db::recover_directory(kData + "/durable-badsnap");
  EXPECT_TRUE(bad.report.io_error.empty());
  EXPECT_TRUE(bad.report.snapshot_malformed);
  EXPECT_FALSE(bad.report.snapshot_loaded);
}

TEST(GoldenCorpusTest, ShipDirectoryRecoversToRecordedRender) {
  // ship-durable/ holds a durable ship's store at its 3600-s barrier (see
  // tests/data/README.md); a ShipSystem built over a copy adopts it and
  // shows the operator what the live ship showed.
  namespace fs = std::filesystem;
  const fs::path copy =
      fs::temp_directory_path() /
      ("mpros_corpus_ship_" + std::to_string(::getpid()));
  fs::remove_all(copy);
  fs::copy(kData + "/ship-durable", copy, fs::copy_options::recursive);
  {
    ShipSystemConfig cfg;
    cfg.plant_count = 2;
    cfg.dc_template.vibration_period = SimTime::from_seconds(600);
    cfg.dc_template.process_period = SimTime::from_seconds(60);
    cfg.worker_threads = 2;
    cfg.seed = 0xC4A5;
    cfg.enable_durability = true;
    cfg.durability.directory = copy.string();
    cfg.durability.checkpoint_bytes = 0;
    ShipSystem ship(cfg);
    ASSERT_TRUE(ship.recovered());
    EXPECT_EQ(ship.now().micros(), SimTime::from_seconds(3600).micros());
    EXPECT_EQ(pdme::render_summary(ship.pdme(), ship.model()),
              text_of(kData + "/ship-durable.summary.txt"));
    EXPECT_EQ(pdme::export_icas_csv(ship.pdme(), ship.model()),
              text_of(kData + "/ship-durable.icas.csv"));
  }
  fs::remove_all(copy);
}

TEST(GoldenCorpusTest, ShipDirectoryKeepsItsIndexDeclarationsThroughACheckpoint) {
  // ship-durable/'s snapshot declares two indexes that the journal no
  // longer creates. A ship recovered from a copy carries them, and the
  // snapshot its next checkpoint writes declares them again.
  namespace fs = std::filesystem;
  const fs::path copy =
      fs::temp_directory_path() /
      ("mpros_corpus_ship_checkpoint_" + std::to_string(::getpid()));
  fs::remove_all(copy);
  fs::copy(kData + "/ship-durable", copy, fs::copy_options::recursive);
  {
    ShipSystemConfig cfg;
    cfg.plant_count = 2;
    cfg.dc_template.vibration_period = SimTime::from_seconds(600);
    cfg.dc_template.process_period = SimTime::from_seconds(60);
    cfg.worker_threads = 2;
    cfg.seed = 0xC4A5;
    cfg.enable_durability = true;
    cfg.durability.directory = copy.string();
    cfg.durability.checkpoint_bytes = 0;
    ShipSystem ship(cfg);
    ASSERT_TRUE(ship.recovered());
    ASSERT_TRUE(ship.durable()->checkpoint());

    auto snapshot =
        db::decode_snapshot(bytes_of((copy / "db.snapshot").string()));
    ASSERT_TRUE(snapshot.has_value());
    for (const db::Database* store : {&ship.durable()->db(), &snapshot->db}) {
      EXPECT_EQ(store->table("oosm_properties").indexed_columns(),
                std::vector<std::string>{"object_id"});
      EXPECT_EQ(store->table("oosm_relations").indexed_columns(),
                std::vector<std::string>{"from_id"});
    }
  }
  fs::remove_all(copy);
}

TEST(GoldenCorpusTest, RecordingReencodesAndReplaysToRecordedSummary) {
  const std::string path = kData + "/motor_imbalance.mfr";
  const auto dump = telemetry::FlightRecorder::load(path);
  ASSERT_TRUE(dump.has_value());

  telemetry::FlightRecorder again(dump->frames.size());
  again.set_header(dump->header);
  for (const telemetry::RecorderFrame& f : dump->frames) {
    if (f.kind == telemetry::FrameKind::Event) {
      ASSERT_TRUE(f.to.empty());
      again.record_event(f.time_us, f.from,
                         std::string(f.payload.begin(), f.payload.end()));
    } else {
      again.record_message(f.time_us, f.from, f.to, f.payload);
    }
  }
  EXPECT_EQ(again.encode(), bytes_of(path));

  const auto replayed = replay_recording(*dump);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(replayed->summary, text_of(kData + "/motor_imbalance.summary.txt"));
  EXPECT_EQ(replayed->malformed, 0u);
}

}  // namespace
}  // namespace mpros
