// Golden corpus: on-disk files recorded by an earlier build, committed under
// tests/data, decoded and re-encoded by this one. A change to any byte
// layout (WAL frame, snapshot, flight-recorder dump) or to recovery fails
// here; an intentional format change re-records the corpus (see
// tests/data/README.md).

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "mpros/db/durable.hpp"
#include "mpros/db/snapshot.hpp"
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
  EXPECT_TRUE(r.db.integrity_violations().empty());
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
