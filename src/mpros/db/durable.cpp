#include "mpros/db/durable.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <span>
#include <utility>

#include "mpros/common/assert.hpp"
#include "mpros/common/file.hpp"
#include "mpros/common/log.hpp"
#include "mpros/db/snapshot.hpp"
#include "mpros/telemetry/metrics.hpp"

namespace mpros::db {

namespace {

struct WalCounters {
  telemetry::Counter& commits;
  telemetry::Counter& fsyncs;
  telemetry::Counter& replayed_commits;
  telemetry::Counter& replayed_records;
  telemetry::Counter& truncated_bytes;
  telemetry::Counter& snapshots_written;

  static WalCounters& instance() {
    auto& reg = telemetry::Registry::instance();
    static WalCounters c{reg.counter("wal.commits"),
                         reg.counter("wal.fsyncs"),
                         reg.counter("wal.replayed_commits"),
                         reg.counter("wal.replayed_records"),
                         reg.counter("wal.truncated_bytes"),
                         reg.counter("wal.snapshots_written")};
    return c;
  }
};

}  // namespace

std::string DurableDatabase::snapshot_path(const std::string& directory) {
  return (std::filesystem::path(directory) / "db.snapshot").string();
}

std::string DurableDatabase::wal_path(const std::string& directory) {
  return (std::filesystem::path(directory) / "db.wal").string();
}

namespace {

/// Load the snapshot bytes (if any) into `r`, then replay `wal` past it,
/// applying no commit newer than `cap`.
void load(Recovered& r, const FileRead& snapshot,
          std::span<const std::uint8_t> wal, std::uint64_t cap) {
  r.db = Database();
  r.report = RecoveryReport();
  if (snapshot.ok()) {
    if (std::optional<DecodedSnapshot> loaded = decode_snapshot(snapshot.bytes)) {
      r.db = std::move(loaded->db);
      r.report.snapshot_loaded = true;
      r.report.snapshot_seq = loaded->wal_seq;
    } else {
      r.report.snapshot_malformed = true;
    }
  }
  Database& db = r.db;
  r.wal = WriteAheadLog::replay(
      wal, r.report.snapshot_seq, [&db, cap](std::uint64_t seq, RedoOp&& op) {
        return seq <= cap && apply_redo(db, std::move(op));
      });
}

}  // namespace

Recovered recover_directory(const std::string& directory) {
  Recovered r;
  const std::string snap_path = DurableDatabase::snapshot_path(directory);
  const std::string wal_path = DurableDatabase::wal_path(directory);
  const FileRead snapshot = read_file(snap_path);
  const FileRead wal = read_file(wal_path);
  for (const auto& [path, file] : {std::pair(&snap_path, &snapshot),
                                   std::pair(&wal_path, &wal)}) {
    if (file->status == FileRead::Status::Unreadable) {
      r.report.io_error =
          "cannot read " + *path + ": " + std::strerror(file->error);
      return r;
    }
  }

  load(r, snapshot, wal.bytes, std::numeric_limits<std::uint64_t>::max());
  if (r.wal.partial_frame) {
    // A CRC-valid frame carried an inadmissible op and its earlier ops
    // already landed: rebuild, replaying only the frames that applied
    // whole. The capped pass stops at the same frame, so its result
    // matches the first pass's but for the flag.
    load(r, snapshot, wal.bytes, r.wal.last_seq);
    r.wal.partial_frame = true;
  }
  r.report.commits_replayed = r.wal.commits;
  r.report.records_replayed = r.wal.records;
  r.report.truncated_bytes = r.wal.truncated_bytes;
  r.report.recovered_seq = std::max(r.report.snapshot_seq, r.wal.last_seq);
  return r;
}

DurableDatabase::DurableDatabase(DurabilityConfig config)
    : config_(std::move(config)) {
  std::error_code ec;
  std::filesystem::create_directories(config_.directory, ec);
  if (ec) {
    MPROS_LOG_ERROR("db", "durable: cannot create %s: %s",
                    config_.directory.c_str(), ec.message().c_str());
  }
  recover();
  db_.attach_journal(wal_.get());
}

DurableDatabase::~DurableDatabase() {
  db_.attach_journal(nullptr);
  // No flush: uncommitted work is not durable, which is the contract.
}

void DurableDatabase::recover() {
  Recovered r = recover_directory(config_.directory);
  db_ = std::move(r.db);
  recovery_ = std::move(r.report);
  const std::string wal = wal_path(config_.directory);

  if (!recovery_.io_error.empty()) {
    MPROS_LOG_ERROR("db", "durable: %s; leaving the directory untouched",
                    recovery_.io_error.c_str());
    wal_ = std::make_unique<WriteAheadLog>();
    return;
  }
  if (recovery_.snapshot_malformed) {
    MPROS_LOG_WARN("db", "durable: snapshot %s malformed, replaying full WAL",
                   snapshot_path(config_.directory).c_str());
  }
  if (r.wal.partial_frame) {
    MPROS_LOG_WARN("db", "durable: %s holds a partial commit, rebuilt",
                   wal.c_str());
  }
  if (recovery_.truncated_bytes > 0) {
    MPROS_LOG_WARN("db",
                   "durable: dropping %llu torn bytes from %s "
                   "(recovered through commit %llu)",
                   static_cast<unsigned long long>(recovery_.truncated_bytes),
                   wal.c_str(),
                   static_cast<unsigned long long>(recovery_.recovered_seq));
  }
  if (!WriteAheadLog::truncate_torn_tail(wal, r.wal)) {
    MPROS_LOG_ERROR("db", "durable: cannot truncate %s", wal.c_str());
  }

  WalCounters& counters = WalCounters::instance();
  counters.replayed_commits.inc(recovery_.commits_replayed);
  counters.replayed_records.inc(recovery_.records_replayed);
  counters.truncated_bytes.inc(recovery_.truncated_bytes);

  wal_ = std::make_unique<WriteAheadLog>(wal, recovery_.recovered_seq + 1);
}

bool DurableDatabase::commit() {
  WalCounters& counters = WalCounters::instance();
  if (wal_->seal() != 0) counters.commits.inc();
  const std::uint64_t fsyncs_before = wal_->stats().fsyncs;
  if (!wal_->sync()) return false;
  counters.fsyncs.inc(wal_->stats().fsyncs - fsyncs_before);

  if (config_.checkpoint_bytes != 0 &&
      wal_->bytes_on_disk() >= config_.checkpoint_bytes) {
    return checkpoint();
  }
  return true;
}

bool DurableDatabase::checkpoint() {
  // A closed log (unreadable directory, failed reopen) must not let a
  // snapshot overwrite what recovery could not read.
  if (!wal_->ok()) return false;
  if (wal_->seal() != 0) WalCounters::instance().commits.inc();
  if (!wal_->sync()) return false;

  const std::uint64_t covered = wal_->next_seq() - 1;
  if (!write_snapshot(db_, covered, snapshot_path(config_.directory))) {
    return false;
  }
  WalCounters::instance().snapshots_written.inc();
  return wal_->reset(wal_->next_seq());
}

}  // namespace mpros::db
