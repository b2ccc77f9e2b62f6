#pragma once
// DurableDatabase: a Database whose every mutation survives a crash.
//
// Construction IS recovery: recover_directory() loads the latest snapshot
// (if any) and replays the WAL tail past it; the live store then truncates
// whatever torn/corrupt suffix the crash left and reopens the log for
// appending. A file that exists but cannot be read is never truncated or
// recreated: the store reports it (RecoveryReport::io_error) and refuses
// to commit. From then on its Database appends every mutation made
// through it straight to the write-ahead log; commit() group-commits the
// window (one fsync) and checkpoints — snapshot + log compaction — when the
// log outgrows the configured budget.
//
// Crash semantics: anything not yet commit()ed is gone, by design; the
// destructor deliberately does not flush. Thread-compatible, same as
// Database (single driver thread).

#include <cstdint>
#include <memory>
#include <string>

#include "mpros/db/database.hpp"
#include "mpros/db/wal.hpp"

namespace mpros::db {

struct DurabilityConfig {
  std::string directory;  ///< holds db.snapshot + db.wal
  /// Checkpoint when the synced log exceeds this many bytes (0 = never).
  std::uint64_t checkpoint_bytes = 4u << 20;
};

/// What recovery found on disk.
struct RecoveryReport {
  bool snapshot_loaded = false;
  bool snapshot_malformed = false;      ///< db.snapshot exists, won't decode
  std::uint64_t snapshot_seq = 0;       ///< WAL seq the snapshot covered
  std::uint64_t commits_replayed = 0;
  std::uint64_t records_replayed = 0;
  std::uint64_t truncated_bytes = 0;    ///< torn/corrupt WAL tail dropped
  std::uint64_t recovered_seq = 0;      ///< last durable commit sequence
  /// Empty unless db.snapshot or db.wal exists but could not be read; then
  /// nothing was loaded and nothing on disk may be changed.
  std::string io_error;
};

/// A durability directory's content, rebuilt in memory.
struct Recovered {
  Database db;
  RecoveryReport report;
  WalReplayResult wal;  ///< how far the log decoded, and whether it tore
};

/// Read-only recovery of `directory`: read db.snapshot and db.wal once
/// each, load the snapshot, replay the WAL tail past it, and after a
/// partial commit rebuild capped at the last frame that applied whole —
/// all from the bytes in memory. Nothing on disk changes; DurableDatabase
/// builds on this, and mpros_dbtool calls it directly.
[[nodiscard]] Recovered recover_directory(const std::string& directory);

class DurableDatabase {
 public:
  explicit DurableDatabase(DurabilityConfig config);
  ~DurableDatabase();

  DurableDatabase(const DurableDatabase&) = delete;
  DurableDatabase& operator=(const DurableDatabase&) = delete;

  [[nodiscard]] Database& db() { return db_; }
  [[nodiscard]] const Database& db() const { return db_; }
  [[nodiscard]] const RecoveryReport& recovery() const { return recovery_; }

  /// Group commit: seal the buffered window and fsync once; then
  /// checkpoint if the log outgrew the budget. False on I/O error.
  bool commit();

  /// Explicit snapshot + log compaction (commit()s first).
  bool checkpoint();

  [[nodiscard]] std::uint64_t wal_bytes() const {
    return wal_->bytes_on_disk();
  }
  [[nodiscard]] const WriteAheadLog::Stats& wal_stats() const {
    return wal_->stats();
  }

  [[nodiscard]] static std::string snapshot_path(const std::string& directory);
  [[nodiscard]] static std::string wal_path(const std::string& directory);

 private:
  void recover();

  DurabilityConfig config_;
  Database db_;
  RecoveryReport recovery_;
  std::unique_ptr<WriteAheadLog> wal_;
};

}  // namespace mpros::db
