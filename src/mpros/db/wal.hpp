#pragma once
// Write-ahead log for the embedded relational store.
//
// The durability half of the paper's §4.9 "long-term unattended operation"
// requirement: every mutation made through a journaled Database is encoded
// as a RedoOp and buffered; a *group commit* seals the buffered ops into one
// CRC-framed record and a single fsync makes the whole batch durable — one
// fsync per commit window, not per record. Recovery replays intact records
// in order and truncates the first torn or corrupt frame (and everything
// after it); decoding never aborts on hostile bytes.
//
// On-disk layout (all integers little-endian, mpros/common/codec.hpp):
//
//   "MWAL" u8 version                                  file header
//   { u32 payload_len | u32 crc32(payload) | payload } *    commit frames
//   payload := u64 commit_seq | u32 op_count | RedoOp*
//
// Thread-compatible: one writer (the OOSM/DC driver thread), like Database.

#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "mpros/common/codec.hpp"
#include "mpros/db/database.hpp"

namespace mpros::db {

inline constexpr std::uint8_t kWalVersion = 1;

// -- Record codec -------------------------------------------------------------
// Values, rows, schemas and redo ops over the shared little-endian codec;
// the snapshot encoding (snapshot.cpp) reuses them.

namespace walfmt {

void put_value(Writer& w, const Value& v);
void put_row(Writer& w, const Row& row);
void put_schema(Writer& w, const TableSchema& schema);
void put_op(Writer& w, const RedoOp& op);

/// Fail-soft reads: an unknown tag, an out-of-range enum or a count the
/// remaining bytes cannot possibly hold (a memory bomb, refused before any
/// allocation) fails `in` exactly like truncation does. Each returns
/// in.ok().
bool read_value(TryReader& in, Value& v);
bool read_row(TryReader& in, Row& row);
bool read_schema(TryReader& in, TableSchema& schema);
bool read_op(TryReader& in, RedoOp& op);

/// CRC-32 (IEEE 802.3 polynomial, table-driven) over `data`.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

}  // namespace walfmt

// -- The log ------------------------------------------------------------------

/// What recovery found in a log file.
struct WalReplayResult {
  std::uint64_t commits = 0;        ///< intact commit frames replayed
  std::uint64_t records = 0;        ///< redo ops applied
  std::uint64_t valid_bytes = 0;    ///< file prefix that decoded cleanly
  std::uint64_t truncated_bytes = 0;///< torn/corrupt tail past the prefix
  std::uint64_t last_seq = 0;       ///< newest commit sequence seen intact
  /// The file exists but could not be read: nothing was replayed, and
  /// there is no torn tail to cut.
  bool unreadable = false;
  /// True when `apply` rejected an op after earlier ops of the same frame
  /// were already applied — the target holds a partial commit and the
  /// caller must rebuild capped at last_seq.
  bool partial_frame = false;
};

class WriteAheadLog {
 public:
  /// Open `path` for appending (creating it, with a fresh header, if absent
  /// or header-torn). `next_seq` stamps the next sealed commit; recovery
  /// passes last replayed seq + 1. A log that exists but cannot be read is
  /// left as it is and stays closed (ok() false).
  explicit WriteAheadLog(std::string path, std::uint64_t next_seq = 1);
  /// A closed log: it buffers ops but never writes (ok() false).
  WriteAheadLog() = default;
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  [[nodiscard]] bool ok() const { return file_ != nullptr; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Buffer one op into the open commit batch and count it in the
  /// `wal.records` registry counter. No I/O.
  void append(const RedoOp& op);

  /// Frame the buffered ops as one commit record (still only in memory).
  /// Returns the commit's sequence number, or 0 if nothing was buffered.
  std::uint64_t seal();

  /// Group commit: write every sealed frame and fsync once. A no-op
  /// (returning true, no fsync) when nothing sealed is outstanding.
  bool sync();

  /// Post-checkpoint compaction: truncate the file to a bare header and
  /// continue stamping from `next_seq`. Discards buffered/sealed frames.
  bool reset(std::uint64_t next_seq);

  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }
  /// Bytes durable on disk (header + synced frames).
  [[nodiscard]] std::uint64_t bytes_on_disk() const { return synced_bytes_; }

  struct Stats {
    std::uint64_t commits = 0;  ///< sealed commit frames
    std::uint64_t records = 0;  ///< ops appended
    std::uint64_t fsyncs = 0;   ///< group-commit syncs issued
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Fail-soft replay: walk the log `bytes`, apply every intact commit with
  /// seq > `after_seq` through `apply(seq, op)`, stop at the first torn or
  /// corrupt frame. `apply` returning false poisons the tail the same way
  /// corruption does (the frame and everything after it is invalid).
  static WalReplayResult replay(
      std::span<const std::uint8_t> bytes, std::uint64_t after_seq,
      const std::function<bool(std::uint64_t, RedoOp&&)>& apply);

  /// replay() over the file at `path`. A missing file is an empty log, not
  /// an error; an unreadable one replays nothing and is marked `unreadable`.
  static WalReplayResult replay(
      const std::string& path, std::uint64_t after_seq,
      const std::function<bool(std::uint64_t, RedoOp&&)>& apply);

  /// Drop everything past the intact prefix `replay` found. Creates the
  /// file (bare header) when it was missing or the header itself was torn.
  /// Refuses (false) for an `unreadable` result.
  static bool truncate_torn_tail(const std::string& path,
                                 const WalReplayResult& result);

 private:
  bool write_header();

  std::string path_;
  std::FILE* file_ = nullptr;
  Writer pending_;  ///< ops of the open (unsealed) commit
  std::size_t pending_ops_ = 0;
  Writer sealed_;   ///< framed commits awaiting sync()
  std::uint64_t next_seq_ = 1;
  std::uint64_t synced_bytes_ = 0;
  Stats stats_;
};

}  // namespace mpros::db
