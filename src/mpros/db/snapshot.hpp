#pragma once
// Point-in-time snapshot of a whole Database, for WAL compaction.
//
// A checkpoint writes the full store (schemas, auto-key counters, declared
// index columns, rows) plus the WAL sequence it covers; recovery loads the
// snapshot and replays only the WAL tail past that sequence. The encoding
// is deterministic (tables sorted by name, rows in key order), so two
// databases with identical content produce identical snapshot bytes — the
// crash-equivalence tests compare states exactly this way.
//
// Layout (versioned "MDBS" header, little-endian, mpros/common/codec.hpp):
//
//   "MDBS" u8 version | u64 wal_seq | u32 table_count | table*
//   table := schema | i64 next_key | u32 index_count | index_column_name*
//            | u64 row_count | row*
//
// Decoding is fail-soft TryReader style: any malformation (truncation, bad
// counts, schema violations, duplicate keys, trailing garbage) yields
// nullopt rather than touching the aborting Table contracts.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mpros/db/database.hpp"

namespace mpros::db {

inline constexpr std::uint8_t kSnapshotVersion = 1;

/// Deterministic full-store encoding, stamped with the WAL sequence the
/// snapshot covers (replay resumes after it).
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(const Database& db,
                                                        std::uint64_t wal_seq);

struct DecodedSnapshot {
  Database db;
  std::uint64_t wal_seq = 0;
};

[[nodiscard]] std::optional<DecodedSnapshot> decode_snapshot(
    std::span<const std::uint8_t> bytes);

/// Atomically persist a snapshot: write to `path + ".tmp"`, fsync, rename
/// over `path`. A crash mid-write leaves the previous snapshot intact.
[[nodiscard]] bool write_snapshot(const Database& db, std::uint64_t wal_seq,
                                  const std::string& path);

}  // namespace mpros::db
