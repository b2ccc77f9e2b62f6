#include "mpros/db/snapshot.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "mpros/common/codec.hpp"
#include "mpros/common/log.hpp"
#include "mpros/db/wal.hpp"

namespace mpros::db {

namespace {

constexpr char kSnapshotMagic[4] = {'M', 'D', 'B', 'S'};

}  // namespace

std::vector<std::uint8_t> encode_snapshot(const Database& db,
                                          std::uint64_t wal_seq) {
  Writer w;
  for (const char c : kSnapshotMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u8(kSnapshotVersion);
  w.u64(wal_seq);

  std::vector<std::string> names = db.table_names();
  std::sort(names.begin(), names.end());
  w.u32(static_cast<std::uint32_t>(names.size()));
  for (const std::string& name : names) {
    const Table& t = db.table(name);
    walfmt::put_schema(w, t.schema());
    w.i64(t.next_auto_key());
    const std::vector<std::string> indexed = t.indexed_columns();
    w.u32(static_cast<std::uint32_t>(indexed.size()));
    for (const std::string& column : indexed) w.str(column);
    w.u64(t.row_count());
    for (const auto& [key, row] : t.rows()) walfmt::put_row(w, row);
  }
  return w.take();
}

std::optional<DecodedSnapshot> decode_snapshot(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 5 ||
      std::memcmp(bytes.data(), kSnapshotMagic, 4) != 0 ||
      bytes[4] != kSnapshotVersion) {
    return std::nullopt;
  }
  TryReader in(bytes.subspan(5));

  DecodedSnapshot out;
  out.wal_seq = in.u64();
  const std::uint32_t table_count = in.u32();
  // A table is at least a schema with one column (~11 bytes).
  if (!in.ok() || table_count > in.remaining() / 11) return std::nullopt;

  for (std::uint32_t ti = 0; ti < table_count; ++ti) {
    TableSchema schema;
    walfmt::read_schema(in, schema);
    const std::int64_t next_key = in.i64();
    const std::uint32_t index_count = in.u32();
    if (!in.ok()) return std::nullopt;
    // Pre-validate through the same gate the WAL uses, so the aborting
    // create_table contract is never tripped by hostile bytes.
    RedoOp create;
    create.kind = RedoOp::Kind::CreateTable;
    create.table = schema.name;
    create.schema = schema;
    if (!apply_redo(out.db, std::move(create))) return std::nullopt;
    Table& t = out.db.table(schema.name);

    if (index_count > in.remaining() / 4) return std::nullopt;
    for (std::uint32_t i = 0; i < index_count; ++i) {
      const std::string column = in.str();
      if (!in.ok() || !schema.column_index(column).has_value()) {
        return std::nullopt;
      }
      t.create_index(column);
    }

    const std::uint64_t row_count = in.u64();
    // A row is at least a count plus one tag byte per cell.
    if (!in.ok() || row_count > in.remaining() / 5) return std::nullopt;
    for (std::uint64_t ri = 0; ri < row_count; ++ri) {
      Row row;
      if (!walfmt::read_row(in, row)) return std::nullopt;
      if (!t.row_admissible(row)) return std::nullopt;
      if (row[0].type() != ValueType::Integer) return std::nullopt;
      if (t.find(row[0].as_integer()) != nullptr) return std::nullopt;
      t.insert(std::move(row));
    }
    // Live tables maintain next_key > every existing key; a recorded
    // counter below that would make a later insert_auto collide and abort.
    if (next_key < t.next_auto_key()) return std::nullopt;
    t.restore_next_key(next_key);
  }
  if (!in.done()) return std::nullopt;  // trailing garbage
  return out;
}

bool write_snapshot(const Database& db, std::uint64_t wal_seq,
                    const std::string& path) {
  const std::vector<std::uint8_t> bytes = encode_snapshot(db, wal_seq);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    MPROS_LOG_ERROR("db", "snapshot: cannot open %s: %s", tmp.c_str(),
                    std::strerror(errno));
    return false;
  }
  const bool written =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size() &&
      std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  std::fclose(f);
  if (!written) {
    MPROS_LOG_ERROR("db", "snapshot: write to %s failed: %s", tmp.c_str(),
                    std::strerror(errno));
    std::remove(tmp.c_str());
    return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    MPROS_LOG_ERROR("db", "snapshot: rename %s -> %s failed: %s", tmp.c_str(),
                    path.c_str(), ec.message().c_str());
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace mpros::db
