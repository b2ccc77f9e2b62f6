// mpros_dbtool — inspect and verify a durability directory offline.
//
//   mpros_dbtool dump   <dir> [table]   print recovered tables (and rows)
//   mpros_dbtool verify <dir>           recover read-only, report damage
//   mpros_dbtool log    <dir>           walk the WAL frame by frame
//
// Every mode is strictly read-only: dump and verify run the same
// recover_directory() the live DurableDatabase builds on, which rebuilds
// the store in memory *without* the torn-tail truncation the live store
// performs — an operator can point this at a crashed ship's directory (or
// a copy under forensic hold) and nothing on disk changes.
//
// Exit status: 0 clean; 1 usage or I/O error (including a db.snapshot or
// db.wal that exists but cannot be read); 2 verify found damage (a
// db.snapshot that does not decode, a torn tail or a partial commit).

#include <cstdint>
#include <cstdio>
#include <string>

#include "mpros/db/database.hpp"
#include "mpros/db/durable.hpp"
#include "mpros/db/wal.hpp"

namespace {

using namespace mpros;

const char* type_name(db::ValueType t) {
  switch (t) {
    case db::ValueType::Null: return "null";
    case db::ValueType::Integer: return "integer";
    case db::ValueType::Real: return "real";
    case db::ValueType::Text: return "text";
  }
  return "?";
}

std::string render(const db::Value& v) {
  switch (v.type()) {
    case db::ValueType::Null: return "NULL";
    case db::ValueType::Integer: return std::to_string(v.as_integer());
    case db::ValueType::Real: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.6g", v.as_real());
      return buf;
    }
    case db::ValueType::Text: return "'" + v.as_text() + "'";
  }
  return "?";
}

const char* op_name(db::RedoOp::Kind k) {
  switch (k) {
    case db::RedoOp::Kind::CreateTable: return "create-table";
    case db::RedoOp::Kind::DropTable: return "drop-table";
    case db::RedoOp::Kind::CreateIndex: return "create-index";
    case db::RedoOp::Kind::Insert: return "insert";
    case db::RedoOp::Kind::Update: return "update";
    case db::RedoOp::Kind::Erase: return "erase";
  }
  return "?";
}

/// False (after saying why) when recovery hit an I/O error.
bool readable(const db::Recovered& r) {
  if (r.report.io_error.empty()) return true;
  std::fprintf(stderr, "mpros_dbtool: %s\n", r.report.io_error.c_str());
  return false;
}

int cmd_dump(const std::string& dir, const std::string& only_table) {
  const db::Recovered r = db::recover_directory(dir);
  if (!readable(r)) return 1;
  for (const std::string& name : r.db.table_names()) {
    if (!only_table.empty() && name != only_table) continue;
    const db::Table& t = r.db.table(name);
    std::printf("table %s (%zu rows)\n", name.c_str(), t.row_count());
    std::printf("  columns:");
    for (const db::ColumnDef& c : t.schema().columns) {
      std::printf(" %s:%s%s", c.name.c_str(), type_name(c.type),
                  c.nullable ? "?" : "");
    }
    std::printf("\n");
    for (const std::string& col : t.indexed_columns()) {
      std::printf("  index on %s\n", col.c_str());
    }
    for (const auto& [key, row] : t.rows()) {
      std::printf("  [%lld]", static_cast<long long>(key));
      for (std::size_t i = 1; i < row.size(); ++i) {
        std::printf(" %s", render(row[i]).c_str());
      }
      std::printf("\n");
    }
  }
  if (!only_table.empty() && !r.db.has_table(only_table)) {
    std::fprintf(stderr, "mpros_dbtool: no table '%s' in %s\n",
                 only_table.c_str(), dir.c_str());
    return 1;
  }
  return 0;
}

int cmd_verify(const std::string& dir) {
  const db::Recovered r = db::recover_directory(dir);
  if (!readable(r)) return 1;
  std::printf("snapshot : %s", r.report.snapshot_loaded ? "loaded" : "none");
  if (r.report.snapshot_loaded) {
    std::printf(" (covers wal seq %llu)",
                static_cast<unsigned long long>(r.report.snapshot_seq));
  }
  std::printf("\n");
  std::printf("wal      : %llu commits, %llu records replayed, "
              "last seq %llu\n",
              static_cast<unsigned long long>(r.wal.commits),
              static_cast<unsigned long long>(r.wal.records),
              static_cast<unsigned long long>(r.wal.last_seq));
  std::printf("tables   : %zu\n", r.db.table_names().size());

  bool damaged = false;
  if (r.report.snapshot_malformed) {
    std::printf("MALFORMED SNAPSHOT: db.snapshot does not decode; the WAL "
                "was replayed from an empty store\n");
    damaged = true;
  }
  if (r.wal.truncated_bytes > 0) {
    std::printf("TORN TAIL: %llu bytes past the intact prefix (a live "
                "recovery would drop them)\n",
                static_cast<unsigned long long>(r.wal.truncated_bytes));
    damaged = true;
  }
  if (r.wal.partial_frame) {
    std::printf("PARTIAL COMMIT: a CRC-valid frame carried an inadmissible "
                "op; recovered capped at seq %llu\n",
                static_cast<unsigned long long>(r.wal.last_seq));
    damaged = true;
  }
  std::printf("verdict  : %s\n", damaged ? "DAMAGED (recoverable prefix "
                                           "shown above)"
                                         : "clean");
  return damaged ? 2 : 0;
}

int cmd_log(const std::string& dir) {
  const std::string wal = db::DurableDatabase::wal_path(dir);
  std::uint64_t frames = 0;
  const db::WalReplayResult replay = db::WriteAheadLog::replay(
      wal, 0, [&frames](std::uint64_t seq, db::RedoOp&& op) {
        if (seq != frames) {
          // First op of a new commit frame.
          frames = seq;
          std::printf("commit %llu\n", static_cast<unsigned long long>(seq));
        }
        std::printf("  %-12s %s", op_name(op.kind), op.table.c_str());
        switch (op.kind) {
          case db::RedoOp::Kind::Insert:
            std::printf(" key=%lld",
                        static_cast<long long>(op.row.empty()
                                                   ? 0
                                                   : op.row[0].as_integer()));
            break;
          case db::RedoOp::Kind::Update:
            std::printf(" key=%lld %s=%s", static_cast<long long>(op.key),
                        op.column.c_str(), render(op.value).c_str());
            break;
          case db::RedoOp::Kind::Erase:
            std::printf(" key=%lld", static_cast<long long>(op.key));
            break;
          case db::RedoOp::Kind::CreateIndex:
            std::printf(" on %s", op.column.c_str());
            break;
          default:
            break;
        }
        std::printf("\n");
        return true;
      });
  if (replay.unreadable) {
    std::fprintf(stderr, "mpros_dbtool: cannot read %s\n", wal.c_str());
    return 1;
  }
  std::printf("%llu commits, %llu records, %llu valid bytes",
              static_cast<unsigned long long>(replay.commits),
              static_cast<unsigned long long>(replay.records),
              static_cast<unsigned long long>(replay.valid_bytes));
  if (replay.truncated_bytes > 0) {
    std::printf(", %llu torn bytes",
                static_cast<unsigned long long>(replay.truncated_bytes));
  }
  std::printf("\n");
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: mpros_dbtool dump   <dir> [table]\n"
               "       mpros_dbtool verify <dir>\n"
               "       mpros_dbtool log    <dir>\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  const std::string dir = argv[2];
  if (cmd == "dump") return cmd_dump(dir, argc > 3 ? argv[3] : "");
  if (cmd == "verify") return cmd_verify(dir);
  if (cmd == "log") return cmd_log(dir);
  return usage();
}
