#pragma once
// Database: a named collection of tables, with an optional write-ahead
// log that receives every mutation made through its methods.
//
// Thread-compatible (external synchronization); the DC wraps one behind its
// scheduler thread and the OOSM behind its single-writer event loop.

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mpros/db/table.hpp"

namespace mpros::db {

/// One redo operation, as journaled to the write-ahead log. Replaying the
/// sequence against an empty Database reproduces the current state
/// byte-for-byte (auto-key counters included — insert rows carry their
/// assigned key).
struct RedoOp {
  enum class Kind : std::uint8_t {
    CreateTable = 1,
    DropTable = 2,
    CreateIndex = 3,
    Insert = 4,
    Update = 5,
    Erase = 6,
  };
  Kind kind = Kind::Insert;
  std::string table;
  TableSchema schema;   // CreateTable
  std::string column;   // CreateIndex / Update
  std::int64_t key = 0; // Update / Erase
  Row row;              // Insert (key included as cell 0)
  Value value;          // Update
};

class WriteAheadLog;

class Database {
 public:
  Database() = default;

  /// Create a table; the schema's first column must be the INTEGER primary
  /// key. Aborts if the name already exists.
  Table& create_table(TableSchema schema);

  [[nodiscard]] bool has_table(const std::string& name) const;

  /// Aborts if absent — table names are static program structure here.
  Table& table(const std::string& name);
  [[nodiscard]] const Table& table(const std::string& name) const;

  void drop_table(const std::string& name);

  /// Journaled index declaration (idempotent, like Table::create_index).
  void create_index(const std::string& table_name, const std::string& column);

  [[nodiscard]] std::vector<std::string> table_names() const;

  /// Attach (or detach with nullptr) a write-ahead log. Every mutation
  /// made through Database methods is appended to it; direct Table&
  /// mutations bypass it, so durable callers must go through the Database
  /// wrappers.
  void attach_journal(WriteAheadLog* wal) { journal_ = wal; }

  /// Journaled row ops.
  std::int64_t insert(const std::string& table_name, Row row);
  std::int64_t insert_auto(const std::string& table_name, Row row_without_key);
  bool update(const std::string& table_name, std::int64_t key,
              const std::string& column, Value v);
  bool erase(const std::string& table_name, std::int64_t key);

 private:
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
  WriteAheadLog* journal_ = nullptr;
};

/// Replay one redo operation against `db`, pre-validating everything a
/// hostile or torn log could get wrong (unknown table, schema mismatch,
/// duplicate key, type error) so the aborting Table contracts are never
/// tripped. Returns false — with `db` untouched — when the op is
/// inadmissible; WAL recovery treats that exactly like tail corruption.
[[nodiscard]] bool apply_redo(Database& db, RedoOp&& op);

}  // namespace mpros::db
