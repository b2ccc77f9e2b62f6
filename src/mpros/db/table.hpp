#pragma once
// Table: schema-checked rows with a unique integer primary key.
//
// A table may declare indexed columns. A declaration is only recorded:
// it round-trips through the WAL's create-index op and the snapshot's
// index list, and no read path consults it.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mpros/db/value.hpp"

namespace mpros::db {

struct ColumnDef {
  std::string name;
  ValueType type = ValueType::Text;
  bool nullable = true;
};

struct TableSchema {
  std::string name;
  std::vector<ColumnDef> columns;  // column 0 is the INTEGER primary key

  [[nodiscard]] std::optional<std::size_t> column_index(
      const std::string& column) const;
};

/// One row: values positionally matching the schema's columns.
using Row = std::vector<Value>;

class Table {
 public:
  explicit Table(TableSchema schema);

  [[nodiscard]] const TableSchema& schema() const { return schema_; }
  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

  /// Insert a row. The primary key (column 0) must be a non-null integer and
  /// unique. Returns the key. Type-checks every cell against the schema.
  std::int64_t insert(Row row);

  /// Auto-assign the next key: pass the row WITHOUT the key column.
  std::int64_t insert_auto(Row row_without_key);

  [[nodiscard]] const Row* find(std::int64_t key) const;

  /// Update one column of an existing row; returns false if key is missing.
  bool update(std::int64_t key, const std::string& column, Value v);

  /// Remove a row; returns false if key is missing.
  bool erase(std::int64_t key);

  /// Declare an index on a column (idempotent). Nothing is maintained.
  void create_index(const std::string& column);

  /// Names of declared indexed columns, in schema order (deterministic).
  [[nodiscard]] std::vector<std::string> indexed_columns() const;

  /// Rows in key order (snapshot encoding, recovery, dump tools).
  [[nodiscard]] const std::map<std::int64_t, Row>& rows() const {
    return rows_;
  }

  /// The key insert_auto would assign next.
  [[nodiscard]] std::int64_t next_auto_key() const { return next_key_; }

  /// Force the auto-key counter (snapshot decoding only — a lower counter
  /// re-issues keys).
  void restore_next_key(std::int64_t next_key) { next_key_ = next_key; }

  /// Non-aborting schema checks, used by fail-soft recovery decoders to
  /// pre-validate untrusted input before touching the aborting mutators.
  [[nodiscard]] bool cell_admissible(std::size_t column_index,
                                     const Value& v) const;
  [[nodiscard]] bool row_admissible(const Row& row) const;

 private:
  void check_row(const Row& row) const;
  void check_cell(std::size_t column_index, const Value& v) const;

  TableSchema schema_;
  std::map<std::int64_t, Row> rows_;  // key order for stable scans
  std::vector<bool> indexed_;         // by column index
  std::int64_t next_key_ = 1;
};

}  // namespace mpros::db
