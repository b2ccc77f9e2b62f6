#pragma once
// Table: schema-checked rows with a unique integer primary key and optional
// secondary indexes.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
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

/// Row filter used by scans.
using Predicate = std::function<bool(const Row&)>;

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

  /// Full scan in key order; rows matching `where` (or all rows if null).
  [[nodiscard]] std::vector<Row> select(const Predicate& where = nullptr) const;

  /// Create a secondary index on a column (idempotent).
  void create_index(const std::string& column);

  /// Indexed equality lookup; requires create_index(column) first.
  [[nodiscard]] std::vector<std::int64_t> lookup(const std::string& column,
                                                 const Value& v) const;

  /// Names of indexed columns, in schema order (deterministic).
  [[nodiscard]] std::vector<std::string> indexed_columns() const;

  /// Rows in key order (snapshot encoding, consistency checks, dump tools).
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

  /// Index consistency audit: every index entry must point at a live row
  /// whose cell is equivalent under the index ordering, and every row must
  /// appear in every index exactly once. Returns human-readable violations
  /// (empty == consistent).
  [[nodiscard]] std::vector<std::string> index_violations() const;

 private:
  struct ValueLess {
    bool operator()(const Value& a, const Value& b) const { return a.less(b); }
  };
  using SecondaryIndex = std::multimap<Value, std::int64_t, ValueLess>;

  void check_row(const Row& row) const;
  void check_cell(std::size_t column_index, const Value& v) const;
  void index_row(std::int64_t key, const Row& row);
  void unindex_row(std::int64_t key, const Row& row);

  TableSchema schema_;
  std::map<std::int64_t, Row> rows_;  // key order for stable scans
  std::unordered_map<std::size_t, SecondaryIndex> indexes_;  // by column idx
  std::int64_t next_key_ = 1;
};

}  // namespace mpros::db
