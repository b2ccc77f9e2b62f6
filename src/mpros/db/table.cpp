#include "mpros/db/table.hpp"

#include <algorithm>

#include "mpros/common/assert.hpp"

namespace mpros::db {

std::optional<std::size_t> TableSchema::column_index(
    const std::string& column) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == column) return i;
  }
  return std::nullopt;
}

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  MPROS_EXPECTS(!schema_.columns.empty());
  MPROS_EXPECTS(schema_.columns[0].type == ValueType::Integer);
  MPROS_EXPECTS(!schema_.columns[0].nullable);
}

bool Table::cell_admissible(std::size_t column_index, const Value& v) const {
  if (column_index >= schema_.columns.size()) return false;
  const ColumnDef& col = schema_.columns[column_index];
  if (v.is_null()) return col.nullable;
  // Integer values are acceptable in REAL columns (numeric coercion).
  return v.type() == col.type ||
         (col.type == ValueType::Real && v.type() == ValueType::Integer);
}

bool Table::row_admissible(const Row& row) const {
  if (row.size() != schema_.columns.size()) return false;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (!cell_admissible(i, row[i])) return false;
  }
  return true;
}

void Table::check_cell(std::size_t column_index, const Value& v) const {
  MPROS_EXPECTS(cell_admissible(column_index, v));
}

void Table::check_row(const Row& row) const {
  MPROS_EXPECTS(row.size() == schema_.columns.size());
  for (std::size_t i = 0; i < row.size(); ++i) check_cell(i, row[i]);
}

std::int64_t Table::insert(Row row) {
  check_row(row);
  const std::int64_t key = row[0].as_integer();
  auto [it, inserted] = rows_.emplace(key, std::move(row));
  MPROS_EXPECTS(inserted);
  index_row(key, it->second);
  next_key_ = std::max(next_key_, key + 1);
  return key;
}

std::int64_t Table::insert_auto(Row row_without_key) {
  Row row;
  row.reserve(row_without_key.size() + 1);
  row.emplace_back(next_key_);
  for (Value& v : row_without_key) row.push_back(std::move(v));
  return insert(std::move(row));
}

const Row* Table::find(std::int64_t key) const {
  const auto it = rows_.find(key);
  return it == rows_.end() ? nullptr : &it->second;
}

bool Table::update(std::int64_t key, const std::string& column, Value v) {
  const auto it = rows_.find(key);
  if (it == rows_.end()) return false;
  const auto col = schema_.column_index(column);
  MPROS_EXPECTS(col.has_value());
  MPROS_EXPECTS(*col != 0);  // primary keys are immutable

  // Validate the candidate BEFORE mutating: the old order unindexed and
  // overwrote the row first, so a type-mismatched update tripped the
  // precondition with the table already inconsistent.
  check_cell(*col, v);

  Row& row = it->second;
  unindex_row(key, row);
  row[*col] = std::move(v);
  index_row(key, row);
  return true;
}

bool Table::erase(std::int64_t key) {
  const auto it = rows_.find(key);
  if (it == rows_.end()) return false;
  unindex_row(key, it->second);
  rows_.erase(it);
  return true;
}

std::vector<Row> Table::select(const Predicate& where) const {
  std::vector<Row> out;
  for (const auto& [key, row] : rows_) {
    if (!where || where(row)) out.push_back(row);
  }
  return out;
}

void Table::create_index(const std::string& column) {
  const auto col = schema_.column_index(column);
  MPROS_EXPECTS(col.has_value());
  if (indexes_.contains(*col)) return;

  SecondaryIndex index;
  for (const auto& [key, row] : rows_) {
    index.emplace(row[*col], key);
  }
  indexes_.emplace(*col, std::move(index));
}

std::vector<std::int64_t> Table::lookup(const std::string& column,
                                        const Value& v) const {
  const auto col = schema_.column_index(column);
  MPROS_EXPECTS(col.has_value());
  const auto idx = indexes_.find(*col);
  MPROS_EXPECTS(idx != indexes_.end());

  std::vector<std::int64_t> out;
  auto [lo, hi] = idx->second.equal_range(v);
  for (auto it = lo; it != hi; ++it) out.push_back(it->second);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> Table::indexed_columns() const {
  std::vector<std::size_t> cols;
  cols.reserve(indexes_.size());
  for (const auto& [col, index] : indexes_) cols.push_back(col);
  std::sort(cols.begin(), cols.end());
  std::vector<std::string> out;
  out.reserve(cols.size());
  for (const std::size_t col : cols) out.push_back(schema_.columns[col].name);
  return out;
}

std::vector<std::string> Table::index_violations() const {
  std::vector<std::string> out;
  const auto equivalent = [](const Value& a, const Value& b) {
    return !a.less(b) && !b.less(a);
  };
  for (const auto& [col, index] : indexes_) {
    const std::string& column = schema_.columns[col].name;
    if (index.size() != rows_.size()) {
      out.push_back(schema_.name + "." + column + ": index has " +
                    std::to_string(index.size()) + " entries for " +
                    std::to_string(rows_.size()) + " rows");
    }
    for (const auto& [value, key] : index) {
      const Row* row = find(key);
      if (row == nullptr) {
        out.push_back(schema_.name + "." + column + ": entry for key " +
                      std::to_string(key) + " dangles (row erased)");
      } else if (!equivalent(value, (*row)[col])) {
        out.push_back(schema_.name + "." + column + ": entry for key " +
                      std::to_string(key) + " holds stale value " +
                      value.to_string());
      }
    }
    for (const auto& [key, row] : rows_) {
      auto [lo, hi] = index.equal_range(row[col]);
      std::size_t hits = 0;
      for (auto it = lo; it != hi; ++it) {
        if (it->second == key) ++hits;
      }
      if (hits != 1) {
        out.push_back(schema_.name + "." + column + ": row " +
                      std::to_string(key) + " appears " +
                      std::to_string(hits) + " times in the index");
      }
    }
  }
  return out;
}

void Table::index_row(std::int64_t key, const Row& row) {
  for (auto& [col, index] : indexes_) {
    index.emplace(row[col], key);
  }
}

void Table::unindex_row(std::int64_t key, const Row& row) {
  for (auto& [col, index] : indexes_) {
    auto [lo, hi] = index.equal_range(row[col]);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == key) {
        index.erase(it);
        break;
      }
    }
  }
}

}  // namespace mpros::db
