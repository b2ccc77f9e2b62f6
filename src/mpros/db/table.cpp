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

Table::Table(TableSchema schema)
    : schema_(std::move(schema)), indexed_(schema_.columns.size(), false) {
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
  const bool inserted = rows_.emplace(key, std::move(row)).second;
  MPROS_EXPECTS(inserted);
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

  check_cell(*col, v);
  it->second[*col] = std::move(v);
  return true;
}

bool Table::erase(std::int64_t key) { return rows_.erase(key) == 1; }

void Table::create_index(const std::string& column) {
  const auto col = schema_.column_index(column);
  MPROS_EXPECTS(col.has_value());
  indexed_[*col] = true;
}

std::vector<std::string> Table::indexed_columns() const {
  std::vector<std::string> out;
  for (std::size_t col = 0; col < indexed_.size(); ++col) {
    if (indexed_[col]) out.push_back(schema_.columns[col].name);
  }
  return out;
}

}  // namespace mpros::db
