#include "mpros/db/database.hpp"

#include "mpros/common/assert.hpp"
#include "mpros/db/wal.hpp"

namespace mpros::db {

Table& Database::create_table(TableSchema schema) {
  MPROS_EXPECTS(!schema.name.empty());
  MPROS_EXPECTS(!tables_.contains(schema.name));
  const std::string name = schema.name;
  TableSchema journal_copy;
  if (journal_ != nullptr) journal_copy = schema;
  auto [it, inserted] =
      tables_.emplace(name, std::make_unique<Table>(std::move(schema)));
  MPROS_ASSERT(inserted);
  if (journal_ != nullptr) {
    RedoOp op;
    op.kind = RedoOp::Kind::CreateTable;
    op.table = name;
    op.schema = std::move(journal_copy);
    journal_->append(op);
  }
  return *it->second;
}

bool Database::has_table(const std::string& name) const {
  return tables_.contains(name);
}

Table& Database::table(const std::string& name) {
  const auto it = tables_.find(name);
  MPROS_EXPECTS(it != tables_.end());
  return *it->second;
}

const Table& Database::table(const std::string& name) const {
  const auto it = tables_.find(name);
  MPROS_EXPECTS(it != tables_.end());
  return *it->second;
}

void Database::drop_table(const std::string& name) {
  MPROS_EXPECTS(tables_.erase(name) == 1);
  if (journal_ != nullptr) {
    RedoOp op;
    op.kind = RedoOp::Kind::DropTable;
    op.table = name;
    journal_->append(op);
  }
}

void Database::create_index(const std::string& table_name,
                            const std::string& column) {
  table(table_name).create_index(column);
  if (journal_ != nullptr) {
    RedoOp op;
    op.kind = RedoOp::Kind::CreateIndex;
    op.table = table_name;
    op.column = column;
    journal_->append(op);
  }
}

std::vector<std::string> Database::table_names() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

std::int64_t Database::insert(const std::string& table_name, Row row) {
  Table& t = table(table_name);
  Row journal_copy;
  if (journal_ != nullptr) journal_copy = row;
  const std::int64_t key = t.insert(std::move(row));
  if (journal_ != nullptr) {
    RedoOp op;
    op.kind = RedoOp::Kind::Insert;
    op.table = table_name;
    op.key = key;
    op.row = std::move(journal_copy);
    journal_->append(op);
  }
  return key;
}

std::int64_t Database::insert_auto(const std::string& table_name,
                                   Row row_without_key) {
  Table& t = table(table_name);
  const std::int64_t key = t.insert_auto(std::move(row_without_key));
  if (journal_ != nullptr) {
    // Journal the full row including the assigned key so replay is exact.
    RedoOp op;
    op.kind = RedoOp::Kind::Insert;
    op.table = table_name;
    op.key = key;
    op.row = *t.find(key);
    journal_->append(op);
  }
  return key;
}

bool Database::update(const std::string& table_name, std::int64_t key,
                      const std::string& column, Value v) {
  Table& t = table(table_name);
  Value journal_copy;
  if (journal_ != nullptr) journal_copy = v;
  const bool applied = t.update(key, column, std::move(v));
  if (applied && journal_ != nullptr) {
    RedoOp op;
    op.kind = RedoOp::Kind::Update;
    op.table = table_name;
    op.column = column;
    op.key = key;
    op.value = std::move(journal_copy);
    journal_->append(op);
  }
  return applied;
}

bool Database::erase(const std::string& table_name, std::int64_t key) {
  const bool applied = table(table_name).erase(key);
  if (applied && journal_ != nullptr) {
    RedoOp op;
    op.kind = RedoOp::Kind::Erase;
    op.table = table_name;
    op.key = key;
    journal_->append(op);
  }
  return applied;
}

namespace {

bool schema_admissible(const TableSchema& schema) {
  if (schema.name.empty() || schema.columns.empty()) return false;
  if (schema.columns[0].type != ValueType::Integer) return false;
  if (schema.columns[0].nullable) return false;
  for (std::size_t i = 0; i < schema.columns.size(); ++i) {
    if (schema.columns[i].name.empty()) return false;
    const ValueType t = schema.columns[i].type;
    if (t != ValueType::Integer && t != ValueType::Real &&
        t != ValueType::Text) {
      return false;
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (schema.columns[j].name == schema.columns[i].name) return false;
    }
  }
  return true;
}

}  // namespace

bool apply_redo(Database& db, RedoOp&& op) {
  switch (op.kind) {
    case RedoOp::Kind::CreateTable:
      if (op.table.empty() || op.table != op.schema.name) return false;
      if (db.has_table(op.table)) return false;
      if (!schema_admissible(op.schema)) return false;
      db.create_table(std::move(op.schema));
      return true;
    case RedoOp::Kind::DropTable:
      if (!db.has_table(op.table)) return false;
      db.drop_table(op.table);
      return true;
    case RedoOp::Kind::CreateIndex: {
      if (!db.has_table(op.table)) return false;
      Table& t = db.table(op.table);
      if (!t.schema().column_index(op.column).has_value()) return false;
      db.create_index(op.table, op.column);
      return true;
    }
    case RedoOp::Kind::Insert: {
      if (!db.has_table(op.table)) return false;
      Table& t = db.table(op.table);
      if (!t.row_admissible(op.row)) return false;
      if (op.row[0].type() != ValueType::Integer) return false;
      if (op.row[0].as_integer() != op.key) return false;
      if (t.find(op.key) != nullptr) return false;
      db.insert(op.table, std::move(op.row));
      return true;
    }
    case RedoOp::Kind::Update: {
      if (!db.has_table(op.table)) return false;
      Table& t = db.table(op.table);
      const auto col = t.schema().column_index(op.column);
      if (!col.has_value() || *col == 0) return false;
      if (t.find(op.key) == nullptr) return false;
      if (!t.cell_admissible(*col, op.value)) return false;
      return db.update(op.table, op.key, op.column, std::move(op.value));
    }
    case RedoOp::Kind::Erase:
      if (!db.has_table(op.table)) return false;
      if (db.table(op.table).find(op.key) == nullptr) return false;
      return db.erase(op.table, op.key);
  }
  return false;
}

}  // namespace mpros::db
