// Embedded relational store tests: schema checks, CRUD, index
// declarations, redo replay validation.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mpros/db/database.hpp"

namespace mpros::db {
namespace {

TableSchema people_schema() {
  return TableSchema{"people",
                     {ColumnDef{"id", ValueType::Integer, false},
                      ColumnDef{"name", ValueType::Text, false},
                      ColumnDef{"age", ValueType::Integer, true},
                      ColumnDef{"score", ValueType::Real, true}}};
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), ValueType::Null);
  EXPECT_EQ(Value(std::int64_t{5}).as_integer(), 5);
  EXPECT_DOUBLE_EQ(Value(2.5).as_real(), 2.5);
  EXPECT_EQ(Value("hi").as_text(), "hi");
  EXPECT_DOUBLE_EQ(Value(std::int64_t{3}).numeric(), 3.0);
}

TEST(TableTest, InsertFindErase) {
  Table t(people_schema());
  t.insert({Value(std::int64_t{1}), Value("alice"), Value(std::int64_t{30}),
            Value(0.9)});
  EXPECT_EQ(t.row_count(), 1u);
  const Row* row = t.find(1);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[1].as_text(), "alice");
  EXPECT_TRUE(t.erase(1));
  EXPECT_FALSE(t.erase(1));
  EXPECT_EQ(t.find(1), nullptr);
}

TEST(TableTest, InsertAutoAssignsSequentialKeys) {
  Table t(people_schema());
  const auto k1 = t.insert_auto({Value("a"), Value(), Value()});
  const auto k2 = t.insert_auto({Value("b"), Value(), Value()});
  EXPECT_EQ(k2, k1 + 1);
  // Explicit high key bumps the sequence.
  t.insert({Value(std::int64_t{100}), Value("c"), Value(), Value()});
  EXPECT_EQ(t.insert_auto({Value("d"), Value(), Value()}), 101);
}

TEST(TableTest, NullableAndTypeChecksAcceptIntegerIntoReal) {
  Table t(people_schema());
  // Integer into REAL column is allowed (numeric coercion).
  t.insert({Value(std::int64_t{1}), Value("a"), Value(),
            Value(std::int64_t{7})});
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(TableTest, UpdateChangesValueAndIndexes) {
  Table t(people_schema());
  t.create_index("name");
  t.insert_auto({Value("old"), Value(), Value()});
  EXPECT_TRUE(t.update(1, "name", Value("new")));
  EXPECT_EQ((*t.find(1))[1].as_text(), "new");
  EXPECT_EQ(t.indexed_columns(), std::vector<std::string>{"name"});
  EXPECT_FALSE(t.update(99, "name", Value("zz")));
}

TEST(DatabaseTest, CreateAndDropTables) {
  Database db;
  db.create_table(people_schema());
  EXPECT_TRUE(db.has_table("people"));
  EXPECT_EQ(db.table_names().size(), 1u);
  db.drop_table("people");
  EXPECT_FALSE(db.has_table("people"));
}

TEST(DatabaseTest, OperationsOutsideTransactionAreImmediate) {
  Database db;
  db.create_table(people_schema());
  db.insert_auto("people", {Value("x"), Value(), Value()});
  EXPECT_EQ(db.table("people").row_count(), 1u);
}

// --- Regressions: validation -------------------------------------------------

TEST(TableTest, UpdateValidatesBeforeMutating) {
  // An inadmissible update is a contract violation, checked before the
  // assignment. In-process the gate is observable through cell_admissible
  // and the soft apply_redo path below.
  Table t(people_schema());
  EXPECT_TRUE(t.cell_admissible(1, Value("text")));
  EXPECT_FALSE(t.cell_admissible(1, Value(std::int64_t{7})));
  EXPECT_FALSE(t.cell_admissible(1, Value()));  // non-nullable
  EXPECT_FALSE(t.cell_admissible(3, Value("not a real")));
  EXPECT_TRUE(t.cell_admissible(3, Value()));  // nullable
}

TEST(DatabaseTest, InadmissibleRedoUpdateLeavesRowAndIndexUntouched) {
  Database db;
  db.create_table(people_schema());
  db.create_index("people", "name");
  const auto k = db.insert_auto("people", {Value("ok"), Value(), Value()});

  RedoOp op;
  op.kind = RedoOp::Kind::Update;
  op.table = "people";
  op.key = k;
  op.column = "name";
  op.value = Value(std::int64_t{7});  // type mismatch
  EXPECT_FALSE(apply_redo(db, std::move(op)));

  EXPECT_EQ((*db.table("people").find(k))[1].as_text(), "ok");
  EXPECT_EQ(db.table("people").indexed_columns(),
            std::vector<std::string>{"name"});
}

}  // namespace
}  // namespace mpros::db
