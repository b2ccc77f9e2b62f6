// Embedded relational store tests: schema checks, CRUD, indexes, redo
// replay validation.

#include <gtest/gtest.h>

#include <limits>

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

TEST(ValueTest, OrderingAcrossTypes) {
  EXPECT_TRUE(Value().less(Value(std::int64_t{1})));
  EXPECT_TRUE(Value(std::int64_t{1}).less(Value(2.5)));
  EXPECT_TRUE(Value(2.5).less(Value("a")));
  EXPECT_FALSE(Value("b").less(Value("a")));
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value().to_string(), "NULL");
  EXPECT_EQ(Value(std::int64_t{42}).to_string(), "42");
  EXPECT_EQ(Value("x").to_string(), "x");
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
  EXPECT_EQ(t.lookup("name", Value("old")).size(), 0u);
  EXPECT_EQ(t.lookup("name", Value("new")).size(), 1u);
  EXPECT_FALSE(t.update(99, "name", Value("zz")));
}

TEST(TableTest, SelectWithPredicate) {
  Table t(people_schema());
  for (int i = 0; i < 10; ++i) {
    t.insert_auto({Value("p" + std::to_string(i)),
                   Value(std::int64_t{20 + i}), Value()});
  }
  const auto old_enough = t.select(
      [](const Row& r) { return r[2].as_integer() >= 25; });
  EXPECT_EQ(old_enough.size(), 5u);
  EXPECT_EQ(t.select().size(), 10u);
}

TEST(TableTest, IndexEqualityAndRange) {
  Table t(people_schema());
  t.create_index("age");
  for (int i = 0; i < 20; ++i) {
    t.insert_auto({Value("p"), Value(std::int64_t{i % 5}), Value()});
  }
  EXPECT_EQ(t.lookup("age", Value(std::int64_t{3})).size(), 4u);
  EXPECT_EQ(t.lookup("age", Value(std::int64_t{1})),
            (std::vector<std::int64_t>{2, 7, 12, 17}));
  EXPECT_TRUE(t.lookup("age", Value(std::int64_t{5})).empty());
}

TEST(TableTest, IndexBuiltOverExistingRows) {
  Table t(people_schema());
  t.insert_auto({Value("x"), Value(std::int64_t{1}), Value()});
  t.insert_auto({Value("y"), Value(std::int64_t{1}), Value()});
  t.create_index("age");
  EXPECT_EQ(t.lookup("age", Value(std::int64_t{1})).size(), 2u);
}

TEST(TableTest, EraseRemovesFromIndex) {
  Table t(people_schema());
  t.create_index("age");
  const auto k = t.insert_auto({Value("x"), Value(std::int64_t{9}), Value()});
  t.erase(k);
  EXPECT_TRUE(t.lookup("age", Value(std::int64_t{9})).empty());
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

// --- Regressions: ordering, validation --------------------------------------

TEST(ValueTest, NanSortsBelowEveryNumberAndEqualsItself) {
  const Value nan(std::numeric_limits<double>::quiet_NaN());
  const Value neg_inf(-std::numeric_limits<double>::infinity());
  const Value zero(0.0);
  // NaN < everything numeric; nothing numeric < NaN. Two NaNs are
  // equivalent (neither less) — a strict weak ordering, so a NaN row can
  // live in a std::map index without corrupting its invariants.
  EXPECT_TRUE(nan.less(neg_inf));
  EXPECT_TRUE(nan.less(zero));
  EXPECT_FALSE(neg_inf.less(nan));
  EXPECT_FALSE(zero.less(nan));
  EXPECT_FALSE(nan.less(nan));
}

TEST(TableTest, NanScoreSurvivesIndexedRoundTrip) {
  Table t(people_schema());
  t.create_index("score");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  t.insert_auto({Value("a"), Value(), Value(nan)});
  t.insert_auto({Value("b"), Value(), Value(1.0)});
  t.insert_auto({Value("c"), Value(), Value(nan)});
  // Both NaN rows are findable through the index and the index stays
  // internally consistent (pre-fix, NaN comparisons broke the map's strict
  // weak ordering and lookups silently missed rows).
  EXPECT_EQ(t.lookup("score", Value(nan)).size(), 2u);
  EXPECT_EQ(t.lookup("score", Value(1.0)).size(), 1u);
  EXPECT_TRUE(t.index_violations().empty());
}

TEST(ValueTest, LargeIntegersCompareExactly) {
  // 2^53 and 2^53+1 collapse to the same double; integer-vs-integer must
  // compare exactly, not through the lossy numeric() widening.
  const auto big = std::int64_t{1} << 53;
  EXPECT_TRUE(Value(big).less(Value(big + 1)));
  EXPECT_FALSE(Value(big + 1).less(Value(big)));
  EXPECT_FALSE(Value(big).less(Value(big)));
  // Mixed integer/real still orders by numeric value.
  EXPECT_TRUE(Value(std::int64_t{2}).less(Value(2.5)));
}

TEST(TableTest, AdjacentLargeIntegersStayDistinctInIndex) {
  Table t(people_schema());
  t.create_index("age");
  const auto big = std::int64_t{1} << 53;
  t.insert_auto({Value("lo"), Value(big), Value()});
  t.insert_auto({Value("hi"), Value(big + 1), Value()});
  EXPECT_EQ(t.lookup("age", Value(big)).size(), 1u);
  EXPECT_EQ(t.lookup("age", Value(big + 1)).size(), 1u);
  EXPECT_TRUE(t.index_violations().empty());
}

TEST(TableTest, UpdateValidatesBeforeMutating) {
  // An inadmissible update is a contract violation — but the check must run
  // BEFORE the unindex/assign (pre-fix the row was already mutated and the
  // index emptied when the precondition tripped). In-process the gate is
  // observable through cell_admissible and the soft apply_redo path below.
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
  EXPECT_EQ(db.table("people").lookup("name", Value("ok")).size(), 1u);
  EXPECT_TRUE(db.integrity_violations().empty());
}

}  // namespace
}  // namespace mpros::db
