// Direct unit tests of the physical operators (exec/operators.h): joins,
// filters, distinct, sort, union, aggregation and the existential filter —
// independent of the planner.

#include <gtest/gtest.h>

#include <memory>

#include "exec/operators.h"
#include "qgm/qgm.h"

namespace xnfdb {
namespace {

using qgm::Expr;
using qgm::ExprPtr;

Tuple Row(int64_t a, int64_t b) { return {Value(a), Value(b)}; }

// A leaf serving `rows` as stored (a matview reader over them).
OperatorPtr Source(const std::vector<Tuple>& rows, ExecStats* stats = nullptr) {
  return std::make_unique<MatViewScanOp>(
      "SRC", std::make_shared<const std::vector<Tuple>>(rows), stats);
}

// A fake quantifier layout: quantifier 0 with two columns at offset 0.
Layout TwoColLayout(int quant = 0) {
  Layout layout;
  layout.Add(quant, 0, 2);
  return layout;
}

TEST(OperatorsTest, DrainMaterialized) {
  OperatorPtr op = Source({Row(1, 2), Row(3, 4)});
  Result<std::vector<Tuple>> rows = DrainOperator(op.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 2u);
}

TEST(OperatorsTest, FilterAppliesAllPredicates) {
  ExprPtr p1 = Expr::MakeBinary(">", Expr::MakeColRef(0, 0),
                                Expr::MakeLiteral(Value(int64_t{1})));
  ExprPtr p2 = Expr::MakeBinary("<", Expr::MakeColRef(0, 1),
                                Expr::MakeLiteral(Value(int64_t{10})));
  FilterOp filter(Source({Row(1, 2), Row(3, 4), Row(5, 20)}),
                  {p1.get(), p2.get()}, TwoColLayout());
  Result<std::vector<Tuple>> rows = DrainOperator(&filter);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0][0].AsInt(), 3);
}

TEST(OperatorsTest, FilterNullPredicateFiltersRow) {
  // col0 > NULL is unknown -> filtered.
  ExprPtr p = Expr::MakeBinary(">", Expr::MakeColRef(0, 0),
                               Expr::MakeLiteral(Value::Null()));
  FilterOp filter(Source({Row(1, 2)}), {p.get()}, TwoColLayout());
  Result<std::vector<Tuple>> rows = DrainOperator(&filter);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows.value().empty());
}

TEST(OperatorsTest, ProjectEvaluatesExpressions) {
  ExprPtr sum = Expr::MakeBinary("+", Expr::MakeColRef(0, 0),
                                 Expr::MakeColRef(0, 1));
  ProjectOp project(Source({Row(1, 2), Row(10, 20)}), {sum.get()},
                    TwoColLayout());
  Result<std::vector<Tuple>> rows = DrainOperator(&project);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  EXPECT_EQ(rows.value()[0][0].AsInt(), 3);
  EXPECT_EQ(rows.value()[1][0].AsInt(), 30);
}

TEST(OperatorsTest, DistinctTreatsNullsAsOneClass) {
  DistinctOp distinct(Source({{Value::Null()}, {Value::Null()},
                              {Value(int64_t{1})}, {Value(int64_t{1})}}));
  Result<std::vector<Tuple>> rows = DrainOperator(&distinct);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 2u);
}

TEST(OperatorsTest, SortIsStableAndHandlesDescending) {
  SortOp sort(Source({Row(2, 100), Row(1, 200), Row(2, 300), Row(1, 400)}),
              {{0, false}});
  Result<std::vector<Tuple>> rows = DrainOperator(&sort);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 4u);
  // Stable: equal keys keep input order.
  EXPECT_EQ(rows.value()[0][1].AsInt(), 200);
  EXPECT_EQ(rows.value()[1][1].AsInt(), 400);
  EXPECT_EQ(rows.value()[2][1].AsInt(), 100);
  EXPECT_EQ(rows.value()[3][1].AsInt(), 300);

  SortOp desc(Source({Row(1, 0), Row(3, 0), Row(2, 0)}), {{0, true}});
  Result<std::vector<Tuple>> drows = DrainOperator(&desc);
  ASSERT_TRUE(drows.ok());
  EXPECT_EQ(drows.value()[0][0].AsInt(), 3);
}

TEST(OperatorsTest, HashJoinMatchesAndAppliesResidual) {
  // left (q0): (1,10), (2,20), (3,30); right (q1): (1,100), (1,101), (9,900)
  Layout left = TwoColLayout(0);
  Layout right = TwoColLayout(1);
  Layout combined = left;
  combined.Add(1, 2, 2);
  ExprPtr lkey = Expr::MakeColRef(0, 0);
  ExprPtr rkey = Expr::MakeColRef(1, 0);
  ExprPtr residual = Expr::MakeBinary(
      ">", Expr::MakeColRef(1, 1), Expr::MakeLiteral(Value(int64_t{100})));
  ExecStats stats;
  HashJoinOp join(Source({Row(1, 10), Row(2, 20), Row(3, 30)}),
                  Source({Row(1, 100), Row(1, 101), Row(9, 900)}),
                  {lkey.get()}, {rkey.get()}, {residual.get()}, left, right,
                  combined, &stats);
  Result<std::vector<Tuple>> rows = DrainOperator(&join);
  ASSERT_TRUE(rows.ok());
  // Only (1,10)x(1,101) survives the residual.
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0][3].AsInt(), 101);
  EXPECT_EQ(stats.join_probes, 3);
}

TEST(OperatorsTest, HashJoinNullKeysNeverMatch) {
  Layout left = TwoColLayout(0);
  Layout right = TwoColLayout(1);
  Layout combined = left;
  combined.Add(1, 2, 2);
  ExprPtr lkey = Expr::MakeColRef(0, 0);
  ExprPtr rkey = Expr::MakeColRef(1, 0);
  HashJoinOp join(Source({{Value::Null(), Value(int64_t{1})}}),
                  Source({{Value::Null(), Value(int64_t{2})}}), {lkey.get()},
                  {rkey.get()}, {}, left, right, combined, nullptr);
  Result<std::vector<Tuple>> rows = DrainOperator(&join);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows.value().empty());
}

TEST(OperatorsTest, NestedLoopJoinNonEqui) {
  Layout combined = TwoColLayout(0);
  combined.Add(1, 2, 2);
  ExprPtr pred = Expr::MakeBinary("<", Expr::MakeColRef(0, 0),
                                  Expr::MakeColRef(1, 0));
  NLJoinOp join(Source({Row(1, 0), Row(5, 0)}),
                Source({Row(2, 0), Row(6, 0)}), {pred.get()}, combined,
                nullptr);
  Result<std::vector<Tuple>> rows = DrainOperator(&join);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 3u);  // 1<2, 1<6, 5<6
}

TEST(OperatorsTest, UnionConcatenates) {
  std::vector<OperatorPtr> children;
  children.push_back(Source({Row(1, 1)}));
  children.push_back(Source({}));
  children.push_back(Source({Row(2, 2), Row(1, 1)}));
  UnionOp u(std::move(children));
  Result<std::vector<Tuple>> rows = DrainOperator(&u);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 3u);
}

TEST(OperatorsTest, AggregationPerGroupAndGlobal) {
  // Rows (group, value): (1,10), (1,20), (2,5).
  ExprPtr group = Expr::MakeColRef(0, 0);
  ExprPtr arg = Expr::MakeColRef(0, 1);
  std::vector<AggSpec> specs(3);
  specs[0].group_expr = group.get();
  specs[1].is_agg = true;
  specs[1].func = "SUM";
  specs[1].arg = arg.get();
  specs[2].is_agg = true;
  specs[2].func = "COUNT";
  specs[2].arg = nullptr;  // COUNT(*)
  AggOp agg(Source({Row(1, 10), Row(1, 20), Row(2, 5)}), {group.get()}, specs,
            TwoColLayout());
  Result<std::vector<Tuple>> rows = DrainOperator(&agg);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  for (const Tuple& row : rows.value()) {
    if (row[0].AsInt() == 1) {
      EXPECT_EQ(row[1].AsInt(), 30);
      EXPECT_EQ(row[2].AsInt(), 2);
    } else {
      EXPECT_EQ(row[1].AsInt(), 5);
      EXPECT_EQ(row[2].AsInt(), 1);
    }
  }
}

// Rows keep their values across the first (estimate-sized) chunk and the
// fixed-size chunks after it, and a row's address survives growth.
TEST(RowStoreTest, RowsSurviveChunkBoundaries) {
  RowStore store;
  store.Reset(3.0);  // first chunk: 3 rows
  const size_t n = 3 + 2 * RowStore::kChunkRows + 5;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(store.Append(Row(static_cast<int64_t>(i), -1)), i);
  }
  const Value* first = store.Row(0).data();
  store.Append(Row(-1, -1));
  EXPECT_EQ(store.Row(0).data(), first);
  ASSERT_EQ(store.size(), n + 1);
  EXPECT_EQ(store.width(), 2u);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(store.Row(i)[0].AsInt(), static_cast<int64_t>(i));
  }
}

// Equal keys chain in insertion order across table growth; NULLs form one
// key class and 2 = 2.0.
TEST(RowStoreTest, HashIndexChainsDuplicatesInInsertionOrder) {
  RowStore keys;
  keys.Reset(-1.0);
  RowHashIndex index;
  auto insert = [&](Tuple key) {
    const auto id = static_cast<uint32_t>(keys.Append(key));
    index.Insert(HashRow(key), id, [&](uint32_t other) {
      return RowsEqual(keys.Row(other), key);
    });
  };
  for (int i = 0; i < 500; ++i) insert({Value(int64_t{i % 7})});
  insert({Value()});
  insert({Value()});
  auto find = [&](const Tuple& key) {
    return index.Find(HashRow(key), [&](uint32_t id) {
      return RowsEqual(keys.Row(id), key);
    });
  };
  std::vector<uint32_t> twos;
  for (uint32_t m = find({Value(2.0)}); m != RowHashIndex::kNone;
       m = index.NextDuplicate(m)) {
    twos.push_back(m);
  }
  ASSERT_EQ(twos.size(), 72u);  // 2, 9, 16, ... 499
  for (size_t i = 0; i < twos.size(); ++i) EXPECT_EQ(twos[i], 2 + 7 * i);
  const uint32_t null_head = find({Value()});
  EXPECT_EQ(null_head, 500u);
  EXPECT_EQ(index.NextDuplicate(null_head), 501u);
  EXPECT_EQ(find({Value(int64_t{7})}), RowHashIndex::kNone);
}

TEST(OperatorsTest, ExistsFilterConjunctiveVsDisjunctive) {
  // Outer rows keyed on col0; two groups: g1 matches keys {1,2},
  // g2 matches keys {2,3}.
  auto make_group = [](std::vector<int64_t> keys, ExprPtr* outer_key,
                       ExprPtr* inner_key) {
    GroupCheck g;
    std::vector<Tuple> rows;
    for (int64_t k : keys) rows.push_back({Value(k)});
    g.op = Source(rows);
    g.group_layout.Add(100, 0, 1);
    g.combined_layout = TwoColLayout(0);
    g.combined_layout.Append(g.group_layout, 2);
    *outer_key = Expr::MakeColRef(0, 0);
    *inner_key = Expr::MakeColRef(100, 0);
    g.equi_outer.push_back(outer_key->get());
    g.equi_inner.push_back(inner_key->get());
    return g;
  };

  for (bool naive : {false, true}) {
    for (bool disjunctive : {false, true}) {
      ExprPtr ok1, ik1, ok2, ik2;
      std::vector<GroupCheck> groups;
      groups.push_back(make_group({1, 2}, &ok1, &ik1));
      groups.push_back(make_group({2, 3}, &ok2, &ik2));
      ExistsFilterOp op(Source({Row(1, 0), Row(2, 0), Row(3, 0), Row(4, 0)}),
                        std::move(groups), TwoColLayout(0), disjunctive,
                        naive, nullptr);
      Result<std::vector<Tuple>> rows = DrainOperator(&op);
      ASSERT_TRUE(rows.ok());
      std::set<int64_t> keys;
      for (const Tuple& row : rows.value()) keys.insert(row[0].AsInt());
      if (disjunctive) {
        EXPECT_EQ(keys, (std::set<int64_t>{1, 2, 3}))
            << "naive=" << naive;
      } else {
        EXPECT_EQ(keys, (std::set<int64_t>{2})) << "naive=" << naive;
      }
    }
  }
}

TEST(OperatorsTest, ReopenResetsState) {
  DistinctOp distinct(Source({Row(1, 1), Row(1, 1)}));
  Result<std::vector<Tuple>> first = DrainOperator(&distinct);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().size(), 1u);
  Result<std::vector<Tuple>> second = DrainOperator(&distinct);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().size(), 1u);
}

}  // namespace
}  // namespace xnfdb
