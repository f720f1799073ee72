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

// --- semi-join key filters ---------------------------------------------

// A base table (K INTEGER, V INTEGER) holding `rows`.
std::unique_ptr<Table> MakeTable(const std::vector<Tuple>& rows) {
  auto table = std::make_unique<Table>(
      "B", Schema({{"K", DataType::kInt}, {"V", DataType::kInt}}));
  for (const Tuple& row : rows) EXPECT_TRUE(table->Insert(row).ok());
  return table;
}

// A reader of a spool that holds `rows` once its first reader opens it.
OperatorPtr Spool(const std::vector<Tuple>& rows) {
  return std::make_unique<SpoolReadOp>(
      std::make_shared<SpoolState>(Source(rows)), nullptr);
}

// A hash join of two-column quantifiers `l` (probe) and `r` (build) on
// the given column pairs; `residual` may be null.
OperatorPtr Join(OperatorPtr probe, OperatorPtr build, const Layout& left,
                 int r, const std::vector<std::pair<int, int>>& keys,
                 int l_quant, std::vector<ExprPtr>* exprs,
                 const Expr* residual = nullptr, ExecStats* stats = nullptr) {
  Layout right = TwoColLayout(r);
  Layout combined = left;
  combined.Add(r, left.TotalWidth(), 2);
  std::vector<const Expr*> lkeys, rkeys, res;
  for (const auto& [lc, rc] : keys) {
    exprs->push_back(Expr::MakeColRef(l_quant, lc));
    lkeys.push_back(exprs->back().get());
    exprs->push_back(Expr::MakeColRef(r, rc));
    rkeys.push_back(exprs->back().get());
  }
  if (residual != nullptr) res.push_back(residual);
  return std::make_unique<HashJoinOp>(std::move(probe), std::move(build),
                                      lkeys, rkeys, res, left, right,
                                      combined, stats);
}

std::string Render(Operator* op) {
  Result<std::vector<Tuple>> rows = DrainOperator(op, 7);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  std::string out;
  if (!rows.ok()) return out;
  for (const Tuple& row : rows.value()) out += TupleToString(row);
  return out;
}

// Rows of `table` in scan order, as a plain source no filter can reach.
OperatorPtr Unfiltered(const Table& table) {
  std::vector<Tuple> rows;
  for (Rid r = 0; r < table.rid_bound(); ++r) rows.push_back(table.Get(r));
  return Source(rows);
}

// A spool on the probe side: the join pushes the set of its probe-key
// values into the build-side scan, which drops the other rows before
// copying them but still counts them as scanned. The output is the
// unfiltered join's, row for row.
TEST(KeyFilterTest, SpoolProbeFiltersTheBuildScan) {
  std::vector<Tuple> b_rows;
  for (int64_t k = 1; k <= 20; ++k) b_rows.push_back(Row(k, 10 * k));
  b_rows.push_back(Row(3, 31));
  std::unique_ptr<Table> b = MakeTable(b_rows);
  const std::vector<Tuple> probe = {Row(3, 0), Row(5, 0), Row(3, 1)};
  std::vector<ExprPtr> exprs;
  ExecStats stats;
  auto scan = std::make_unique<ScanOp>(b.get(), &stats);
  ScanOp* scan_op = scan.get();
  OperatorPtr join = Join(Spool(probe), std::move(scan), TwoColLayout(0), 1,
                          {{0, 0}}, 0, &exprs, nullptr, &stats);
  join->EnableAnalyze();
  OperatorPtr reference = Join(Source(probe), Unfiltered(*b), TwoColLayout(0),
                               1, {{0, 0}}, 0, &exprs);
  const std::string expected = Render(reference.get());
  EXPECT_EQ(expected,
            "(3, 0, 3, 30)(3, 0, 3, 31)(5, 0, 5, 50)(3, 1, 3, 30)"
            "(3, 1, 3, 31)");
  EXPECT_EQ(Render(join.get()), expected);
  EXPECT_EQ(scan_op->actuals().rows, 3);
  EXPECT_EQ(scan_op->key_filtered_rows(), 18);
  EXPECT_EQ(stats.rows_scanned, 21);
  EXPECT_EQ(stats.join_probes, 3);
  std::string plan;
  join->Explain(0, &plan);
  EXPECT_NE(plan.find("Scan(B) key_filter(dropped=18)"), std::string::npos)
      << plan;
}

// A join whose probe side is not a spool builds first, then pushes its
// build-key set through a distinct and a lower join onto the scan that
// feeds the lower join's build side.
TEST(KeyFilterTest, BuildSetPushedThroughLowerJoin) {
  std::unique_ptr<Table> b = MakeTable({Row(1, 100), Row(1, 101), Row(2, 200),
                                        Row(3, 300), Row(3, 301), Row(2, 201)});
  const std::vector<Tuple> a = {Row(1, 0), Row(2, 0), Row(3, 0)};
  const std::vector<Tuple> c = {Row(101, 7), Row(300, 8)};
  Layout lower = TwoColLayout(0);
  lower.Add(1, 2, 2);
  std::vector<ExprPtr> exprs;
  auto build = [&](OperatorPtr b_side) {
    OperatorPtr l = Join(Source(a), std::move(b_side), TwoColLayout(0), 1,
                         {{0, 0}}, 0, &exprs);
    // The upper key is the lower build side's V (q1.#1).
    return Join(std::make_unique<DistinctOp>(std::move(l)), Source(c), lower,
                2, {{1, 0}}, 1, &exprs);
  };
  auto scan = std::make_unique<ScanOp>(b.get(), nullptr);
  ScanOp* scan_op = scan.get();
  OperatorPtr join = build(std::move(scan));
  OperatorPtr reference = build(Unfiltered(*b));
  const std::string expected = Render(reference.get());
  EXPECT_EQ(expected, "(1, 0, 1, 101, 101, 7)(3, 0, 3, 300, 300, 8)");
  EXPECT_EQ(Render(join.get()), expected);
  EXPECT_EQ(scan_op->actuals().rows, 2);
  EXPECT_EQ(scan_op->key_filtered_rows(), 4);
}

// A set follows a key column through a projection to the scan column it
// reads: here the build side swaps the scan's columns.
TEST(KeyFilterTest, SetFollowsAProjectedColumn) {
  std::unique_ptr<Table> b =
      MakeTable({Row(1, 10), Row(2, 20), Row(3, 10), Row(10, 30)});
  const std::vector<Tuple> probe = {Row(10, 0)};
  std::vector<ExprPtr> exprs;
  ExprPtr v = Expr::MakeColRef(5, 1);
  ExprPtr k = Expr::MakeColRef(5, 0);
  auto swapped = [&](OperatorPtr b_side) -> OperatorPtr {
    std::vector<const Expr*> cols = {v.get(), k.get()};
    return std::make_unique<ProjectOp>(std::move(b_side), cols,
                                       TwoColLayout(5));
  };
  auto scan = std::make_unique<ScanOp>(b.get(), nullptr);
  ScanOp* scan_op = scan.get();
  OperatorPtr join = Join(Spool(probe), swapped(std::move(scan)),
                          TwoColLayout(0), 1, {{0, 0}}, 0, &exprs);
  OperatorPtr reference = Join(Source(probe), swapped(Unfiltered(*b)),
                               TwoColLayout(0), 1, {{0, 0}}, 0, &exprs);
  const std::string expected = Render(reference.get());
  EXPECT_EQ(expected, "(10, 0, 10, 1)(10, 0, 10, 3)");
  EXPECT_EQ(Render(join.get()), expected);
  EXPECT_EQ(scan_op->key_filtered_rows(), 2);  // V = 20 and V = 30
}

// A set pushed down a probe side lands only on scans that feed a lower
// join's build side: the scan that drives the probe side keeps every row,
// since there a dropped row would only trade one hash probe for another.
TEST(KeyFilterTest, ProbeSideDrivingScanTakesNoSet) {
  std::unique_ptr<Table> a =
      MakeTable({Row(1, 0), Row(2, 0), Row(3, 0), Row(4, 0)});
  Layout lower = TwoColLayout(1);
  lower.Add(2, 2, 2);
  std::vector<ExprPtr> exprs;
  auto scan = std::make_unique<ScanOp>(a.get(), nullptr);
  ScanOp* scan_op = scan.get();
  OperatorPtr l = Join(std::move(scan), Source({Row(0, 7)}), TwoColLayout(1),
                       2, {{1, 0}}, 1, &exprs);
  // The upper key is the driving scan's K (q1.#0).
  OperatorPtr join = Join(std::move(l), Source({Row(2, 9)}), lower, 3,
                          {{0, 0}}, 1, &exprs);
  EXPECT_EQ(Render(join.get()), "(2, 0, 0, 7, 2, 9)");
  EXPECT_EQ(scan_op->actuals().rows, 4);
  EXPECT_EQ(scan_op->key_filtered_rows(), 0);
}

// NULL is never in a set: a NULL-keyed row is dropped like a non-member,
// and a NULL probe key adds nothing to the set.
TEST(KeyFilterTest, NullKeysAreDropped) {
  std::unique_ptr<Table> b = MakeTable({{Value::Null(), Value(int64_t{1})},
                                        Row(4, 2), Row(5, 3), Row(6, 4)});
  const std::vector<Tuple> probe = {{Value::Null(), Value(int64_t{0})},
                                    Row(4, 0)};
  std::vector<ExprPtr> exprs;
  auto scan = std::make_unique<ScanOp>(b.get(), nullptr);
  ScanOp* scan_op = scan.get();
  OperatorPtr join = Join(Spool(probe), std::move(scan), TwoColLayout(0), 1,
                          {{0, 0}}, 0, &exprs);
  OperatorPtr reference = Join(Source(probe), Unfiltered(*b), TwoColLayout(0),
                               1, {{0, 0}}, 0, &exprs);
  const std::string expected = Render(reference.get());
  EXPECT_EQ(expected, "(4, 0, 4, 2)");
  EXPECT_EQ(Render(join.get()), expected);
  EXPECT_EQ(scan_op->actuals().rows, 1);
  EXPECT_EQ(scan_op->key_filtered_rows(), 3);
}

// Set membership is the join's key equality: DOUBLE 2.0 keeps INTEGER 2.
TEST(KeyFilterTest, IntegerKeysMatchDoubleSet) {
  std::unique_ptr<Table> b =
      MakeTable({Row(1, 10), Row(2, 20), Row(3, 30), Row(2, 21)});
  const std::vector<Tuple> probe = {{Value(2.0), Value(int64_t{0})}};
  std::vector<ExprPtr> exprs;
  auto scan = std::make_unique<ScanOp>(b.get(), nullptr);
  ScanOp* scan_op = scan.get();
  OperatorPtr join = Join(Spool(probe), std::move(scan), TwoColLayout(0), 1,
                          {{0, 0}}, 0, &exprs);
  OperatorPtr reference = Join(Source(probe), Unfiltered(*b), TwoColLayout(0),
                               1, {{0, 0}}, 0, &exprs);
  const std::string expected = Render(reference.get());
  EXPECT_EQ(expected, "(2, 0, 2, 20)(2, 0, 2, 21)");
  EXPECT_EQ(Render(join.get()), expected);
  EXPECT_EQ(scan_op->key_filtered_rows(), 2);
}

// The filter tests keys only; the residual predicate still decides among
// the rows it keeps.
TEST(KeyFilterTest, ResidualPredicateStillApplies) {
  std::unique_ptr<Table> b = MakeTable(
      {Row(1, 100), Row(1, 5), Row(2, 1), Row(3, 300), Row(4, 400)});
  const std::vector<Tuple> probe = {Row(1, 10), Row(2, 20)};
  ExprPtr residual =
      Expr::MakeBinary(">", Expr::MakeColRef(1, 1), Expr::MakeColRef(0, 1));
  std::vector<ExprPtr> exprs;
  auto scan = std::make_unique<ScanOp>(b.get(), nullptr);
  ScanOp* scan_op = scan.get();
  OperatorPtr join = Join(Spool(probe), std::move(scan), TwoColLayout(0), 1,
                          {{0, 0}}, 0, &exprs, residual.get());
  OperatorPtr reference = Join(Source(probe), Unfiltered(*b), TwoColLayout(0),
                               1, {{0, 0}}, 0, &exprs, residual.get());
  const std::string expected = Render(reference.get());
  EXPECT_EQ(expected, "(1, 10, 1, 100)");
  EXPECT_EQ(Render(join.get()), expected);
  EXPECT_EQ(scan_op->key_filtered_rows(), 2);
}

// A multi-key join builds one set per key column, from the spool's rows
// or from its build keys, and a scan keeps a row only when every column
// it is filtered on holds a member.
TEST(KeyFilterTest, MultiKeyJoinFiltersEachKeyColumn) {
  std::unique_ptr<Table> b = MakeTable({Row(1, 10), Row(1, 20), Row(2, 20),
                                        Row(3, 10), Row(2, 30), Row(4, 40)});
  const std::vector<Tuple> keys = {Row(1, 10), Row(2, 20)};
  std::vector<ExprPtr> exprs;
  // A spool on the probe side.
  auto scan = std::make_unique<ScanOp>(b.get(), nullptr);
  ScanOp* scan_op = scan.get();
  OperatorPtr join = Join(Spool(keys), std::move(scan), TwoColLayout(0), 1,
                          {{0, 0}, {1, 1}}, 0, &exprs);
  OperatorPtr reference = Join(Source(keys), Unfiltered(*b), TwoColLayout(0),
                               1, {{0, 0}, {1, 1}}, 0, &exprs);
  const std::string expected = Render(reference.get());
  EXPECT_EQ(expected, "(1, 10, 1, 10)(2, 20, 2, 20)");
  EXPECT_EQ(Render(join.get()), expected);
  EXPECT_EQ(scan_op->key_filtered_rows(), 3);  // (3,10) (2,30) (4,40)

  // Build keys pushed through a lower join: the upper join matches the
  // lower build side's (K, V) against `keys`.
  Layout lower = TwoColLayout(0);
  lower.Add(1, 2, 2);
  const std::vector<Tuple> a = {Row(1, 0), Row(2, 0), Row(3, 0), Row(4, 0)};
  auto build = [&](OperatorPtr b_side) {
    OperatorPtr l = Join(Source(a), std::move(b_side), TwoColLayout(0), 1,
                         {{0, 0}}, 0, &exprs);
    return Join(std::move(l), Source(keys), lower, 2, {{0, 0}, {1, 1}}, 1,
                &exprs);
  };
  auto lower_scan = std::make_unique<ScanOp>(b.get(), nullptr);
  ScanOp* lower_scan_op = lower_scan.get();
  OperatorPtr upper = build(std::move(lower_scan));
  OperatorPtr upper_reference = build(Unfiltered(*b));
  const std::string upper_expected = Render(upper_reference.get());
  EXPECT_EQ(upper_expected, "(1, 0, 1, 10, 1, 10)(2, 0, 2, 20, 2, 20)");
  EXPECT_EQ(Render(upper.get()), upper_expected);
  EXPECT_EQ(lower_scan_op->key_filtered_rows(), 3);
}

// An empty build side is an empty set: the lower build scan drops every
// row, and still counts each as scanned.
TEST(KeyFilterTest, EmptyBuildSideDropsEveryLowerBuildRow) {
  std::unique_ptr<Table> b = MakeTable({Row(1, 100), Row(2, 200)});
  Layout lower = TwoColLayout(0);
  lower.Add(1, 2, 2);
  std::vector<ExprPtr> exprs;
  ExecStats stats;
  auto scan = std::make_unique<ScanOp>(b.get(), &stats);
  ScanOp* scan_op = scan.get();
  OperatorPtr l = Join(Source({Row(1, 0), Row(2, 0)}), std::move(scan),
                       TwoColLayout(0), 1, {{0, 0}}, 0, &exprs);
  OperatorPtr join = Join(std::move(l), Source({}), lower, 2, {{1, 0}}, 1,
                          &exprs);
  EXPECT_EQ(Render(join.get()), "");
  EXPECT_EQ(scan_op->actuals().rows, 0);
  EXPECT_EQ(scan_op->key_filtered_rows(), 2);
  EXPECT_EQ(stats.rows_scanned, 2);
}

// A set no smaller than the column's distinct count could drop no row of
// a column whose values it all holds, so the scan is not given it.
TEST(KeyFilterTest, SetNotSmallerThanDistinctCountIsNotApplied) {
  std::unique_ptr<Table> b =
      MakeTable({Row(1, 10), Row(2, 20), Row(3, 30), Row(1, 11)});
  const std::vector<Tuple> probe = {Row(1, 0), Row(2, 0), Row(9, 0)};
  std::vector<ExprPtr> exprs;
  auto scan = std::make_unique<ScanOp>(b.get(), nullptr);
  ScanOp* scan_op = scan.get();
  OperatorPtr join = Join(Spool(probe), std::move(scan), TwoColLayout(0), 1,
                          {{0, 0}}, 0, &exprs);
  join->EnableAnalyze();
  EXPECT_EQ(Render(join.get()), "(1, 0, 1, 10)(1, 0, 1, 11)(2, 0, 2, 20)");
  EXPECT_EQ(scan_op->actuals().rows, 4);
  EXPECT_EQ(scan_op->key_filtered_rows(), 0);
  std::string plan;
  join->Explain(0, &plan);
  EXPECT_EQ(plan.find("key_filter"), std::string::npos) << plan;
}

}  // namespace
}  // namespace xnfdb
