// Unit tests for the plan optimizer: cardinality estimation, access-path
// and join-method selection, spooling of shared boxes, and plan-option
// behaviour.

#include <gtest/gtest.h>

#include "optimizer/planner.h"
#include "parser/parser.h"
#include "semantics/builder.h"
#include "storage/catalog.h"

namespace xnfdb {
namespace {

// 100 depts (10 ARC), 1000 emps.
Catalog MakeCatalog() {
  Catalog c;
  Table* dept = c.CreateTable("DEPT", Schema({{"DNO", DataType::kInt},
                                              {"LOC", DataType::kString}}))
                    .value();
  Table* emp = c.CreateTable("EMP", Schema({{"ENO", DataType::kInt},
                                            {"EDNO", DataType::kInt}}))
                   .value();
  for (int d = 0; d < 100; ++d) {
    dept->Insert({Value(int64_t{d}), Value(d < 10 ? "ARC" : "YKT")}).value();
  }
  for (int e = 0; e < 1000; ++e) {
    emp->Insert({Value(int64_t{e}), Value(int64_t{e % 100})}).value();
  }
  { Status s = c.DeclarePrimaryKey("DEPT", "DNO"); EXPECT_TRUE(s.ok()); }
  { Status s = c.DeclarePrimaryKey("EMP", "ENO"); EXPECT_TRUE(s.ok()); }
  return c;
}

std::unique_ptr<qgm::QueryGraph> Graph(const Catalog& c,
                                       const std::string& sql) {
  Result<std::unique_ptr<ast::SelectStmt>> sel = ParseSelectQuery(sql);
  EXPECT_TRUE(sel.ok()) << sel.status().ToString();
  Result<std::unique_ptr<qgm::QueryGraph>> g = BuildSelect(c, *sel.value());
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

int BodyBox(const qgm::QueryGraph& g) {
  return g.box(g.top_box_id())->outputs[0].box_id;
}

TEST(PlannerTest, CardinalityEstimates) {
  Catalog c = MakeCatalog();
  ExecStats stats;

  std::unique_ptr<qgm::QueryGraph> scan = Graph(c, "SELECT * FROM EMP");
  Planner p1(&c, scan.get(), PlanOptions{}, &stats);
  EXPECT_NEAR(p1.EstimateCard(BodyBox(*scan)), 1000.0, 1.0);

  // Equality on a unique column: ~1 row.
  std::unique_ptr<qgm::QueryGraph> point =
      Graph(c, "SELECT * FROM EMP WHERE ENO = 5");
  Planner p2(&c, point.get(), PlanOptions{}, &stats);
  EXPECT_NEAR(p2.EstimateCard(BodyBox(*point)), 1.0, 0.5);

  // FK join: about |EMP| rows.
  std::unique_ptr<qgm::QueryGraph> join = Graph(
      c, "SELECT * FROM EMP e, DEPT d WHERE e.EDNO = d.DNO");
  Planner p3(&c, join.get(), PlanOptions{}, &stats);
  double join_card = p3.EstimateCard(BodyBox(*join));
  EXPECT_GT(join_card, 100.0);
  EXPECT_LT(join_card, 10000.0);
}

TEST(PlannerTest, IndexAccessPathOnlyForIndexedEquality) {
  Catalog c = MakeCatalog();
  ExecStats stats;
  std::unique_ptr<qgm::QueryGraph> g =
      Graph(c, "SELECT * FROM DEPT WHERE DNO = 3");
  Planner planner(&c, g.get(), PlanOptions{}, &stats);
  Result<OperatorPtr> op = planner.BoxIterator(BodyBox(*g));
  ASSERT_TRUE(op.ok());
  Result<std::vector<Tuple>> rows = DrainOperator(op.value().get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(stats.index_lookups, 1);
  EXPECT_EQ(stats.rows_scanned, 1);  // only the index hit

  // No index on LOC: a full scan.
  ExecStats stats2;
  std::unique_ptr<qgm::QueryGraph> g2 =
      Graph(c, "SELECT * FROM DEPT WHERE LOC = 'ARC'");
  Planner planner2(&c, g2.get(), PlanOptions{}, &stats2);
  Result<OperatorPtr> op2 = planner2.BoxIterator(BodyBox(*g2));
  ASSERT_TRUE(op2.ok());
  ASSERT_TRUE(DrainOperator(op2.value().get()).ok());
  EXPECT_EQ(stats2.index_lookups, 0);
  EXPECT_EQ(stats2.rows_scanned, 100);
}

TEST(PlannerTest, SharedBoxMaterializedOnce) {
  Catalog c = MakeCatalog();
  // A view referenced twice in one query -> one shared box -> one spool.
  ViewDef v;
  v.name = "ARCD";
  v.definition = "SELECT * FROM DEPT WHERE LOC = 'ARC'";
  ASSERT_TRUE(c.CreateView(v).ok());
  std::unique_ptr<qgm::QueryGraph> g = Graph(
      c, "SELECT a.DNO FROM ARCD a, ARCD b WHERE a.DNO = b.DNO");
  ExecStats stats;
  Planner planner(&c, g.get(), PlanOptions{}, &stats);
  Result<OperatorPtr> op = planner.BoxIterator(BodyBox(*g));
  ASSERT_TRUE(op.ok());
  Result<std::vector<Tuple>> rows = DrainOperator(op.value().get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 10u);
  EXPECT_EQ(stats.spool_builds, 1);
  EXPECT_GT(stats.spool_read_rows, 0);
  // The ARC selection scanned DEPT exactly once.
  EXPECT_EQ(stats.rows_scanned, 100);
}

TEST(PlannerTest, PlanningExecutesNothing) {
  Catalog c = MakeCatalog();
  ViewDef v;
  v.name = "ARCD";
  v.definition = "SELECT * FROM DEPT WHERE LOC = 'ARC'";
  ASSERT_TRUE(c.CreateView(v).ok());

  // A shared box is compiled into a spool, not filled: nothing is scanned
  // until a reader opens it.
  std::unique_ptr<qgm::QueryGraph> shared = Graph(
      c, "SELECT a.DNO FROM ARCD a, ARCD b WHERE a.DNO = b.DNO");
  ExecStats stats;
  Planner planner(&c, shared.get(), PlanOptions{}, &stats);
  Result<OperatorPtr> op = planner.BoxIterator(BodyBox(*shared));
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  EXPECT_EQ(stats.rows_scanned, 0);
  EXPECT_EQ(stats.spool_builds, 0);
  Result<std::vector<Tuple>> rows = DrainOperator(op.value().get());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows.value().size(), 10u);
  EXPECT_EQ(stats.spool_builds, 1);
  EXPECT_EQ(stats.rows_scanned, 100);

  // Existential groups are compiled, not drained.
  const std::string groups =
      "(EXISTS (SELECT 1 FROM EMP e WHERE e.EDNO = d.DNO) OR "
      "EXISTS (SELECT 1 FROM EMP f WHERE f.ENO = d.DNO))";
  std::unique_ptr<qgm::QueryGraph> exists =
      Graph(c, "SELECT d.DNO FROM DEPT d WHERE " + groups);
  ExecStats exists_stats;
  Planner exists_planner(&c, exists.get(), PlanOptions{}, &exists_stats);
  Result<OperatorPtr> exists_op = exists_planner.BoxIterator(BodyBox(*exists));
  ASSERT_TRUE(exists_op.ok()) << exists_op.status().ToString();
  EXPECT_EQ(exists_stats.rows_scanned, 0);
  EXPECT_EQ(exists_stats.spool_builds, 0);
  rows = DrainOperator(exists_op.value().get());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows.value().size(), 100u);

  // When no outer row survives, no group is ever built: only the outer
  // table is scanned.
  std::unique_ptr<qgm::QueryGraph> empty = Graph(
      c, "SELECT d.DNO FROM DEPT d WHERE d.LOC = 'NOWHERE' AND " + groups);
  ExecStats empty_stats;
  Planner empty_planner(&c, empty.get(), PlanOptions{}, &empty_stats);
  Result<OperatorPtr> empty_op = empty_planner.BoxIterator(BodyBox(*empty));
  ASSERT_TRUE(empty_op.ok()) << empty_op.status().ToString();
  rows = DrainOperator(empty_op.value().get());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_TRUE(rows.value().empty());
  EXPECT_EQ(empty_stats.rows_scanned, 100);
  EXPECT_EQ(empty_stats.exists_probes, 0);
}

TEST(PlannerTest, SpoolingCanBeDisabled) {
  Catalog c = MakeCatalog();
  ViewDef v;
  v.name = "ARCD";
  v.definition = "SELECT * FROM DEPT WHERE LOC = 'ARC'";
  ASSERT_TRUE(c.CreateView(v).ok());
  std::unique_ptr<qgm::QueryGraph> g = Graph(
      c, "SELECT a.DNO FROM ARCD a, ARCD b WHERE a.DNO = b.DNO");
  ExecStats stats;
  PlanOptions opts;
  opts.spool_shared = false;
  Planner planner(&c, g.get(), opts, &stats);
  Result<OperatorPtr> op = planner.BoxIterator(BodyBox(*g));
  ASSERT_TRUE(op.ok());
  ASSERT_TRUE(DrainOperator(op.value().get()).ok());
  EXPECT_EQ(stats.spool_builds, 0);
  EXPECT_EQ(stats.rows_scanned, 200);  // DEPT scanned per consumer
}

TEST(PlannerTest, GreedyOrderStartsWithSelectiveSide) {
  // The planner should scan the filtered DEPT side first and probe with it;
  // either way the join must produce dept-1 employees only.
  Catalog c = MakeCatalog();
  std::unique_ptr<qgm::QueryGraph> g = Graph(
      c,
      "SELECT e.ENO FROM EMP e, DEPT d WHERE e.EDNO = d.DNO AND d.DNO = 1");
  ExecStats stats;
  Planner planner(&c, g.get(), PlanOptions{}, &stats);
  Result<OperatorPtr> op = planner.BoxIterator(BodyBox(*g));
  ASSERT_TRUE(op.ok());
  Result<std::vector<Tuple>> rows = DrainOperator(op.value().get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 10u);
  // DNO = 1 went through the PK index (cardinality-driven choice).
  EXPECT_GE(stats.index_lookups, 1);
}

TEST(PlannerTest, CompilingDeadBoxFails) {
  Catalog c = MakeCatalog();
  std::unique_ptr<qgm::QueryGraph> g = Graph(c, "SELECT * FROM EMP");
  int body = BodyBox(*g);
  g->MarkDead(body);
  ExecStats stats;
  Planner planner(&c, g.get(), PlanOptions{}, &stats);
  EXPECT_FALSE(planner.BoxIterator(body).ok());
}

}  // namespace
}  // namespace xnfdb
