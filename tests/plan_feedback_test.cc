// Plan-quality observability: rewrite-rule traces, cardinality feedback and
// plan-change detection (SYS$REWRITES / SYS$PLAN_FEEDBACK /
// SYS$PLAN_HISTORY), plus the q-error edge cases and the per-statement
// record's feedback merge, plan eviction and bounds.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/database.h"
#include "common/log.h"
#include "obs/statement_record.h"
#include "tests/paper_db.h"
#include "xnf/compiler.h"

namespace xnfdb {
namespace {

std::vector<Tuple> MustRows(Database* db, const std::string& sql) {
  Result<QueryResult> r = db->Query(sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  if (!r.ok()) return {};
  return r.value().rows();
}

int64_t CounterOr0(Database* db, const std::string& name) {
  obs::MetricsSnapshot snap = db->metrics().Snapshot();
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

TEST(QErrorTest, EdgesAreFiniteAndSymmetric) {
  // Both sides clamp to >= 1 row, so the zero edges stay finite.
  EXPECT_DOUBLE_EQ(obs::QError(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(obs::QError(0.0, 5.0), 5.0);
  EXPECT_DOUBLE_EQ(obs::QError(5.0, 0.0), 5.0);
  EXPECT_DOUBLE_EQ(obs::QError(10.0, 1000.0), 100.0);
  EXPECT_DOUBLE_EQ(obs::QError(1000.0, 10.0), 100.0);
  EXPECT_DOUBLE_EQ(obs::QError(42.0, 42.0), 1.0);
}

TEST(RewriteTraceTest, CompileTraceIsDeterministic) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  Result<CompiledQuery> a =
      CompileQueryString(db.catalog(), testing_util::kDepsArcQuery);
  Result<CompiledQuery> b =
      CompileQueryString(db.catalog(), testing_util::kDepsArcQuery);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const obs::RewriteTrace& ta = a.value().rewrite_stats.trace;
  const obs::RewriteTrace& tb = b.value().rewrite_stats.trace;
  ASSERT_FALSE(ta.events.empty());
  ASSERT_EQ(ta.events.size(), tb.events.size());
  for (size_t i = 0; i < ta.events.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(ta.events[i].rule, tb.events[i].rule);
    EXPECT_EQ(ta.events[i].pass, tb.events[i].pass);
    EXPECT_EQ(ta.events[i].fired, tb.events[i].fired);
    EXPECT_EQ(ta.events[i].rejected, tb.events[i].rejected);
    EXPECT_EQ(ta.events[i].boxes_before, tb.events[i].boxes_before);
    EXPECT_EQ(ta.events[i].boxes_after, tb.events[i].boxes_after);
  }
  // The XNF semantic rewrite phase leads the log as a pass-0 pseudo-rule.
  EXPECT_EQ(ta.events[0].rule, "XnfSemanticRewrite");
  EXPECT_EQ(ta.events[0].pass, 0);
  EXPECT_TRUE(ta.events[0].fired);
}

TEST(RewriteTraceTest, ExplainRewritePrintsOrderedRuleLog) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  Database::ExplainOptions xopts;
  xopts.rewrite = true;
  Result<std::string> out =
      db.Explain(testing_util::kDepsArcQuery, xopts);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const std::string& text = out.value();
  EXPECT_NE(text.find("rewrite log ("), std::string::npos) << text;
  EXPECT_NE(text.find("XnfSemanticRewrite"), std::string::npos) << text;
  // The log precedes the plan body, and the body is still the plain
  // EXPLAIN rendering.
  EXPECT_LT(text.find("rewrite log ("), text.find("operations: "));
  EXPECT_NE(text.find("output XDEPT:"), std::string::npos) << text;
  // Events are numbered in firing order.
  EXPECT_NE(text.find("#1"), std::string::npos) << text;
}

TEST(RewriteTraceTest, RuleMetricsPublishedToRegistry) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  ASSERT_TRUE(db.Query(testing_util::kDepsArcQuery).ok());
  obs::MetricsSnapshot snap = db.metrics().Snapshot();
  EXPECT_GT(snap.counters.at("rewrite.rule.XnfSemanticRewrite.fired"), 0);
  bool saw_engine_rule = false;
  for (const auto& [name, v] : snap.counters) {
    if (name.rfind("rewrite.rule.", 0) == 0 &&
        name.find("XnfSemanticRewrite") == std::string::npos && v > 0) {
      saw_engine_rule = true;
    }
  }
  EXPECT_TRUE(saw_engine_rule);
}

TEST(PlanFeedbackTest, PlanHashStableAcrossExecutionKnobs) {
  Database db;
  // This test is about the join-tree plan shape of repeated real
  // executions; keep the matview store from flipping the third run to a
  // matview_scan plan (that flip has its own coverage in matview_test).
  db.matviews().set_enabled(false);
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  // A morsel-split scan pipeline, and one whose clones each build a
  // hash-join side off the morsel path.
  for (const char* q : {"SELECT ENAME FROM EMP WHERE SAL > 75000.0",
                        "SELECT e.ENAME, d.DNAME FROM EMP e, DEPT d "
                        "WHERE e.EDNO = d.DNO"}) {
    SCOPED_TRACE(q);
    ExecOptions base;
    base.plan.morsel_workers = 1;
    Result<QueryResult> a = db.Query(q, {}, base);
    ASSERT_TRUE(a.ok());
    ASSERT_NE(a.value().plan_hash, 0u);
    ExecOptions small_batches = base;
    small_batches.batch_size = 1;
    Result<QueryResult> b = db.Query(q, {}, small_batches);
    ASSERT_TRUE(b.ok());
    ExecOptions morsels;
    morsels.plan.morsel_workers = 4;
    Result<QueryResult> c = db.Query(q, {}, morsels);
    ASSERT_TRUE(c.ok());
    // The plan-shape hash keys plan-change detection: execution knobs that
    // do not change the operator tree must not flip it.
    EXPECT_EQ(a.value().plan_hash, b.value().plan_hash);
    EXPECT_EQ(a.value().plan_hash, c.value().plan_hash);
    EXPECT_EQ(a.value().plan_shape, c.value().plan_shape);
    // The clones of a split pipeline fold as one loop of it, so every
    // operator's feedback is the serial one. (Database::Query moves the
    // feedback into the statement record, so run the executor directly.)
    Result<CompiledQuery> compiled = CompileQueryString(db.catalog(), q);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    Result<QueryResult> fa =
        ExecuteGraph(db.catalog(), *compiled.value().graph, base);
    Result<QueryResult> fc =
        ExecuteGraph(db.catalog(), *compiled.value().graph, morsels);
    ASSERT_TRUE(fa.ok() && fc.ok());
    ASSERT_GT(fc.value().stats.morsels_claimed.load(), 1);
    const std::vector<obs::OpFeedback>& a_ops = fa.value().feedback;
    const std::vector<obs::OpFeedback>& c_ops = fc.value().feedback;
    ASSERT_FALSE(a_ops.empty());
    ASSERT_EQ(a_ops.size(), c_ops.size());
    for (size_t i = 0; i < a_ops.size(); ++i) {
      SCOPED_TRACE(a_ops[i].op);
      EXPECT_EQ(a_ops[i].op, c_ops[i].op);
      EXPECT_DOUBLE_EQ(a_ops[i].q_error, c_ops[i].q_error);
    }
  }
}

TEST(PlanFeedbackTest, IndexCreationFlipsPlanAndWarns) {
  Database db;
  db.matviews().set_enabled(true);  // the matview flips below need it
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INTEGER, B INTEGER)").ok());
  std::string script;
  for (int i = 0; i < 32; ++i) {
    script += "INSERT INTO T VALUES (" + std::to_string(i) + ", 0);";
  }
  ASSERT_TRUE(db.ExecuteScript(script).ok());
  const char* q = "SELECT B FROM T WHERE A = 7";
  ASSERT_TRUE(db.Query(q).ok());
  const int64_t changes_before = CounterOr0(&db, "plan.changes");
  std::vector<std::string> lines;
  Logger::Default().SetSink([&](const std::string& l) { lines.push_back(l); });
  ASSERT_TRUE(db.Execute("CREATE INDEX ON T (A)").ok());
  Result<QueryResult> after = db.Query(q);
  Logger::Default().SetSink(nullptr);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after.value().plan_shape.find("index_scan:T.A"),
            std::string::npos)
      << after.value().plan_shape;
  EXPECT_EQ(CounterOr0(&db, "plan.changes"), changes_before + 1);
  bool warned = false;
  for (const std::string& l : lines) {
    if (l.find("planchange") != std::string::npos &&
        l.find("statement plan changed") != std::string::npos) {
      warned = true;
      EXPECT_NE(l.find("from_plan"), std::string::npos) << l;
      EXPECT_NE(l.find("to_plan"), std::string::npos) << l;
    }
  }
  EXPECT_TRUE(warned);
  // The history keeps both plans, with the index plan marked current.
  std::vector<Tuple> rows = MustRows(
      &db, "SELECT PLAN_SHAPE, CURRENT FROM SYS$PLAN_HISTORY");
  int for_t = 0, current_index_plan = 0;
  for (const Tuple& row : rows) {
    const std::string& shape = row[0].AsString();
    if (shape.find("scan:T") == std::string::npos) continue;
    ++for_t;
    if (shape.find("index_scan:T.A") != std::string::npos &&
        row[1].AsInt() == 1) {
      ++current_index_plan;
    }
  }
  EXPECT_GE(for_t, 2);
  EXPECT_EQ(current_index_plan, 1);

  // A materialized view starting to serve the statement (the auto-capture
  // policy stored the previous run), and stopping again, are expected
  // flips: both land in the history, neither warns nor counts.
  const int64_t changes_after_index = CounterOr0(&db, "plan.changes");
  lines.clear();
  Logger::Default().SetSink([&](const std::string& l) { lines.push_back(l); });
  Result<QueryResult> served = db.Query(q);
  db.matviews().set_enabled(false);
  Result<QueryResult> unserved = db.Query(q);
  Logger::Default().SetSink(nullptr);
  ASSERT_TRUE(served.ok());
  ASSERT_TRUE(unserved.ok());
  EXPECT_NE(served.value().plan_shape.find("matview_scan"), std::string::npos)
      << served.value().plan_shape;
  EXPECT_EQ(unserved.value().plan_shape, after.value().plan_shape);
  EXPECT_EQ(served.value().rows(), after.value().rows());
  EXPECT_EQ(CounterOr0(&db, "plan.changes"), changes_after_index);
  for (const std::string& l : lines) {
    EXPECT_EQ(l.find("planchange"), std::string::npos) << l;
  }
  bool matview_plan_recorded = false;
  for (const Tuple& row : MustRows(
           &db, "SELECT PLAN_SHAPE FROM SYS$PLAN_HISTORY")) {
    if (row[0].AsString().find("matview_scan") != std::string::npos) {
      matview_plan_recorded = true;
    }
  }
  EXPECT_TRUE(matview_plan_recorded);
}

TEST(PlanFeedbackTest, AllThreeViewsQueryableThroughSql) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  ASSERT_TRUE(db.Query("SELECT ENAME FROM EMP WHERE SAL > 75000.0").ok());
  ASSERT_TRUE(db.Query(testing_util::kDepsArcQuery).ok());
  std::vector<Tuple> rewrites = MustRows(
      &db, "SELECT DIGEST, SEQ, RULE, FIRED FROM SYS$REWRITES");
  EXPECT_FALSE(rewrites.empty());
  std::vector<Tuple> feedback = MustRows(
      &db,
      "SELECT DIGEST, RANK, OP, EST_ROWS, ACTUAL_ROWS, Q_ERROR "
      "FROM SYS$PLAN_FEEDBACK");
  ASSERT_FALSE(feedback.empty());
  for (const Tuple& row : feedback) {
    EXPECT_GE(row[1].AsInt(), 1);          // RANK
    EXPECT_GE(row[5].AsDouble(), 1.0);     // Q_ERROR is always >= 1
  }
  std::vector<Tuple> plans = MustRows(
      &db,
      "SELECT DIGEST, PLAN_HASH, PLAN_SHAPE, EXECUTIONS, CURRENT "
      "FROM SYS$PLAN_HISTORY");
  ASSERT_FALSE(plans.empty());
  for (const Tuple& row : plans) {
    EXPECT_GE(row[3].AsInt(), 1);
  }
  // Worst offenders are ranked: within a digest, rank 1 has the highest
  // q-error.
  std::vector<Tuple> ranked = MustRows(
      &db, "SELECT DIGEST, RANK, Q_ERROR FROM SYS$PLAN_FEEDBACK");
  for (const Tuple& a : ranked) {
    for (const Tuple& b : ranked) {
      if (a[0].AsString() == b[0].AsString() &&
          a[1].AsInt() < b[1].AsInt()) {
        EXPECT_GE(a[2].AsDouble(), b[2].AsDouble());
      }
    }
  }
}

// One finished statement: a compile with a one-event trace, or (with a
// non-zero plan hash) an execution of that plan carrying `feedback`.
obs::StatementSample Sample(uint64_t digest, uint64_t plan_hash,
                            std::vector<obs::OpFeedback> feedback = {},
                            bool matview = false) {
  obs::StatementSample s;
  s.digest = digest;
  s.text = "q" + std::to_string(digest);
  s.kind = "query";
  s.compiled = true;
  s.trace.Add(obs::RewriteEvent{"SelectMerge", 1, true, 0, 1, 3, 2});
  if (plan_hash != 0) {
    s.planned = true;
    s.plan_hash = plan_hash;
    s.plan_shape = "shape-" + std::to_string(plan_hash);
    s.plan_is_matview = matview;
    s.execute_us = 100;
    s.feedback = std::move(feedback);
  }
  return s;
}

obs::StatementRecordStore::PlanChange Record(
    obs::StatementRecordStore* store, obs::StatementSample s,
    obs::OpFeedback* top = nullptr) {
  return store->Record(s, top);
}

TEST(PlanFeedbackTest, StoreIsBoundedAndEvictsOldestPlan) {
  obs::StatementRecordStore store(/*capacity=*/2, /*max_ops=*/2,
                                  /*max_plans=*/2);
  Record(&store, Sample(1, 0));
  Record(&store, Sample(2, 0));
  Record(&store, Sample(3, 0));  // over capacity: dropped
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.dropped(), 1);
  // Three distinct plans for digest 1: the oldest-seen one is evicted.
  EXPECT_FALSE(Record(&store, Sample(1, 11)).changed);
  obs::StatementRecordStore::PlanChange flip = Record(&store, Sample(1, 22));
  EXPECT_TRUE(flip.changed);
  EXPECT_FALSE(flip.matview);
  EXPECT_EQ(flip.from, 11u);
  EXPECT_EQ(flip.to, 22u);
  EXPECT_TRUE(Record(&store, Sample(1, 33)).changed);
  std::vector<obs::StatementRecord> snap = store.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  const obs::StatementRecord& s1 = snap[0];
  EXPECT_EQ(s1.digest, 1u);
  ASSERT_EQ(s1.plans.size(), 2u);
  for (const obs::PlanRecord& p : s1.plans) {
    EXPECT_NE(p.plan_hash, 11u);  // the first plan was evicted
  }
  EXPECT_EQ(s1.current_plan, 33u);
  EXPECT_EQ(s1.executions, 3);
  EXPECT_EQ(s1.calls, 4);  // the compile-only sample counts as a call
  ASSERT_EQ(s1.trace.events.size(), 1u);
  // Flips into and out of a materialized-view serve are marked expected.
  obs::StatementRecordStore::PlanChange into =
      Record(&store, Sample(1, 44, {}, /*matview=*/true));
  EXPECT_TRUE(into.changed);
  EXPECT_TRUE(into.matview);
  obs::StatementRecordStore::PlanChange out_of = Record(&store, Sample(1, 33));
  EXPECT_TRUE(out_of.changed);
  EXPECT_TRUE(out_of.matview);
  EXPECT_FALSE(Record(&store, Sample(1, 33)).changed);
  // Worst-offender list is truncated to max_ops, sorted by q-error.
  std::vector<obs::OpFeedback> fb(3);
  fb[0] = {"OUT", "scan", 10.0, 1000, 1, obs::QError(10.0, 1000.0)};
  fb[1] = {"OUT", "filter", 10.0, 20, 1, obs::QError(10.0, 20.0)};
  fb[2] = {"OUT", "hash_join", 10.0, 5000, 1, obs::QError(10.0, 5000.0)};
  obs::OpFeedback top;
  Record(&store, Sample(2, 55, std::move(fb)), &top);
  EXPECT_EQ(top.op, "hash_join");
  snap = store.Snapshot();
  const obs::StatementRecord& s2 = snap[1];
  ASSERT_EQ(s2.worst.size(), 2u);
  EXPECT_EQ(s2.worst[0].op, "hash_join");
  EXPECT_EQ(s2.worst[1].op, "scan");
  // Merge: the same (output, op) slot keeps whichever observation is worse.
  Record(&store, Sample(2, 55,
                        {{"OUT", "scan", 10.0, 20000, 1,
                          obs::QError(10.0, 20000.0)},
                         {"OUT", "hash_join", 10.0, 10, 1, 1.0}}));
  snap = store.Snapshot();
  ASSERT_EQ(snap[1].worst.size(), 2u);
  EXPECT_EQ(snap[1].worst[0].op, "scan");
  EXPECT_EQ(snap[1].worst[0].actual_rows, 20000);
  EXPECT_EQ(snap[1].worst[1].op, "hash_join");
  EXPECT_EQ(snap[1].worst[1].actual_rows, 5000);  // the better one lost
  // No feedback recorded: the top misestimate is empty.
  Record(&store, Sample(1, 33), &top);
  EXPECT_TRUE(top.op.empty());
  store.Reset();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.dropped(), 0);
}

TEST(PlanFeedbackTest, EnvKnobDisablesCapture) {
  // One capture switch: XNFDB_QUERY_PROFILES=0 also turns off the rewrite
  // trace, cardinality feedback and plan history.
  Config config;
  config.query_profiles = false;  // XNFDB_QUERY_PROFILES=0
  Database db(Env::Default(), config);
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  Result<QueryResult> r = db.Query("SELECT ENO FROM EMP");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().plan_shape.empty());
  for (const obs::StatementRecord& s : db.statements().Snapshot()) {
    EXPECT_TRUE(s.trace.events.empty()) << s.text;
    EXPECT_TRUE(s.worst.empty()) << s.text;
    EXPECT_TRUE(s.plans.empty()) << s.text;
  }
  // The views stay registered and queryable — just empty.
  EXPECT_TRUE(MustRows(&db, "SELECT * FROM SYS$PLAN_HISTORY").empty());
  EXPECT_TRUE(MustRows(&db, "SELECT * FROM SYS$REWRITES").empty());
  EXPECT_TRUE(MustRows(&db, "SELECT * FROM SYS$PLAN_FEEDBACK").empty());
}

TEST(PlanFeedbackTest, SlowlogCarriesTopMisestimate) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  // Prime the store so the digest has feedback, then arm the slow-query
  // log at zero and re-run: the line must name the worst-estimated
  // operator.
  const char* q = "SELECT ENAME FROM EMP WHERE SAL > 75000.0";
  ASSERT_TRUE(db.Query(q).ok());
  db.SetSlowQueryThreshold(0);
  std::vector<std::string> lines;
  Logger::Default().SetSink([&](const std::string& l) { lines.push_back(l); });
  Result<QueryResult> r = db.Query(q);
  Logger::Default().SetSink(nullptr);
  db.SetSlowQueryThreshold(-1);
  ASSERT_TRUE(r.ok());
  bool annotated = false;
  for (const std::string& l : lines) {
    if (l.find("slowlog") != std::string::npos &&
        l.find("top_misestimate") != std::string::npos) {
      annotated = true;
    }
  }
  EXPECT_TRUE(annotated);
}

TEST(PlanFeedbackTest, AnalyzeFooterReportsWorstEstimate) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  Result<std::string> out = db.Explain("SELECT ENAME FROM EMP WHERE SAL > "
                                       "75000.0",
                                       Database::ExplainOptions{true});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out.value().find("feedback: worst estimate"), std::string::npos)
      << out.value();
  EXPECT_NE(out.value().find("q-error="), std::string::npos) << out.value();
}

}  // namespace
}  // namespace xnfdb
