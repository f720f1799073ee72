// Materialized CO views (src/matview/): automatic plan matching, pinned
// MATERIALIZE, incremental delta maintenance under DML streams, and the
// property that a materialization is always answer-equivalent to a scratch
// recomputation of the same view.
//
// Answer sets are compared canonically: component streams as row multisets,
// connection streams with every partner tid resolved to the partner row's
// content. A delta-maintained materialization keeps its original tuple ids
// while a scratch recompute assigns fresh ones, so raw tid comparison would
// reject answers that are identical up to tid renaming.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/database.h"
#include "common/log.h"
#include "exec/executor.h"
#include "tests/paper_db.h"

namespace xnfdb {
namespace {

using testing_util::LoadPaperDb;

// One output stream, canonicalized: component rows as a sorted multiset,
// connection tuples as sorted vectors of resolved partner-row contents.
struct CanonicalOutput {
  bool is_connection = false;
  std::vector<Tuple> rows;                // components (sorted)
  std::vector<std::vector<Tuple>> conns;  // connections (sorted)

  bool operator==(const CanonicalOutput& o) const {
    return is_connection == o.is_connection && rows == o.rows &&
           conns == o.conns;
  }
};

std::map<std::string, CanonicalOutput> Canonicalize(const QueryResult& r) {
  // tid -> row content, per component output.
  std::map<int, std::map<TupleId, Tuple>> content;
  for (const StreamItem& item : r.stream) {
    if (item.kind == StreamItem::Kind::kRow) {
      content[item.output][item.tid] = item.values;
    }
  }
  std::map<std::string, CanonicalOutput> canon;
  for (size_t oi = 0; oi < r.outputs.size(); ++oi) {
    CanonicalOutput& c = canon[r.outputs[oi].name];
    c.is_connection = r.outputs[oi].is_connection;
  }
  for (const StreamItem& item : r.stream) {
    const OutputDesc& desc = r.outputs[item.output];
    CanonicalOutput& c = canon[desc.name];
    if (item.kind == StreamItem::Kind::kRow) {
      c.rows.push_back(item.values);
      continue;
    }
    std::vector<Tuple> resolved;
    for (size_t pi = 0; pi < item.tids.size(); ++pi) {
      const int partner = r.FindOutput(desc.partner_names[pi]);
      EXPECT_GE(partner, 0) << "unknown partner " << desc.partner_names[pi];
      auto it = content[partner].find(item.tids[pi]);
      if (it == content[partner].end()) {
        ADD_FAILURE() << desc.name << ": dangling partner tid "
                      << item.tids[pi] << " into " << desc.partner_names[pi];
        resolved.push_back({});
      } else {
        resolved.push_back(it->second);
      }
    }
    c.conns.push_back(std::move(resolved));
  }
  for (auto& [name, c] : canon) {
    std::sort(c.rows.begin(), c.rows.end());
    std::sort(c.conns.begin(), c.conns.end());
  }
  return canon;
}

void ExpectEquivalent(const QueryResult& got, const QueryResult& want,
                      const std::string& label) {
  auto a = Canonicalize(got);
  auto b = Canonicalize(want);
  ASSERT_EQ(a.size(), b.size()) << label << ": output count differs";
  for (const auto& [name, cw] : b) {
    auto it = a.find(name);
    ASSERT_NE(it, a.end()) << label << ": missing output " << name;
    EXPECT_EQ(it->second.rows.size(), cw.rows.size())
        << label << ": " << name << " row count";
    EXPECT_EQ(it->second.conns.size(), cw.conns.size())
        << label << ": " << name << " connection count";
    EXPECT_TRUE(it->second == cw)
        << label << ": output " << name << " differs from scratch recompute";
  }
}

// ---------------------------------------------------------------------------
// Automatic plan matching
// ---------------------------------------------------------------------------

TEST(MatViewTest, AutoFlipServesByteIdenticalRowsWithProvenance) {
  Database db;
  ASSERT_TRUE(LoadPaperDb(&db).ok());
  const std::string q = "SELECT ENAME FROM EMP WHERE SAL > 75000.0";

  // Default policy: 2nd execution captures, 3rd serves from the store.
  Result<QueryResult> r1 = db.Query(q);
  ASSERT_TRUE(r1.ok());
  Result<QueryResult> r2 = db.Query(q);
  ASSERT_TRUE(r2.ok());
  Result<QueryResult> r3 = db.Query(q);
  ASSERT_TRUE(r3.ok());

  EXPECT_EQ(r3.value().rows(), r1.value().rows()) << "served rows must be "
                                                     "byte-identical";
  EXPECT_NE(r3.value().plan_shape.find("matview_scan"), std::string::npos)
      << "third execution should flip to MatViewScanOp, got: "
      << r3.value().plan_shape;
  EXPECT_EQ(r2.value().plan_shape, r1.value().plan_shape)
      << "capturing execution still runs the real plan";

  // EXPLAIN provenance + SYS$MATVIEWS hit accounting.
  Result<std::string> ex = db.Explain(q);
  ASSERT_TRUE(ex.ok());
  EXPECT_NE(ex.value().find("matview:"), std::string::npos) << ex.value();

  Result<QueryResult> sys = db.Query(
      "SELECT NAME, STATE, HITS FROM SYS$MATVIEWS");
  ASSERT_TRUE(sys.ok());
  std::vector<Tuple> sys_rows = sys.value().rows();
  ASSERT_EQ(sys_rows.size(), 1u);
  const Tuple& row = sys_rows[0];
  EXPECT_EQ(row[1].AsString(), "fresh");
  EXPECT_GE(row[2].AsInt(), 1);

  ASSERT_EQ(db.matviews().Snapshot().size(), 1u);
  EXPECT_FALSE(db.matviews().Snapshot()[0].pinned);
}

TEST(MatViewTest, DisabledStoreNeverCapturesOrServes) {
  Database db;
  db.matviews().set_enabled(false);
  ASSERT_TRUE(LoadPaperDb(&db).ok());
  const std::string q = "SELECT ENAME FROM EMP WHERE SAL > 75000.0";
  for (int i = 0; i < 4; ++i) {
    Result<QueryResult> r = db.Query(q);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().plan_shape.find("matview_scan"), std::string::npos);
  }
  EXPECT_EQ(db.matviews().size(), 0u);
}

TEST(MatViewTest, LiteralBindingsNeverServeEachOthersAnswer) {
  Database db;
  db.matviews().set_enabled(true);
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INTEGER, B INTEGER)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO T VALUES (1, 10), (2, 20)").ok());
  std::vector<std::string> lines;
  Logger::Default().SetSink([&](const std::string& l) { lines.push_back(l); });
  auto b_of = [&](int a) -> Result<QueryResult> {
    return db.Query("SELECT B FROM T WHERE A = " + std::to_string(a));
  };
  // Three runs of one binding: captured, then served.
  for (int i = 0; i < 3; ++i) {
    Result<QueryResult> r = b_of(1);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value().rows().size(), 1u);
    EXPECT_EQ(r.value().rows()[0][0].AsInt(), 10);
  }
  Result<QueryResult> served = b_of(1);
  ASSERT_TRUE(served.ok());
  EXPECT_NE(served.value().plan_shape.find("matview_scan"), std::string::npos)
      << served.value().plan_shape;
  // Same statement shape, other literal: its own answer, then its own
  // materialization.
  for (int i = 0; i < 4; ++i) {
    Result<QueryResult> r = b_of(2);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value().rows().size(), 1u) << "run " << i;
    EXPECT_EQ(r.value().rows()[0][0].AsInt(), 20) << "run " << i;
  }
  Result<QueryResult> again = b_of(1);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again.value().rows().size(), 1u);
  EXPECT_EQ(again.value().rows()[0][0].AsInt(), 10);
  Logger::Default().SetSink(nullptr);
  // A matview starting (or stopping) to serve is an expected plan flip.
  for (const std::string& l : lines) {
    EXPECT_EQ(l.find("planchange"), std::string::npos) << l;
  }
}

TEST(MatViewTest, SameShapeViewsWithDifferentLiteralsServeTheirOwnAnswers) {
  std::string ykt_query = testing_util::kDepsArcQuery;
  ykt_query.replace(ykt_query.find("'ARC'"), 5, "'YKT'");
  Database db;
  db.matviews().set_enabled(true);
  ASSERT_TRUE(LoadPaperDb(&db).ok());
  ASSERT_TRUE(db.Execute(std::string("CREATE VIEW deps_ARC AS ") +
                         testing_util::kDepsArcQuery)
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE VIEW deps_YKT AS " + ykt_query).ok());

  Database scratch;
  scratch.matviews().set_enabled(false);
  ASSERT_TRUE(LoadPaperDb(&scratch).ok());
  Result<QueryResult> want_arc = scratch.Query(testing_util::kDepsArcQuery);
  Result<QueryResult> want_ykt = scratch.Query(ykt_query);
  ASSERT_TRUE(want_arc.ok());
  ASSERT_TRUE(want_ykt.ok());

  for (int i = 0; i < 3; ++i) ASSERT_TRUE(db.Query("deps_ARC").ok());
  Result<QueryResult> arc = db.Query("deps_ARC");
  ASSERT_TRUE(arc.ok());
  EXPECT_NE(arc.value().plan_shape.find("matview_scan"), std::string::npos);
  ExpectEquivalent(arc.value(), want_arc.value(), "served deps_ARC");
  for (int i = 0; i < 4; ++i) {
    Result<QueryResult> ykt = db.Query("deps_YKT");
    ASSERT_TRUE(ykt.ok());
    ExpectEquivalent(ykt.value(), want_ykt.value(),
                     "deps_YKT run " + std::to_string(i));
  }
}

// ---------------------------------------------------------------------------
// MATERIALIZE / DEMATERIALIZE statements
// ---------------------------------------------------------------------------

TEST(MatViewTest, MaterializeStatementPinsAndServesView) {
  Database db;
  ASSERT_TRUE(LoadPaperDb(&db).ok());
  ASSERT_TRUE(db.Execute(std::string("CREATE VIEW deps_ARC AS ") +
                         testing_util::kDepsArcQuery)
                  .ok());

  Result<Database::Outcome> m = db.Execute("MATERIALIZE deps_ARC");
  ASSERT_TRUE(m.ok());
  EXPECT_GT(m.value().affected, 0u);

  std::vector<MatViewInfo> infos = db.matviews().Snapshot();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].name, "DEPS_ARC");
  EXPECT_TRUE(infos[0].pinned);
  EXPECT_TRUE(infos[0].fresh);

  // First post-pin execution is already served from the store...
  Result<QueryResult> served = db.Query("deps_ARC");
  ASSERT_TRUE(served.ok());
  EXPECT_NE(served.value().plan_shape.find("matview_scan"),
            std::string::npos);

  // ...and is answer-equivalent to a scratch recompute.
  Database scratch;
  ASSERT_TRUE(LoadPaperDb(&scratch).ok());
  scratch.matviews().set_enabled(false);
  Result<QueryResult> want = scratch.Query(testing_util::kDepsArcQuery);
  ASSERT_TRUE(want.ok());
  ExpectEquivalent(served.value(), want.value(), "pinned deps_ARC");

  // DEMATERIALIZE drops the stored data; the query still works.
  ASSERT_TRUE(db.Execute("DEMATERIALIZE deps_ARC").ok());
  EXPECT_EQ(db.matviews().size(), 0u);
  EXPECT_FALSE(db.Execute("DEMATERIALIZE deps_ARC").ok());
  Result<QueryResult> after = db.Query("deps_ARC");
  ASSERT_TRUE(after.ok());
  ExpectEquivalent(after.value(), want.value(), "after DEMATERIALIZE");
}

// ---------------------------------------------------------------------------
// Property: materialize -> random DML stream -> query == scratch recompute
// ---------------------------------------------------------------------------

// Table 1 query shapes exercised by the property test: the full Fig. 1
// CO view, a two-component subset, and a plain SQL select-project-join.
struct Shape {
  const char* label;
  const char* query;
};

const Shape kShapes[] = {
    {"deps_ARC", testing_util::kDepsArcQuery},
    {"emp_skills",
     "OUT OF xemp AS (SELECT * FROM EMP WHERE SAL > 60000.0),\n"
     "       xskills AS SKILLS,\n"
     "       empproperty AS (RELATE xemp VIA POSSESSES, xskills\n"
     "                       USING EMPSKILLS es\n"
     "                       WHERE xemp.eno = es.eseno AND\n"
     "                             es.essno = xskills.sno)\n"
     "TAKE *"},
    {"sql_join",
     "SELECT E.ENAME, S.SNAME FROM EMP E, EMPSKILLS ES, SKILLS S "
     "WHERE E.ENO = ES.ESENO AND ES.ESSNO = S.SNO"},
};

// Deterministic pseudo-random DML stream touching delta-eligible tables
// (SKILLS inserts/deletes) and fallback tables (EMP updates force a stale
// full refresh on shapes that filter EMP under a quantifier).
std::vector<std::string> DmlStream(int steps) {
  std::vector<std::string> dml;
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < steps; ++i) {
    const int sno = 6000 + i * 10;
    switch (next() % 4) {
      case 0:
        dml.push_back("INSERT INTO SKILLS VALUES (" + std::to_string(sno) +
                      ", 'gen" + std::to_string(i) + "')");
        break;
      case 1:
        dml.push_back("INSERT INTO EMPSKILLS VALUES (" +
                      std::to_string(10 + 10 * static_cast<int>(next() % 4)) +
                      ", " + std::to_string(1000 + 1000 * static_cast<int>(
                                                       next() % 5)) +
                      ")");
        break;
      case 2:
        dml.push_back("UPDATE EMP SET SAL = SAL + " +
                      std::to_string(500 + static_cast<int>(next() % 1000)) +
                      ".0 WHERE ENO = " +
                      std::to_string(10 + 10 * static_cast<int>(next() % 4)));
        break;
      default:
        dml.push_back("DELETE FROM SKILLS WHERE SNO = " +
                      std::to_string(2000 + 1000 * static_cast<int>(
                                                next() % 4)));
        break;
    }
  }
  return dml;
}

void RunPropertyShape(const Shape& shape, int morsel_workers) {
  Database db;       // maintains a materialization across the stream
  Database mirror;   // replays the same stream, always recomputes
  ASSERT_TRUE(LoadPaperDb(&db).ok());
  ASSERT_TRUE(LoadPaperDb(&mirror).ok());
  mirror.matviews().set_enabled(false);

  ExecOptions eo;
  eo.plan.morsel_workers = morsel_workers;

  // Warm until the store serves this shape.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db.Query(shape.query, {}, eo).ok()) << shape.label;
  }
  ASSERT_GE(db.matviews().size(), 1u) << shape.label;

  for (const std::string& stmt : DmlStream(12)) {
    ASSERT_TRUE(db.Execute(stmt).ok()) << shape.label << ": " << stmt;
    ASSERT_TRUE(mirror.Execute(stmt).ok()) << shape.label << ": " << stmt;

    Result<QueryResult> got = db.Query(shape.query, {}, eo);
    ASSERT_TRUE(got.ok()) << shape.label << " after " << stmt;
    Result<QueryResult> want = mirror.Query(shape.query, {}, eo);
    ASSERT_TRUE(want.ok()) << shape.label << " after " << stmt;
    ExpectEquivalent(got.value(), want.value(),
                     std::string(shape.label) + " after '" + stmt + "'");
  }
}

TEST(MatViewPropertyTest, DmlStreamEquivalentToScratchRecompute) {
  for (const Shape& shape : kShapes) RunPropertyShape(shape, 1);
}

TEST(MatViewPropertyTest, DmlStreamEquivalentUnderMorselParallelism) {
  for (const Shape& shape : kShapes) RunPropertyShape(shape, 4);
}

// ---------------------------------------------------------------------------
// Incremental delta maintenance
// ---------------------------------------------------------------------------

TEST(MatViewTest, SkillsInsertTakesDeltaPathAndStaysFresh) {
  // Distinct-free select-project-join: every base table has exactly one
  // F-path reference, so DML on any of them is delta-maintainable.
  const std::string q =
      "SELECT E.ENAME, S.SNAME FROM EMP E, EMPSKILLS ES, SKILLS S "
      "WHERE E.ENO = ES.ESENO AND ES.ESSNO = S.SNO";
  Database db;
  ASSERT_TRUE(LoadPaperDb(&db).ok());
  ASSERT_TRUE(db.Execute("CREATE VIEW emp_skill_names AS " + q).ok());
  ASSERT_TRUE(db.Execute("MATERIALIZE emp_skill_names").ok());

  ASSERT_TRUE(db.Execute("INSERT INTO SKILLS VALUES (7000, 's7')").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO EMPSKILLS VALUES (10, 7000)").ok());
  std::vector<MatViewInfo> infos = db.matviews().Snapshot();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_TRUE(infos[0].fresh) << "delta maintenance must keep the view fresh";
  EXPECT_GE(infos[0].delta_applies, 2);
  EXPECT_GE(infos[0].delta_rows, 1);

  Result<QueryResult> served = db.Query("emp_skill_names");
  ASSERT_TRUE(served.ok());
  EXPECT_NE(served.value().plan_shape.find("matview_scan"),
            std::string::npos);

  Database scratch;
  ASSERT_TRUE(LoadPaperDb(&scratch).ok());
  scratch.matviews().set_enabled(false);
  ASSERT_TRUE(scratch.Execute("INSERT INTO SKILLS VALUES (7000, 's7')").ok());
  ASSERT_TRUE(scratch.Execute("INSERT INTO EMPSKILLS VALUES (10, 7000)").ok());
  Result<QueryResult> want = scratch.Query(q);
  ASSERT_TRUE(want.ok());
  ExpectEquivalent(served.value(), want.value(), "after SKILLS delta");
}

TEST(MatViewTest, CoViewShapesFallBackToBoundedFullRefresh) {
  // XNF component outputs dedup by content (distinct / union boxes), which
  // breaks derivation counting — DML on their tables marks the view stale
  // and the next execution refreshes it in full.
  Database db;
  ASSERT_TRUE(LoadPaperDb(&db).ok());
  ASSERT_TRUE(db.Execute(std::string("CREATE VIEW deps_ARC AS ") +
                         testing_util::kDepsArcQuery)
                  .ok());
  ASSERT_TRUE(db.Execute("MATERIALIZE deps_ARC").ok());

  ASSERT_TRUE(db.Execute("INSERT INTO SKILLS VALUES (7000, 's7')").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO EMPSKILLS VALUES (10, 7000)").ok());
  std::vector<MatViewInfo> infos = db.matviews().Snapshot();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_FALSE(infos[0].fresh);
  EXPECT_GE(infos[0].fallbacks, 1);

  // The refresh re-runs the view; the new skill is now connected to e1.
  Result<QueryResult> got = db.Query("deps_ARC");
  ASSERT_TRUE(got.ok());
  Database scratch;
  ASSERT_TRUE(LoadPaperDb(&scratch).ok());
  scratch.matviews().set_enabled(false);
  ASSERT_TRUE(scratch.Execute("INSERT INTO SKILLS VALUES (7000, 's7')").ok());
  ASSERT_TRUE(
      scratch.Execute("INSERT INTO EMPSKILLS VALUES (10, 7000)").ok());
  Result<QueryResult> want = scratch.Query(testing_util::kDepsArcQuery);
  ASSERT_TRUE(want.ok());
  ExpectEquivalent(got.value(), want.value(), "deps_ARC after fallback");
  EXPECT_TRUE(db.matviews().Snapshot()[0].fresh);
}

TEST(MatViewTest, EmpUpdateFallsBackToFullRefresh) {
  Database db;
  ASSERT_TRUE(LoadPaperDb(&db).ok());
  ASSERT_TRUE(db.Execute(std::string("CREATE VIEW deps_ARC AS ") +
                         testing_util::kDepsArcQuery)
                  .ok());
  ASSERT_TRUE(db.Execute("MATERIALIZE deps_ARC").ok());

  ASSERT_TRUE(
      db.Execute("UPDATE EMP SET SAL = 95000.0 WHERE ENO = 40").ok());
  // Whether EMP is delta-eligible or not, the next execution must reflect
  // the update; a stale entry triggers a bounded full refresh.
  Result<QueryResult> got = db.Query("deps_ARC");
  ASSERT_TRUE(got.ok());

  Database scratch;
  ASSERT_TRUE(LoadPaperDb(&scratch).ok());
  scratch.matviews().set_enabled(false);
  ASSERT_TRUE(
      scratch.Execute("UPDATE EMP SET SAL = 95000.0 WHERE ENO = 40").ok());
  Result<QueryResult> want = scratch.Query(testing_util::kDepsArcQuery);
  ASSERT_TRUE(want.ok());
  ExpectEquivalent(got.value(), want.value(), "after EMP update");

  // Refreshed, so the run after that serves from the store again.
  Result<QueryResult> again = db.Query("deps_ARC");
  ASSERT_TRUE(again.ok());
  EXPECT_NE(again.value().plan_shape.find("matview_scan"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Mid-refresh cancellation
// ---------------------------------------------------------------------------

TEST(MatViewTest, CancelledRefreshLeavesNoStoredViewAndNextRunWorks) {
  Database db;
  ASSERT_TRUE(LoadPaperDb(&db).ok());
  ASSERT_TRUE(db.Execute(std::string("CREATE VIEW deps_ARC AS ") +
                         testing_util::kDepsArcQuery)
                  .ok());
  ASSERT_TRUE(db.Execute("MATERIALIZE deps_ARC").ok());
  // Invalidate, then cancel the refreshing execution mid-stream via a
  // 1-row result budget.
  ASSERT_TRUE(db.Execute("INSERT INTO EMP VALUES (50, 'e5', 1, 60000.0)")
                  .ok());
  ExecOptions tiny;
  tiny.max_result_rows = 1;
  Result<QueryResult> cancelled = db.Query("deps_ARC", {}, tiny);
  EXPECT_FALSE(cancelled.ok()) << "1-row budget must cancel the refresh";

  std::vector<MatViewInfo> infos = db.matviews().Snapshot();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_FALSE(infos[0].fresh)
      << "a cancelled refresh must not publish stored rows";

  // The next unrestricted execution refreshes and matches scratch.
  Result<QueryResult> got = db.Query("deps_ARC");
  ASSERT_TRUE(got.ok());
  Database scratch;
  ASSERT_TRUE(LoadPaperDb(&scratch).ok());
  scratch.matviews().set_enabled(false);
  ASSERT_TRUE(
      scratch.Execute("INSERT INTO EMP VALUES (50, 'e5', 1, 60000.0)").ok());
  Result<QueryResult> want = scratch.Query(testing_util::kDepsArcQuery);
  ASSERT_TRUE(want.ok());
  ExpectEquivalent(got.value(), want.value(), "after cancelled refresh");
  EXPECT_TRUE(db.matviews().Snapshot()[0].fresh);
}

// ---------------------------------------------------------------------------
// Registry persistence
// ---------------------------------------------------------------------------

TEST(MatViewTest, RegistrySurvivesSaveLoadAndRefreshesOnFirstUse) {
  const std::string path = ::testing::TempDir() + "/xnfdb_matview.db";
  {
    Database db;
    ASSERT_TRUE(LoadPaperDb(&db).ok());
    ASSERT_TRUE(db.Execute(std::string("CREATE VIEW deps_ARC AS ") +
                           testing_util::kDepsArcQuery)
                    .ok());
    ASSERT_TRUE(db.Execute("MATERIALIZE deps_ARC").ok());
    ASSERT_TRUE(db.SaveTo(path).ok());
  }
  Database db;
  ASSERT_TRUE(db.LoadFrom(path).ok());
  std::vector<MatViewInfo> infos = db.matviews().Snapshot();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].name, "DEPS_ARC");
  EXPECT_TRUE(infos[0].pinned);
  EXPECT_FALSE(infos[0].fresh) << "stored rows are not persisted";

  // First execution refreshes; the one after serves.
  ASSERT_TRUE(db.Query("deps_ARC").ok());
  EXPECT_TRUE(db.matviews().Snapshot()[0].fresh);
  Result<QueryResult> served = db.Query("deps_ARC");
  ASSERT_TRUE(served.ok());
  EXPECT_NE(served.value().plan_shape.find("matview_scan"),
            std::string::npos);

  std::remove(path.c_str());
  std::remove((path + ".matviews").c_str());
}

}  // namespace
}  // namespace xnfdb
