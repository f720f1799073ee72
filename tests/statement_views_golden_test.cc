// Golden guard for the five per-statement system views (SYS$STATEMENTS,
// SYS$QUERY_PROFILES, SYS$REWRITES, SYS$PLAN_FEEDBACK, SYS$PLAN_HISTORY):
// a fixed script runs through Database and the deterministic columns of
// every view are compared against tests/golden/statement_views.txt.
//
// The script mixes DDL, DML, a plain SELECT, the Fig. 1 deps_ARC XNF
// query, a compile failure, a runtime (governor) failure and an
// index-flip plan change. Timing columns are left out; everything kept is
// a pure function of the script. On a mismatch the test prints the actual
// rendering, which is the file's new content if the change is intended.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "api/database.h"
#include "tests/paper_db.h"

namespace xnfdb {
namespace {

std::string GoldenPath() {
  std::string here = __FILE__;
  return here.substr(0, here.find_last_of('/')) +
         "/golden/statement_views.txt";
}

// Renders the rows of `sql` under a `== title` header, one `|`-joined line
// per row.
std::string Render(Database* db, const std::string& title,
                   const std::string& sql) {
  std::string out = "== " + title + "\n";
  Result<QueryResult> r = db->Query(sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  if (!r.ok()) return out;
  for (const Tuple& row : r.value().rows()) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += "|";
      out += row[i].ToString();
    }
    out += "\n";
  }
  return out;
}

TEST(StatementViewsGoldenTest, FixedScriptMatchesGoldenFile) {
  // The default Config: no environment knob (batch size, morsel workers,
  // capture switch) reaches the database; matviews are off so every run
  // executes.
  Database db(Env::Default(), Config{});
  db.matviews().set_enabled(false);

  // DDL + DML.
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INTEGER, B INTEGER)").ok());
  std::string load;
  for (int i = 0; i < 32; ++i) {
    load += "INSERT INTO T VALUES (" + std::to_string(i) + ", " +
            std::to_string(i * 10) + ");";
  }
  ASSERT_TRUE(db.ExecuteScript(load).ok());
  ASSERT_TRUE(db.Execute("UPDATE T SET B = B + 1 WHERE A = 3").ok());
  ASSERT_TRUE(db.Execute("DELETE FROM T WHERE A = 31").ok());
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());

  // A SELECT (twice: calls accumulate) and the Fig. 1 XNF query.
  const char* point = "SELECT B FROM T WHERE A = 7";
  ASSERT_TRUE(db.Execute(point).ok());
  ASSERT_TRUE(db.Query(point).ok());
  ASSERT_TRUE(db.Query(testing_util::kDepsArcQuery).ok());
  ASSERT_TRUE(
      db.Execute("SELECT e.ENAME, d.DNAME FROM EMP e, DEPT d "
                 "WHERE e.EDNO = d.DNO AND e.SAL > 75000.0")
          .ok());

  // A compile failure and a runtime failure (row budget).
  EXPECT_FALSE(db.Execute("SELECT NOPE FROM T").ok());
  ExecOptions tight;
  tight.max_result_rows = 1;
  EXPECT_FALSE(db.Query("SELECT ENAME FROM EMP", {}, tight).ok());

  // Index flip: the same statement now runs over an index scan.
  ASSERT_TRUE(db.Execute("CREATE INDEX ON T (A)").ok());
  ASSERT_TRUE(db.Query(point).ok());

  // Only the script's statements are rendered: the view queries below are
  // statements too, and whether one sees its own in-flight capture is not
  // part of the views' contract. The other views are joined to
  // SYS$STATEMENTS on DIGEST to apply the same filter.
  const std::string script_only =
      " s WHERE s.TEXT NOT LIKE '%SYS$%'";
  std::string actual;
  actual += Render(&db, "SYS$STATEMENTS",
                   "SELECT s.DIGEST, s.KIND, s.CALLS, s.ERRORS, s.ROWS_OUT "
                   "FROM SYS$STATEMENTS" + script_only);
  actual += Render(&db, "SYS$QUERY_PROFILES",
                   "SELECT p.OP, p.OP_ROWS, p.OP_LOOPS "
                   "FROM SYS$QUERY_PROFILES p, SYS$STATEMENTS" + script_only +
                       " AND p.DIGEST = s.DIGEST");
  actual += Render(&db, "SYS$REWRITES",
                   "SELECT r.SEQ, r.PASS, r.RULE, r.FIRED, r.REJECTED "
                   "FROM SYS$REWRITES r, SYS$STATEMENTS" + script_only +
                       " AND r.DIGEST = s.DIGEST");
  actual += Render(&db, "SYS$PLAN_FEEDBACK",
                   "SELECT f.RANK, f.OUTPUT, f.OP, f.EST_ROWS, f.ACTUAL_ROWS "
                   "FROM SYS$PLAN_FEEDBACK f, SYS$STATEMENTS" + script_only +
                       " AND f.DIGEST = s.DIGEST");
  actual += Render(&db, "SYS$PLAN_HISTORY",
                   "SELECT h.PLAN_SHAPE, h.EXECUTIONS, h.CURRENT "
                   "FROM SYS$PLAN_HISTORY h, SYS$STATEMENTS" + script_only +
                       " AND h.DIGEST = s.DIGEST");

  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good()) << "missing " << GoldenPath() << "; actual:\n"
                         << actual;
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str()) << "actual:\n" << actual;
}

}  // namespace
}  // namespace xnfdb
