// Golden guard for the delivered answer stream: a fixed set of queries
// runs under every execution knob that may reorder or re-split work, and
// the full ordered stream — item kind, output, tuple id, values and
// connection partner tids — is compared against
// tests/golden/extraction_streams.txt.
//
// The queries cover every materialization the extraction path keeps: the
// Fig. 1 deps_ARC CO (tid interning, connection dedup, spools), the same
// CO over a scaled database (spools and hash builds spanning many
// batches), a SQL hash join with duplicate and NULL keys and a mixed
// INTEGER/DOUBLE key, DISTINCT, UNION (2 and 2.0 are one value), an
// unconverted EXISTS, and a recursive CO run by the fixpoint evaluator.
// Every configuration must render the same stream. On a mismatch the test
// prints the actual rendering, which is the file's new content if the
// change is intended.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/database.h"
#include "bench/workloads.h"
#include "tests/paper_db.h"

namespace xnfdb {
namespace {

std::string GoldenPath() {
  std::string here = __FILE__;
  return here.substr(0, here.find_last_of('/')) +
         "/golden/extraction_streams.txt";
}

struct ExecKnobs {
  const char* name;
  int batch_size;
  int morsel_workers;
};

const ExecKnobs kConfigs[] = {
    {"batch=1", 1, 1},
    {"batch=7", 7, 1},
    {"batch=default", 0, 1},
    {"morsel_workers=4", 0, 4},
    {"morsel_workers=2 batch=7", 7, 2},
};

// One line per stream item: "R <output> #<tid> v1|v2|..." for component
// rows, "C <output> <tid>,<tid>,..." for connections.
std::string RenderStream(const QueryResult& r) {
  std::string out;
  for (const StreamItem& item : r.stream) {
    const std::string& name = r.outputs[item.output].name;
    if (item.kind == StreamItem::Kind::kRow) {
      out += "R " + name + " #" + std::to_string(item.tid) + " ";
      for (size_t i = 0; i < item.values.size(); ++i) {
        if (i > 0) out += "|";
        out += item.values[i].ToString();
      }
    } else {
      out += "C " + name + " ";
      for (size_t i = 0; i < item.tids.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(item.tids[i]);
      }
    }
    out += "\n";
  }
  return out;
}

// Renders `sql` under every configuration; the first configuration's
// stream goes into the golden text, every other one must equal it.
std::string RenderCase(Database* db, const std::string& title,
                       const std::string& sql) {
  std::string first;
  for (const ExecKnobs& c : kConfigs) {
    SCOPED_TRACE(title + " @ " + c.name);
    ExecOptions eo;
    eo.batch_size = c.batch_size;
    eo.plan.morsel_workers = c.morsel_workers;
    Result<QueryResult> r = db->Query(sql, {}, eo);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return "== " + title + "\n";
    std::string text = RenderStream(r.value());
    if (&c == &kConfigs[0]) {
      first = text;
    } else {
      EXPECT_EQ(text, first);
    }
  }
  return "== " + title + "\n" + first;
}

void LoadJoinTables(Database* db) {
  Result<size_t> r = db->ExecuteScript(R"sql(
    CREATE TABLE L (K INTEGER, V VARCHAR);
    CREATE TABLE R (K INTEGER, KD DOUBLE, W VARCHAR);
    INSERT INTO L VALUES (1, 'l1'), (2, 'l2'), (NULL, 'lnull'), (2, 'l2b'),
                         (3, 'l3'), (5, 'l5'), (1, 'l1b'), (NULL, 'lnull2'),
                         (4, 'l4'), (2, 'l2c');
    INSERT INTO R VALUES (2, 2.0, 'r2'), (1, 1.0, 'r1'), (2, 2.0, 'r2b'),
                         (NULL, NULL, 'rnull'), (3, 3.5, 'r3'),
                         (2, 2.0, 'r2c'), (1, 1.0, 'r1'), (NULL, NULL, 'rnull'),
                         (6, 6.0, 'r6'), (4, 4.0, 'r4');
  )sql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

void LoadBom(Database* db) {
  Result<size_t> r = db->ExecuteScript(R"sql(
    CREATE TABLE PART (PNO INTEGER, PNAME VARCHAR, PRIMARY KEY (PNO));
    CREATE TABLE USAGE (ASSEMBLY INTEGER, COMPONENT INTEGER, QTY INTEGER);
    INSERT INTO PART VALUES (1, 'root'), (2, 'frame'), (3, 'motor'),
                            (4, 'bolt'), (5, 'nut'), (8, 'orphan'),
                            (9, 'orphan2');
    INSERT INTO USAGE VALUES (1, 2, 1), (1, 3, 2), (2, 4, 8), (3, 4, 4),
                             (4, 5, 1), (8, 9, 1), (1, 2, 3);
  )sql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

const char* kBomQuery = R"sql(
  OUT OF root AS (SELECT * FROM PART WHERE PNO = 1),
         xpart AS PART,
         toplevel AS (RELATE root VIA ANCHORS, xpart
                      USING USAGE u
                      WHERE root.pno = u.assembly AND u.component = xpart.pno),
         usage AS (RELATE xpart VIA USES, xpart
                   USING USAGE u
                   WHERE uses.pno = u.assembly AND u.component = xpart.pno)
  TAKE *
)sql";

TEST(ExtractionStreamsGoldenTest, StreamsMatchGoldenFileUnderEveryKnob) {
  // Explicit ExecOptions override every execution knob, and the databases
  // take the default Config, so no environment knob reaches them; matviews
  // are off so every run executes instead of replaying a stored stream.
  std::string actual;
  {
    Database db(Env::Default(), Config{});
    db.matviews().set_enabled(false);
    ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
    LoadJoinTables(&db);
    LoadBom(&db);
    actual += RenderCase(&db, "deps_ARC (Fig. 1)", testing_util::kDepsArcQuery);
    actual += RenderCase(&db, "hash join with duplicate and NULL keys",
                         "SELECT l.V, r.W FROM L l, R r WHERE l.K = r.K");
    actual += RenderCase(&db, "hash join on INTEGER = DOUBLE",
                         "SELECT l.V, r.W, r.KD FROM L l, R r "
                         "WHERE l.K = r.KD");
    actual += RenderCase(&db, "DISTINCT",
                         "SELECT DISTINCT r.K, r.W FROM R r");
    actual += RenderCase(&db, "UNION",
                         "SELECT K FROM L UNION SELECT KD FROM R");
    actual += RenderCase(&db, "unconverted EXISTS",
                         "SELECT e.ENAME FROM EMP e WHERE "
                         "EXISTS (SELECT 1 FROM DEPT d WHERE d.DNO = e.EDNO "
                         "AND d.LOC = 'ARC') OR "
                         "EXISTS (SELECT 1 FROM EMPSKILLS s WHERE "
                         "s.ESENO = e.ENO AND s.ESSNO > 3500)");
    actual += RenderCase(&db, "NOT EXISTS with residual",
                         "SELECT l.V FROM L l WHERE NOT EXISTS "
                         "(SELECT 1 FROM R r WHERE r.K = l.K AND r.W <> 'r1')");
    actual += RenderCase(&db, "recursive CO (fixpoint)", kBomQuery);
  }
  {
    Database db(Env::Default(), Config{});
    db.matviews().set_enabled(false);
    bench::DeptDbParams params;
    params.departments = 8;
    params.emps_per_dept = 6;
    params.projs_per_dept = 2;
    params.skills = 12;
    ASSERT_TRUE(bench::PopulateDeptDb(&db, params).ok());
    actual += RenderCase(&db, "deps_ARC (8 departments)", bench::kDepsArcQuery);
  }

  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good()) << "missing " << GoldenPath() << "; actual:\n"
                         << actual;
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str()) << "actual:\n" << actual;
}

}  // namespace
}  // namespace xnfdb
