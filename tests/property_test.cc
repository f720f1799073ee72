// Property-based differential tests: on randomized databases, all
// evaluation strategies must agree —
//  * XNF: shared rewrite == unshared rewrite == fixpoint evaluator,
//  * SQL: every planner configuration (hash join / nested loops, index /
//    scan, hashed / naive exists) returns the same answer,
//  * rewrite: with and without the E-to-F conversion,
//  * hash-join and nested-loop plans deliver the same stream, in order:
//    the semi-join key filters a hash join pushes into scans drop only
//    rows the join drops anyway.
//
// Seeds are swept with a parameterized suite (TEST_P).

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "api/database.h"
#include "parser/parser.h"
#include "semantics/builder.h"
#include "xnf/compiler.h"
#include "xnf/fixpoint.h"

namespace xnfdb {
namespace {

// Builds a randomized dept/emp/skills database; sizes scale mildly with the
// seed so different shapes (empty children, heavy fan-out) are exercised.
void LoadRandomDb(Database* db, uint32_t seed) {
  std::mt19937 rng(seed);
  ASSERT_TRUE(db->ExecuteScript(R"sql(
    CREATE TABLE DEPT (DNO INTEGER, LOC VARCHAR, PRIMARY KEY (DNO));
    CREATE TABLE EMP (ENO INTEGER, EDNO INTEGER, SAL INTEGER,
                      PRIMARY KEY (ENO));
    CREATE TABLE SKILLS (SNO INTEGER, PRIMARY KEY (SNO));
    CREATE TABLE EMPSKILLS (ESENO INTEGER, ESSNO INTEGER);
  )sql")
                  .ok());
  int ndept = 2 + static_cast<int>(rng() % 6);
  int nemp = static_cast<int>(rng() % 40);
  int nskills = 1 + static_cast<int>(rng() % 10);
  int nmap = static_cast<int>(rng() % 60);
  const char* locs[] = {"ARC", "YKT", "ALM"};
  for (int d = 1; d <= ndept; ++d) {
    ASSERT_TRUE(db->Execute("INSERT INTO DEPT VALUES (" + std::to_string(d) +
                            ", '" + locs[rng() % 3] + "')")
                    .ok());
  }
  for (int e = 1; e <= nemp; ++e) {
    // Some employees point at nonexistent departments, some have NULL.
    std::string dno = (rng() % 10 == 0)
                          ? "NULL"
                          : std::to_string(1 + rng() % (ndept + 2));
    ASSERT_TRUE(db->Execute("INSERT INTO EMP VALUES (" + std::to_string(e) +
                            ", " + dno + ", " +
                            std::to_string(1000 + rng() % 9000) + ")")
                    .ok());
  }
  for (int s = 1; s <= nskills; ++s) {
    ASSERT_TRUE(
        db->Execute("INSERT INTO SKILLS VALUES (" + std::to_string(s) + ")")
            .ok());
  }
  for (int m = 0; m < nmap; ++m) {
    ASSERT_TRUE(db->Execute("INSERT INTO EMPSKILLS VALUES (" +
                            std::to_string(1 + rng() % (nemp + 1)) + ", " +
                            std::to_string(1 + rng() % nskills) + ")")
                    .ok());
  }
}

const char* kXnfQuery = R"sql(
  OUT OF xdept AS (SELECT * FROM DEPT WHERE LOC = 'ARC'),
         xemp AS (SELECT ENO, EDNO FROM EMP WHERE SAL > 2000),
         xskills AS SKILLS,
         employment AS (RELATE xdept VIA EMPLOYS, xemp
                        WHERE xdept.dno = xemp.edno),
         property AS (RELATE xemp VIA HAS, xskills USING EMPSKILLS es
                      WHERE xemp.eno = es.eseno AND es.essno = xskills.sno)
  TAKE *
)sql";

std::set<std::string> Canonical(const QueryResult& result) {
  std::set<std::string> out;
  std::map<std::pair<int, TupleId>, std::string> rows;
  std::map<std::string, int> by_name;
  for (size_t i = 0; i < result.outputs.size(); ++i) {
    by_name[result.outputs[i].name] = static_cast<int>(i);
  }
  for (const StreamItem& item : result.stream) {
    if (item.kind == StreamItem::Kind::kRow) {
      rows[{item.output, item.tid}] = TupleToString(item.values);
      out.insert(result.outputs[item.output].name + ":" +
                 TupleToString(item.values));
    }
  }
  for (const StreamItem& item : result.stream) {
    if (item.kind != StreamItem::Kind::kConnection) continue;
    const OutputDesc& desc = result.outputs[item.output];
    std::string s = desc.name + ":";
    for (size_t pi = 0; pi < item.tids.size(); ++pi) {
      s += rows[{by_name[desc.partner_names[pi]], item.tids[pi]}];
    }
    out.insert(std::move(s));
  }
  return out;
}

// One string per stream item, in delivery order: "R <output> #<tid>
// <values>" for component rows, "C <output> <tid>,..." for connections.
std::vector<std::string> StreamItems(const QueryResult& result) {
  std::vector<std::string> out;
  for (const StreamItem& item : result.stream) {
    const std::string& name = result.outputs[item.output].name;
    if (item.kind == StreamItem::Kind::kRow) {
      out.push_back("R " + name + " #" + std::to_string(item.tid) + " " +
                    TupleToString(item.values));
      continue;
    }
    std::string s = "C " + name + " ";
    for (TupleId tid : item.tids) s += std::to_string(tid) + ",";
    out.push_back(std::move(s));
  }
  return out;
}

class XnfPropertyTest : public ::testing::TestWithParam<uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, XnfPropertyTest,
                         ::testing::Range(uint32_t{1}, uint32_t{13}));

TEST_P(XnfPropertyTest, AllXnfStrategiesAgree) {
  Database db;
  LoadRandomDb(&db, GetParam());
  Result<std::unique_ptr<ast::XnfQuery>> q = ParseXnfQuery(kXnfQuery);
  ASSERT_TRUE(q.ok());

  CompileOptions shared;
  CompileOptions unshared;
  unshared.xnf.share_connection_boxes = false;

  Result<QueryResult> a = db.QueryXnf(*q.value(), shared);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  Result<QueryResult> b = db.QueryXnf(*q.value(), unshared);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  Result<std::unique_ptr<qgm::QueryGraph>> graph =
      BuildXnf(db.catalog(), *q.value());
  ASSERT_TRUE(graph.ok());
  Result<QueryResult> c = ExecuteXnfFixpoint(db.catalog(), *graph.value());
  ASSERT_TRUE(c.ok()) << c.status().ToString();

  std::set<std::string> ca = Canonical(a.value());
  EXPECT_EQ(ca, Canonical(b.value())) << "shared vs unshared, seed "
                                      << GetParam();
  EXPECT_EQ(ca, Canonical(c.value())) << "shared vs fixpoint, seed "
                                      << GetParam();
}

// PROPERTY is a three-way relationship like deps_ARC's EMPPROPERTY: its
// hash plan pushes the XEMP spool's keys into the EMPSKILLS scan, and the
// XEMP producer pushes the XDEPT spool's keys into the EMP scan.
TEST_P(XnfPropertyTest, HashAndNestedLoopPlansDeliverTheSameStream) {
  Database db;
  db.matviews().set_enabled(false);
  LoadRandomDb(&db, GetParam());
  ExecOptions nested_loops;
  nested_loops.plan.use_hash_join = false;
  Result<QueryResult> hash = db.Query(kXnfQuery);
  ASSERT_TRUE(hash.ok()) << hash.status().ToString();
  Result<QueryResult> nl = db.Query(kXnfQuery, {}, nested_loops);
  ASSERT_TRUE(nl.ok()) << nl.status().ToString();
  EXPECT_EQ(StreamItems(hash.value()), StreamItems(nl.value()))
      << "seed " << GetParam();
}

TEST_P(XnfPropertyTest, ReachabilityInvariantHolds) {
  // Invariant: every non-root component row participates in at least one
  // connection of some incoming relationship (reachability, Sect. 2).
  Database db;
  LoadRandomDb(&db, GetParam());
  Result<QueryResult> r = db.Query(kXnfQuery);
  ASSERT_TRUE(r.ok());
  const QueryResult& result = r.value();

  std::map<std::pair<int, TupleId>, int> degree;
  std::map<std::string, int> by_name;
  for (size_t i = 0; i < result.outputs.size(); ++i) {
    by_name[result.outputs[i].name] = static_cast<int>(i);
  }
  for (const StreamItem& item : result.stream) {
    if (item.kind != StreamItem::Kind::kConnection) continue;
    const OutputDesc& desc = result.outputs[item.output];
    for (size_t pi = 0; pi < item.tids.size(); ++pi) {
      ++degree[{by_name[desc.partner_names[pi]], item.tids[pi]}];
    }
  }
  for (const StreamItem& item : result.stream) {
    if (item.kind != StreamItem::Kind::kRow) continue;
    const std::string& name = result.outputs[item.output].name;
    if (name == "XDEPT") continue;  // root: reachable by definition
    int row_degree = degree[{item.output, item.tid}];
    EXPECT_GT(row_degree, 0)
        << name << " row " << TupleToString(item.values)
        << " is not connected (seed " << GetParam() << ")";
  }
}

class SqlPropertyTest : public ::testing::TestWithParam<uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SqlPropertyTest,
                         ::testing::Range(uint32_t{1}, uint32_t{9}));

TEST_P(SqlPropertyTest, PlannerConfigurationsAgree) {
  Database db;
  LoadRandomDb(&db, GetParam() + 100);
  const char* queries[] = {
      "SELECT e.ENO, d.DNO FROM EMP e, DEPT d WHERE e.EDNO = d.DNO AND "
      "d.LOC = 'ARC'",
      "SELECT ENO FROM EMP e WHERE EXISTS (SELECT 1 FROM EMPSKILLS s WHERE "
      "s.ESENO = e.ENO)",
      "SELECT DISTINCT d.LOC FROM DEPT d, EMP e WHERE e.EDNO = d.DNO",
      "SELECT EDNO, COUNT(*) FROM EMP GROUP BY EDNO ORDER BY 1",
  };
  for (const char* sql : queries) {
    std::set<std::multiset<std::string>> variants;
    for (bool hash_join : {true, false}) {
      for (bool indexes : {true, false}) {
        for (bool naive : {true, false}) {
          ExecOptions opts;
          opts.plan.use_hash_join = hash_join;
          opts.plan.use_indexes = indexes;
          opts.plan.naive_exists = naive;
          Result<QueryResult> r = db.Query(sql, {}, opts);
          ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
          std::multiset<std::string> rows;
          for (const Tuple& row : r.value().rows()) {
            rows.insert(TupleToString(row));
          }
          variants.insert(std::move(rows));
        }
      }
    }
    EXPECT_EQ(variants.size(), 1u)
        << "planner configurations disagree on: " << sql;
  }
}

// Row for row, in order: the three-way joins put an upper join's key set
// on the lower join's build scan (EMP's ENOs on EMPSKILLS.ESENO), the
// last query joins on two keys.
TEST_P(SqlPropertyTest, HashAndNestedLoopPlansReturnTheSameRowsInOrder) {
  Database db;
  db.matviews().set_enabled(false);
  LoadRandomDb(&db, GetParam() + 300);
  const char* queries[] = {
      "SELECT e.ENO, d.DNO FROM EMP e, DEPT d WHERE e.EDNO = d.DNO AND "
      "d.LOC = 'ARC'",
      "SELECT e.ENO, es.ESSNO, s.SNO FROM EMP e, EMPSKILLS es, SKILLS s "
      "WHERE e.ENO = es.ESENO AND es.ESSNO = s.SNO AND e.SAL > 5000",
      "SELECT DISTINCT es.ESSNO FROM DEPT d, EMP e, EMPSKILLS es "
      "WHERE d.DNO = e.EDNO AND e.ENO = es.ESENO AND d.LOC = 'ARC'",
      "SELECT e.ENO, es.ESSNO FROM EMP e, EMPSKILLS es, SKILLS s "
      "WHERE e.ENO = es.ESENO AND e.EDNO = es.ESSNO AND es.ESSNO = s.SNO",
  };
  for (const char* sql : queries) {
    for (bool indexes : {true, false}) {
      std::vector<std::vector<std::string>> variants;
      for (bool hash_join : {true, false}) {
        ExecOptions opts;
        opts.plan.use_hash_join = hash_join;
        opts.plan.use_indexes = indexes;
        Result<QueryResult> r = db.Query(sql, {}, opts);
        ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
        std::vector<std::string> rows;
        for (const Tuple& row : r.value().rows()) {
          rows.push_back(TupleToString(row));
        }
        variants.push_back(std::move(rows));
      }
      EXPECT_EQ(variants[0], variants[1])
          << "hash and nested-loop plans differ on: " << sql
          << " (indexes " << indexes << ", seed " << GetParam() << ")";
    }
  }
}

TEST_P(SqlPropertyTest, ExistsRewriteOnOffAgree) {
  Database db;
  LoadRandomDb(&db, GetParam() + 200);
  const char* sql =
      "SELECT ENO FROM EMP e WHERE EXISTS (SELECT 1 FROM DEPT d WHERE "
      "d.DNO = e.EDNO AND d.LOC = 'ARC')";
  CompileOptions with, without;
  without.nf.exists_to_join = false;
  without.nf.select_merge = false;
  Result<QueryResult> a = db.Query(sql, with);
  Result<QueryResult> b = db.Query(sql, without);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::set<int64_t> ra, rb;
  for (const Tuple& row : a.value().rows()) ra.insert(row[0].AsInt());
  for (const Tuple& row : b.value().rows()) rb.insert(row[0].AsInt());
  EXPECT_EQ(ra, rb);
}

}  // namespace
}  // namespace xnfdb
