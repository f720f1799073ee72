// Tests of morsel-driven parallelism (PlanOptions::morsel_workers), the
// engine's one form of intra-query parallelism: at every worker count the
// delivered stream must be byte-identical to serial execution, shared
// subexpressions must still be built exactly once, and the CO's spool
// builds — where all of deps_ARC's scans run — must claim morsels.

#include <gtest/gtest.h>

#include <string>

#include "api/database.h"
#include "bench/workloads.h"
#include "tests/paper_db.h"

namespace xnfdb {
namespace {

// The full ordered stream: item kind, output, tid, values, partner tids.
std::string Render(const QueryResult& r) {
  std::string out;
  for (const StreamItem& item : r.stream) {
    out += std::to_string(item.output);
    if (item.kind == StreamItem::Kind::kRow) {
      out += " #";
      out += std::to_string(item.tid);
      out += " ";
      out += TupleToString(item.values);
    } else {
      for (TupleId t : item.tids) {
        out += " ";
        out += std::to_string(t);
      }
    }
    out += "\n";
  }
  return out;
}

ExecOptions Workers(int n) {
  ExecOptions eo;
  eo.plan.morsel_workers = n;
  return eo;
}

void LoadDepts(Database* db, int departments) {
  bench::DeptDbParams params;
  params.departments = departments;
  ASSERT_TRUE(bench::PopulateDeptDb(db, params).ok());
}

TEST(ParallelTest, ParallelMatchesSequentialOnDepsArc) {
  for (int departments : {0, 180}) {
    SCOPED_TRACE("departments=" + std::to_string(departments));
    Database db;
    db.matviews().set_enabled(false);
    if (departments == 0) {
      ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
    } else {
      LoadDepts(&db, departments);
    }
    const char* q = departments == 0 ? testing_util::kDepsArcQuery
                                     : bench::kDepsArcQuery;
    Result<QueryResult> serial = db.Query(q, {}, Workers(1));
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    EXPECT_EQ(serial.value().stats.morsels_claimed.load(), 0);
    for (int workers : {2, 4}) {
      Result<QueryResult> r = db.Query(q, {}, Workers(workers));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(Render(serial.value()), Render(r.value()))
          << "workers=" << workers;
      EXPECT_GT(r.value().stats.morsels_claimed.load(), 0)
          << "workers=" << workers;
    }
  }
}

// deps_ARC's outputs all read spools, so no output is split: every morsel
// is claimed inside a spool build, and each spool is still built once.
TEST(ParallelTest, SharedSubexpressionsBuiltOnceUnderParallelism) {
  Database db;
  db.matviews().set_enabled(false);
  LoadDepts(&db, 180);
  Result<QueryResult> serial = db.Query(bench::kDepsArcQuery, {}, Workers(1));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  Result<QueryResult> r = db.Query(bench::kDepsArcQuery, {}, Workers(4));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().stats.spool_builds.load(),
            serial.value().stats.spool_builds.load());
  EXPECT_GT(r.value().stats.morsels_claimed.load(), 0);
  EXPECT_TRUE(r.value().profile.workers.empty())
      << "an output was split; these morsels are not all in spool builds";
}

// Counters of per-row work on the split pipelines are exact sums over the
// workers (the executor snapshots them after every worker joined). Scans
// and operator counts may grow: each clone builds its own hash-join build
// sides and existential groups.
TEST(ParallelTest, StatsAreConsistentSnapshotsAcrossWorkerCounts) {
  Database db;
  db.matviews().set_enabled(false);
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  Result<QueryResult> seq =
      db.Query(testing_util::kDepsArcQuery, {}, ExecOptions{});
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  const ExecStats& a = seq.value().stats;
  for (int workers : {2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    Result<QueryResult> r =
        db.Query(testing_util::kDepsArcQuery, {}, Workers(workers));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const ExecStats& b = r.value().stats;
    EXPECT_EQ(a.spool_builds.load(), b.spool_builds.load());
    EXPECT_EQ(a.spool_read_rows.load(), b.spool_read_rows.load());
    EXPECT_EQ(a.rows_output.load(), b.rows_output.load());
    EXPECT_GE(b.rows_scanned.load(), a.rows_scanned.load());
  }
}

TEST(ParallelTest, ParallelSqlQueryUnaffected) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  Result<QueryResult> r =
      db.Query("SELECT ENO FROM EMP ORDER BY ENO", {}, Workers(4));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().rows().size(), 4u);
  EXPECT_EQ(r.value().rows()[0][0].AsInt(), 10);
}

TEST(ParallelTest, ErrorsPropagateFromWorkers) {
  // A graph whose execution fails (arithmetic on strings survives
  // compilation but fails at runtime) on a morsel-split output.
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  Result<QueryResult> r = db.Query(
      "OUT OF bad AS (SELECT ENAME + 1 AS X FROM EMP) TAKE *", {}, Workers(4));
  EXPECT_FALSE(r.ok());
}

// The CI sweep at XNFDB_MORSEL_WORKERS=4 exercises morsel reassembly only
// if the small paper tables split: every table with two or more rows must
// give at least two morsels at four workers.
TEST(ParallelTest, PaperTablesSplitIntoSeveralMorsels) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  for (const std::string& name : db.catalog().TableNames()) {
    Result<Table*> t = db.catalog().GetTable(name);
    ASSERT_TRUE(t.ok()) << name;
    const Rid bound = t.value()->rid_bound();
    if (bound < 2) continue;
    EXPECT_GE(ScanMorsels(bound, 4).MorselCount(), 2u) << name;
  }
  // Large tables are capped at 2,048-row morsels.
  EXPECT_EQ(ScanMorsels(1 << 20, 4).rows_per_morsel, 2048u);
  EXPECT_EQ(ScanMorsels(3600, 4).MorselCount(), 16u);
}

// A spool opened on a morsel worker drains on that worker, so a query
// never runs more threads than it has workers: the calling thread plus
// three spawned workers at four. The engine's own count of live worker
// bodies is the witness. The kernel's thread count is not: it can still
// include a worker that DrainMorsels has joined but the kernel has not yet
// reaped, and read one thread high while the next drain's workers start.
TEST(ParallelTest, NeverMoreThreadsThanMorselWorkers) {
  Database db;
  db.matviews().set_enabled(false);
  LoadDepts(&db, 180);
  MorselWorkerCount& workers = MorselWorkers();
  workers.peak.store(0);
  for (int i = 0; i < 20; ++i) {
    Result<QueryResult> r = db.Query(bench::kDepsArcQuery, {}, Workers(4));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // An output split at the root, whose clones each build a hash side.
    Result<QueryResult> join =
        db.Query("SELECT e.ENO, d.DNO FROM EMP e, DEPT d "
                 "WHERE e.EDNO = d.DNO AND d.LOC = 'ARC'",
                 {}, Workers(4));
    ASSERT_TRUE(join.ok()) << join.status().ToString();
  }
  EXPECT_EQ(workers.live.load(), 0);
  EXPECT_GE(workers.peak.load(), 2) << "nothing ran on morsels";
  EXPECT_LE(workers.peak.load(), 4);
}

// The mechanism behind the thread bound: four morsel clones of a hash join
// whose build side reads one spool with four producers. The spool is
// opened on a morsel worker, so it drains there with its first producer
// alone: no morsel of its scan is claimed, and it is built once.
TEST(ParallelTest, SpoolOpenedOnAMorselWorkerDrainsThere) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INTEGER, B INTEGER)").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE U (A INTEGER, B INTEGER)").ok());
  std::string script;
  for (int i = 0; i < 64; ++i) {
    const std::string v = std::to_string(i);
    script += "INSERT INTO T VALUES (" + v + ", " + v + ");";
    script += "INSERT INTO U VALUES (" + v + ", " + v + ");";
  }
  ASSERT_TRUE(db.ExecuteScript(script).ok());
  const Table* t = db.catalog().GetTable("T").value();
  const Table* u = db.catalog().GetTable("U").value();
  // A spool over U with one producer per worker, as the planner makes it.
  auto make_spool = [&](ExecStats* stats) {
    auto spool =
        std::make_shared<SpoolState>(std::make_unique<ScanOp>(u, stats));
    for (int w = 1; w < 4; ++w) {
      spool->producers.push_back(std::make_unique<ScanOp>(u, stats));
    }
    return spool;
  };
  Layout left, right, combined;
  left.Add(0, 0, 2);
  right.Add(1, 0, 2);
  combined = left;
  combined.Add(1, 2, 2);
  qgm::ExprPtr lkey = qgm::Expr::MakeColRef(0, 0);
  qgm::ExprPtr rkey = qgm::Expr::MakeColRef(1, 0);

  ExecStats out_stats, spool_stats;
  std::shared_ptr<SpoolState> spool = make_spool(&spool_stats);
  std::vector<OperatorPtr> plans;
  for (int w = 0; w < 4; ++w) {
    plans.push_back(std::make_unique<HashJoinOp>(
        std::make_unique<ScanOp>(t, &out_stats),
        std::make_unique<SpoolReadOp>(spool, &out_stats),
        std::vector<const qgm::Expr*>{lkey.get()},
        std::vector<const qgm::Expr*>{rkey.get()},
        std::vector<const qgm::Expr*>{}, left, right, combined, &out_stats));
  }
  std::vector<RowStore> buckets;
  ASSERT_TRUE(
      DrainMorsels(plans, kDefaultBatchSize, nullptr, {}, nullptr, &buckets)
          .ok());
  size_t rows = 0;
  for (const RowStore& b : buckets) rows += b.size();
  EXPECT_EQ(rows, 64u);
  EXPECT_EQ(out_stats.morsels_claimed.load(),
            static_cast<int64_t>(ScanMorsels(64, 4).MorselCount()));
  EXPECT_EQ(out_stats.spool_builds.load(), 1);
  EXPECT_EQ(spool_stats.morsels_claimed.load(), 0);
  EXPECT_EQ(spool_stats.rows_scanned.load(), 64);

  // Opened off a worker, the same spool builds on morsels.
  ExecStats reader_stats, morsel_stats;
  std::shared_ptr<SpoolState> top = make_spool(&morsel_stats);
  SpoolReadOp reader(top, &reader_stats);
  Result<std::vector<Tuple>> all = DrainOperator(&reader, kDefaultBatchSize);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all.value().size(), 64u);
  for (int64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(all.value()[i][0].AsInt(), i) << "morsel order lost";
  }
  EXPECT_EQ(morsel_stats.morsels_claimed.load(),
            static_cast<int64_t>(ScanMorsels(64, 4).MorselCount()));
}

}  // namespace
}  // namespace xnfdb
