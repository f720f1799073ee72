// Tests of query fingerprinting (parser/fingerprint.h) and the execution
// totals of the bounded per-statement record behind sys$statements
// (obs/statement_record.h).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "obs/statement_record.h"
#include "parser/fingerprint.h"
#include "parser/parser.h"

namespace xnfdb {
namespace {

Fingerprint FingerprintText(const std::string& text) {
  Result<ast::StatementPtr> stmt = ParseStatement(text);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  return FingerprintStatement(*stmt.value());
}

TEST(FingerprintTest, LiteralsNormalizeToQuestionMark) {
  Fingerprint fp = FingerprintText("SELECT A FROM T WHERE B = 5 AND C = 'x'");
  EXPECT_EQ(fp.text.find('5'), std::string::npos) << fp.text;
  EXPECT_EQ(fp.text.find("'x'"), std::string::npos) << fp.text;
  EXPECT_NE(fp.text.find('?'), std::string::npos) << fp.text;
  EXPECT_NE(fp.digest, 0u);
}

TEST(FingerprintTest, ConstantsShareAShapeStructureDoesNot) {
  Fingerprint a = FingerprintText("SELECT A FROM T WHERE B = 5");
  Fingerprint b = FingerprintText("SELECT A FROM T WHERE B = 99");
  Fingerprint c = FingerprintText("SELECT A FROM T WHERE C = 5");
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.text, b.text);
  EXPECT_NE(a.digest, c.digest);
}

TEST(FingerprintTest, LimitAndOffsetConstantsAreNormalized) {
  Fingerprint a = FingerprintText("SELECT A FROM T ORDER BY A LIMIT 5");
  Fingerprint b = FingerprintText("SELECT A FROM T ORDER BY A LIMIT 500");
  Fingerprint c = FingerprintText("SELECT A FROM T ORDER BY A");
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_NE(a.digest, c.digest);  // presence of LIMIT is structural
}

TEST(FingerprintTest, MultiRowInsertCollapsesToOneShape) {
  Fingerprint one = FingerprintText("INSERT INTO T VALUES (1, 'a')");
  Fingerprint three =
      FingerprintText("INSERT INTO T VALUES (2, 'b'), (3, 'c'), (4, 'd')");
  Fingerprint other_arity = FingerprintText("INSERT INTO T VALUES (1)");
  EXPECT_EQ(one.digest, three.digest) << one.text << " vs " << three.text;
  EXPECT_NE(one.digest, other_arity.digest);
}

TEST(FingerprintTest, XnfQueriesNormalizeLiteralsToo) {
  const char* kArc =
      "OUT OF d AS (SELECT * FROM DEPT WHERE LOC = 'ARC'), e AS EMP, "
      "r AS (RELATE d VIA EMPLOYS, e WHERE d.DNO = e.EDNO) TAKE *";
  const char* kYkt =
      "OUT OF d AS (SELECT * FROM DEPT WHERE LOC = 'YKT'), e AS EMP, "
      "r AS (RELATE d VIA EMPLOYS, e WHERE d.DNO = e.EDNO) TAKE *";
  Fingerprint a = FingerprintText(kArc);
  Fingerprint b = FingerprintText(kYkt);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_NE(a.exact_digest, b.exact_digest);
  EXPECT_EQ(a.text.find("'ARC'"), std::string::npos) << a.text;
}

TEST(FingerprintTest, ExactDigestKeepsLiteralValues) {
  Fingerprint a = FingerprintText("SELECT A FROM T WHERE B = 5 AND C = 'x'");
  Fingerprint a2 = FingerprintText("SELECT A FROM T WHERE B = 5 AND C = 'x'");
  Fingerprint b = FingerprintText("SELECT A FROM T WHERE B = 99 AND C = 'x'");
  Fingerprint swapped =
      FingerprintText("SELECT A FROM T WHERE B = 'x' AND C = 5");
  EXPECT_EQ(a.digest, b.digest);  // one shape...
  EXPECT_NE(a.exact_digest, b.exact_digest);  // ...two bindings
  EXPECT_EQ(a.exact_digest, a2.exact_digest);
  EXPECT_NE(a.exact_digest, swapped.exact_digest);
  // Doubles keep full precision, not Value::ToString's six digits.
  Fingerprint d1 = FingerprintText("SELECT A FROM T WHERE B > 1.0000001");
  Fingerprint d2 = FingerprintText("SELECT A FROM T WHERE B > 1.0000002");
  EXPECT_NE(d1.exact_digest, d2.exact_digest);
  // LIKE patterns and LIMIT constants are literals too.
  EXPECT_NE(FingerprintText("SELECT A FROM T WHERE C LIKE 'a%'").exact_digest,
            FingerprintText("SELECT A FROM T WHERE C LIKE 'b%'").exact_digest);
  EXPECT_NE(FingerprintText("SELECT A FROM T LIMIT 5").exact_digest,
            FingerprintText("SELECT A FROM T LIMIT 6").exact_digest);
  // Without literals the two digests coincide.
  Fingerprint bare = FingerprintText("SELECT A FROM T");
  EXPECT_EQ(bare.exact_digest, bare.digest);
}

TEST(FingerprintTest, HashIsStableFnv1a) {
  // FNV-1a 64-bit pinned values: the digest is part of the sys$statements
  // surface (DIGEST column, stmt.<digest>.us histogram names), so it must
  // not drift across refactors.
  EXPECT_EQ(FingerprintHash(""), 14695981039346656037ull);
  EXPECT_EQ(FingerprintHash("a"), 12638187200555641996ull);
  EXPECT_NE(FingerprintHash("a"), FingerprintHash("b"));
}

TEST(DigestHexTest, SixteenZeroPaddedDigits) {
  EXPECT_EQ(obs::DigestHex(0), "0000000000000000");
  EXPECT_EQ(obs::DigestHex(0xabcull), "0000000000000abc");
  EXPECT_EQ(obs::DigestHex(~0ull), "ffffffffffffffff");
}

// One finished statement with only its execution totals.
obs::StatementSample Totals(uint64_t digest, const std::string& text, bool ok,
                            int64_t rows, int64_t elapsed_us) {
  obs::StatementSample s;
  s.digest = digest;
  s.text = text;
  s.kind = "query";
  s.ok = ok;
  s.rows = rows;
  s.elapsed_us = elapsed_us;
  return s;
}

void Record(obs::StatementRecordStore* store, obs::StatementSample s) {
  store->Record(s);
}

TEST(StatementStoreTest, AccumulatesPerDigest) {
  obs::StatementRecordStore store;
  Record(&store, Totals(7, "SELECT ?", /*ok=*/true, /*rows=*/3,
                        /*elapsed_us=*/100));
  Record(&store, Totals(7, "SELECT ?", true, 5, 300));
  Record(&store, Totals(7, "SELECT ?", /*ok=*/false, 0, 50));
  std::vector<obs::StatementRecord> snap = store.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].digest, 7u);
  EXPECT_EQ(snap[0].text, "SELECT ?");
  EXPECT_EQ(snap[0].kind, "query");
  EXPECT_EQ(snap[0].calls, 3);
  EXPECT_EQ(snap[0].errors, 1);
  EXPECT_EQ(snap[0].rows, 8);
  EXPECT_EQ(snap[0].total_us, 450);
  EXPECT_EQ(snap[0].min_us, 50);
  EXPECT_EQ(snap[0].max_us, 300);
  EXPECT_EQ(snap[0].avg_us(), 150);
  EXPECT_EQ(snap[0].latency.count, 3);
}

TEST(StatementStoreTest, CapacityBoundsDistinctDigests) {
  obs::StatementRecordStore store(/*capacity=*/2);
  Record(&store, Totals(1, "a", true, 0, 1));
  Record(&store, Totals(2, "b", true, 0, 1));
  Record(&store, Totals(3, "c", true, 0, 1));  // dropped: store is full
  Record(&store, Totals(1, "a", true, 0, 1));  // existing digest still lands
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.dropped(), 1);
  std::vector<obs::StatementRecord> snap = store.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].calls, 2);

  store.Reset();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.dropped(), 0);
}

TEST(StatementStoreTest, ConcurrentRecordsAllLand) {
  obs::StatementRecordStore store;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        // Two digests shared by all threads plus one private per thread.
        uint64_t digest = i % 3 == 2 ? 100 + t : i % 3;
        Record(&store, Totals(digest, "t", true, 1, 10));
      }
    });
  }
  go.store(true);
  for (auto& t : threads) t.join();
  int64_t calls = 0;
  for (const obs::StatementRecord& s : store.Snapshot()) calls += s.calls;
  EXPECT_EQ(calls, int64_t{kThreads} * kPerThread);
  EXPECT_EQ(store.size(), 2u + kThreads);
  EXPECT_EQ(store.dropped(), 0);
}

}  // namespace
}  // namespace xnfdb
