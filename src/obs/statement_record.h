// The per-statement record: one bounded store, keyed by statement digest,
// that everything the engine observes about a statement shape lands in.
//
// Every statement the Database runs is fingerprinted (parser/fingerprint.h:
// literals normalized to `?`, shape hashed to a 64-bit digest) and written
// here once, at statement end, as one StatementSample:
//
//  - execution totals in the spirit of pg_stat_statements: calls, errors,
//    rows, min/max/total latency and a full latency histogram;
//  - the ordered rewrite-rule trace of the statement's last compile (kept
//    even when the statement then failed at runtime);
//  - the last always-on execution profile: per-operator-class actuals with
//    batch-granularity wall time, the morsel-worker breakdown, memory
//    high-water and governor queue wait, plus cumulative per-broad-class
//    self times;
//  - cardinality feedback: the worst estimated-vs-actual q-error operators;
//  - plan-change detection: a bounded history of distinct plan-shape hashes
//    with first/last seen, execution counts and mean execute time.
//
// The SYS$ views over it (storage/sysview.h: SYS$STATEMENTS,
// SYS$QUERY_PROFILES, SYS$REWRITES, SYS$PLAN_FEEDBACK, SYS$PLAN_HISTORY and
// the `stmt.<digest>.us` rows of SYS$HISTOGRAMS) are projections of one
// Snapshot(): one stored relation, several derived ones.
//
// The store is bounded: once `capacity` distinct digests exist, samples
// with new digests are counted in dropped() instead of allocating, and the
// per-entry vectors are truncated to small fixed maxima. It is thread-safe
// with one mutex; Record runs once per statement, far off the per-tuple
// path. Everything here is plain strings and integers: obs sits below qgm
// and exec in the library order, so the rewrite engine, planner, executor
// and sysview providers can all depend on these types.

#ifndef XNFDB_OBS_STATEMENT_RECORD_H_
#define XNFDB_OBS_STATEMENT_RECORD_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace xnfdb {
namespace obs {

// Renders a statement digest the way it is surfaced everywhere (16 hex
// digits, zero padded).
std::string DigestHex(uint64_t digest);

// --- rewrite traces ---------------------------------------------------------

// One rewrite-rule application attempt (one Apply call, or one monolithic
// semantic-rewrite phase reported as a pseudo-rule).
struct RewriteEvent {
  std::string rule;
  int pass = 0;          // 1-based rule-engine pass; 0 = pre-engine phase
  bool fired = false;    // did the rule change the graph
  int64_t rejected = 0;  // candidate matches inspected and declined
  int64_t wall_us = 0;
  int boxes_before = 0;  // live (non-dead) QGM boxes before the attempt
  int boxes_after = 0;
};

// The ordered rule log of one compile. Bounded: events beyond `capacity`
// are counted in `dropped` instead of stored.
struct RewriteTrace {
  size_t capacity = 256;
  std::vector<RewriteEvent> events;
  int64_t dropped = 0;

  void Add(RewriteEvent event) {
    if (events.size() >= capacity) {
      ++dropped;
      return;
    }
    events.push_back(std::move(event));
  }

  // The EXPLAIN REWRITE rendering: one line per event, in order.
  std::string ToString() const;
};

// --- execution profiles -----------------------------------------------------

// Totals of one operator class within one query execution. `incl_us` is
// inclusive of children; `self_us` subtracts the children's inclusive time
// (clamped at zero). Wall times are batch-granularity: measured around
// every operator's Open/NextBatch/Close call, blocking operators' inputs
// included.
struct OpProfile {
  std::string op;  // operator class ("scan", "hash_join", ...)
  int64_t loops = 0;
  int64_t rows = 0;
  int64_t batches = 0;
  int64_t incl_us = 0;
  int64_t self_us = 0;
};

// One morsel worker's share of a query (stable worker id = index in the
// worker pool, matching the "morsel-worker #<id>" trace spans).
struct WorkerProfile {
  int64_t worker = 0;
  int64_t rows = 0;     // rows the worker produced into morsel buckets
  int64_t morsels = 0;  // morsels it claimed
  int64_t wall_us = 0;  // the worker thread's wall time
};

// One captured execution.
struct QueryProfile {
  std::vector<OpProfile> ops;          // aggregated by class, sorted by op
  std::vector<WorkerProfile> workers;  // morsel workers, by id
  int64_t wall_us = 0;        // execute-phase wall time
  int64_t queue_wait_us = 0;  // governor admission wait
  int64_t peak_bytes = 0;     // QueryContext memory high-water
  int64_t rows_out = 0;
};

// Maps an operator class to the broad bucket SYS$STATEMENTS rolls self-time
// up into: "scan" | "join" | "filter" | "other".
const char* ClassifyOp(const std::string& op);

// Cumulative per-broad-class self time of one statement shape.
struct ClassTotals {
  int64_t scan_us = 0;
  int64_t join_us = 0;
  int64_t filter_us = 0;
  int64_t other_us = 0;
};

// --- cardinality feedback and plan history -----------------------------------

// The q-error of an estimate: max(est/actual, actual/est), both clamped to
// >= 1 row first so the zero edges stay finite (QError(0, 0) == 1,
// QError(0, n) == n). Always >= 1; 1 means exact.
double QError(double est, double actual);

// One operator's estimated-vs-actual comparison within one execution.
struct OpFeedback {
  std::string output;  // output stream the operator belongs to
  std::string op;      // operator class ("scan", "hash_join", ...)
  double est_rows = -1.0;  // < 0: planner provided no estimate
  int64_t actual_rows = 0;
  int64_t loops = 0;
  double q_error = 0.0;
};

// One distinct physical plan of a statement shape.
struct PlanRecord {
  uint64_t plan_hash = 0;
  std::string shape;  // "OUT=op(op(scan:T));..." — no literals
  int64_t first_seen_us = 0;  // unix micros
  int64_t last_seen_us = 0;
  int64_t executions = 0;
  int64_t total_execute_us = 0;

  int64_t mean_execute_us() const {
    return executions > 0 ? total_execute_us / executions : 0;
  }
};

// --- the record -------------------------------------------------------------

// What one finished statement reports. The Database fills the parts that
// apply and hands the sample to Record exactly once.
struct StatementSample {
  uint64_t digest = 0;
  std::string text;  // normalized statement text (stored on first sight)
  std::string kind;  // "query" | "dml" | "ddl" (stored on first sight)
  bool ok = true;
  int64_t rows = 0;  // rows returned (queries) or affected (DML)
  int64_t elapsed_us = 0;

  // Compile side: the statement compiled a query.
  bool compiled = false;
  RewriteTrace trace;

  // Execute side (profile capture on, execution succeeded).
  bool profiled = false;
  QueryProfile profile;
  // Plan side: set when the execution had an operator tree to hash (the
  // fixpoint path has none).
  bool planned = false;
  uint64_t plan_hash = 0;
  std::string plan_shape;
  bool plan_is_matview = false;  // answered by a materialized-view scan
  int64_t execute_us = 0;
  std::vector<OpFeedback> feedback;
};

// Point-in-time copy of one statement shape's record.
struct StatementRecord {
  uint64_t digest = 0;
  std::string digest_hex;
  std::string text;
  std::string kind;
  // Execution totals.
  int64_t calls = 0;
  int64_t errors = 0;
  int64_t rows = 0;
  int64_t total_us = 0;
  int64_t min_us = 0;
  int64_t max_us = 0;
  HistogramSnapshot latency;
  // Most recent compile's rule log.
  RewriteTrace trace;
  // Profiles: number captured, the most recent one, and the cumulative
  // per-broad-class self times across all of them.
  int64_t captures = 0;
  QueryProfile last_profile;
  ClassTotals self;
  // Feedback and plan history.
  int64_t executions = 0;         // samples that carried a plan
  std::vector<OpFeedback> worst;  // worst q-error first
  std::vector<PlanRecord> plans;  // distinct plans, in first-seen order
  uint64_t current_plan = 0;      // plan hash of the most recent execution

  int64_t avg_us() const { return calls > 0 ? total_us / calls : 0; }
};

class StatementRecordStore {
 public:
  explicit StatementRecordStore(size_t capacity = 512, size_t max_ops = 8,
                                size_t max_plans = 8)
      : capacity_(capacity), max_ops_(max_ops), max_plans_(max_plans) {}
  StatementRecordStore(const StatementRecordStore&) = delete;
  StatementRecordStore& operator=(const StatementRecordStore&) = delete;

  // What Record observed about plan stability.
  struct PlanChange {
    bool changed = false;  // plan hash differs from the previous execution
    // Either side was a materialized-view serve: an expected flip (a
    // matview starting or stopping to answer the statement), not a plan
    // regression.
    bool matview = false;
    uint64_t from = 0;
    uint64_t to = 0;
    int64_t executions = 0;  // executions of the digest so far
  };

  // Folds one finished statement into its digest's record: totals always;
  // the rewrite trace when `compiled`; the profile when `profiled`; the
  // worst-offender list (by q-error, truncated to max_ops) and the plan
  // history (evicting the least recently seen plan past max_plans) when
  // `planned`. The trace, profile, feedback and plan shape are moved out of
  // `sample`; digest, text and kind are left for the caller's logging. When
  // `top_misestimate` is non-null it receives the digest's worst
  // misestimate after the merge (empty op when none).
  PlanChange Record(StatementSample& sample,
                    OpFeedback* top_misestimate = nullptr);

  // Cheap per-digest lookup for policy decisions (the matview store's
  // auto-materialization threshold): fills `*calls` / `*avg_us` and returns
  // true when the digest has a record. Either out pointer may be null.
  bool Stats(uint64_t digest, int64_t* calls, int64_t* avg_us) const;

  // All records, in digest order.
  std::vector<StatementRecord> Snapshot() const;

  size_t size() const;
  size_t capacity() const { return capacity_; }
  // Samples whose (new) digest did not fit under `capacity`.
  int64_t dropped() const;
  void Reset();

 private:
  struct Entry {
    StatementRecord rec;  // digest_hex and latency filled at Snapshot
    Histogram latency{Histogram::DefaultLatencyBoundsUs()};
    bool has_plan = false;
    bool current_is_matview = false;
  };

  mutable std::mutex mu_;
  size_t capacity_;
  size_t max_ops_;
  size_t max_plans_;
  std::map<uint64_t, Entry> entries_;
  int64_t dropped_ = 0;
};

}  // namespace obs
}  // namespace xnfdb

#endif  // XNFDB_OBS_STATEMENT_RECORD_H_
