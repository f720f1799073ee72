// Physical operators of the Query Evaluation System (paper Sect. 3.1).
//
// Execution follows the Starburst "table queue" style: demand-driven,
// pipelined iterators (Open / NextBatch / Close). Each QEP operator consumes
// one or more input streams and produces an output stream of tuple batches
// (exec/batch.h); NextBatch is the only pull protocol, and batch_size = 1 is
// simply a batch of one. Shared common subexpressions are realized by
// spools: the first reader to open one runs its producer once, and every
// reader iterates the materialized result.
//
// The public Open/NextBatch/Close entry points are non-virtual wrappers that
// maintain per-operator actuals (loop, row and batch counts always;
// inclusive wall time in analyze/profile mode) for EXPLAIN ANALYZE;
// subclasses implement the protected *Impl hooks.

#ifndef XNFDB_EXEC_OPERATORS_H_
#define XNFDB_EXEC_OPERATORS_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "exec/batch.h"
#include "exec/expr_eval.h"
#include "exec/query_context.h"
#include "exec/row_store.h"
#include "qgm/qgm.h"
#include "storage/table.h"

namespace xnfdb {

class VirtualTableProvider;

namespace obs {
class MetricsRegistry;
struct WorkerProfile;
}  // namespace obs

// A copyable atomic counter, so ExecStats can be both shared between
// parallel workers (paper Sect. 5.1/6: parallel CO extraction) and returned
// by value in QueryResult.
class StatCounter {
 public:
  StatCounter(int64_t v = 0) : value_(v) {}  // NOLINT
  StatCounter(const StatCounter& other) : value_(other.load()) {}
  StatCounter& operator=(const StatCounter& other) {
    value_.store(other.load(), std::memory_order_relaxed);
    return *this;
  }
  StatCounter& operator=(int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    return *this;
  }
  StatCounter& operator++() {
    value_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  StatCounter& operator+=(int64_t v) {
    value_.fetch_add(v, std::memory_order_relaxed);
    return *this;
  }
  int64_t load() const { return value_.load(std::memory_order_relaxed); }
  operator int64_t() const { return load(); }  // NOLINT

 private:
  std::atomic<int64_t> value_;
};

// Execution counters, reported by benches and asserted on by tests.
struct ExecStats {
  StatCounter rows_scanned;       // base-table rows read
  StatCounter index_lookups;      // index probe operations
  StatCounter join_probes;        // hash/NL join probe rows
  StatCounter exists_probes;      // existential checks performed
  StatCounter spool_builds;       // common subexpressions materialized
  StatCounter spool_read_rows;    // rows served from spools
  StatCounter rows_output;        // rows leaving Top
  StatCounter operators_created;
  StatCounter batches_emitted;    // batches delivered into output streams
  StatCounter morsels_claimed;    // scan morsels claimed by workers

  std::string ToString() const;
  // Adds every counter into `registry` under `exec.<counter>` (the unified
  // observability snapshot exposed by Database::MetricsJson).
  void PublishTo(obs::MetricsRegistry* registry) const;
};

class ScanOp;

// A semi-join key filter (Bernstein & Chiu, JACM 1981): the set of a hash
// join's key values in one key column, pushed into a base-table scan under
// the join so that the scan drops rows that could never join. The set is
// the one-value rows of `keys` indexed by `index`, both owned by the join.
// Membership uses the join's own key equality (HashRow/RowsEqual, so
// 2 = 2.0), and NULL is never a member.
struct KeyFilter {
  int column = 0;  // the scan column tested
  const RowStore* keys = nullptr;
  const RowHashIndex* index = nullptr;

  bool Contains(const Value& v) const {
    if (v.is_null()) return false;
    const RowView key(&v, 1);
    return index->Find(HashRow(key), [&](uint32_t id) {
             return RowsEqual(keys->Row(id), key);
           }) != RowHashIndex::kNone;
  }
};

// A scan that can take a key filter on one of its columns.
struct KeyFilterScan {
  ScanOp* scan;
  int column;
  size_t distinct;  // the column's distinct count (Table::GetColumnStats)
};

// Shared morsel dispenser for one morsel-parallel scan (HyPer-style):
// worker threads claim fixed-size row ranges [m * rows_per_morsel,
// (m+1) * rows_per_morsel) from the atomic cursor. `bound` is the scan's
// rid bound, captured when the dispenser is created. Morsels are sized to
// about four per worker, so a worker that falls behind leaves its peers
// work to take, capped at 2,048 rows.
struct ScanMorsels {
  ScanMorsels(Rid scan_bound, size_t workers)
      : bound(scan_bound),
        rows_per_morsel(std::clamp<Rid>(
            (scan_bound + 4 * workers - 1) / (4 * workers), 1, 2048)) {}

  const Rid bound;
  const Rid rows_per_morsel;
  std::atomic<uint64_t> next{0};

  uint64_t MorselCount() const {
    return (bound + rows_per_morsel - 1) / rows_per_morsel;
  }
};

class Operator {
 public:
  virtual ~Operator() = default;

  // Non-virtual lifecycle entry points: delegate to the *Impl hooks while
  // maintaining this operator's actuals.
  Status Open();
  // Produces the next batch into `*out` (cleared first); returns false at
  // end of stream. A true return with ActiveCount() == 0 is a fully
  // filtered batch — keep pulling.
  Result<bool> NextBatch(TupleBatch* out);
  void Close();

  // Appends a one-line-per-operator rendering of this plan subtree to
  // `out`, indented by `depth` (EXPLAIN support). After an analyze-mode
  // execution each line carries "(actual rows=.. loops=.. time=..ms)".
  void Explain(int depth, std::string* out) const { ExplainImpl(depth, out); }

  // Per-operator execution totals. `ns` is inclusive of children (time is
  // measured around this operator's Open/NextBatch/Close calls, which pull
  // from children), and is only collected in analyze or profile mode;
  // rows/loops/batches are always counted.
  struct Actuals {
    int64_t loops = 0;    // Open calls
    int64_t rows = 0;     // rows produced, across all loops
    int64_t batches = 0;  // NextBatch calls that produced a batch
    int64_t ns = 0;       // inclusive wall time (analyze mode only)
  };
  const Actuals& actuals() const { return actuals_; }

  // Enables wall-time measurement for this operator and its subtree
  // (EXPLAIN ANALYZE).
  void EnableAnalyze();
  bool analyze_enabled() const { return analyze_; }

  // Always-on profiling (SYS$QUERY_PROFILES): the same batch-granularity
  // timing as analyze mode — two clock reads per Open/NextBatch/Close call,
  // i.e. per ~1k-row batch at the default batch size.
  void EnableProfile();
  bool profile_enabled() const { return profile_; }

  // Stable operator-class name ("scan", "hash_join", ...) used to aggregate
  // profiles and to roll self-time up into SYS$STATEMENTS broad classes.
  virtual const char* Kind() const { return "op"; }

  // The planner's estimated output cardinality for this operator (rows per
  // loop), stamped at plan build time; < 0 when no estimate was provided.
  // EXPLAIN prints it and the executor joins it against actuals for the
  // statement record's cardinality feedback (SYS$PLAN_FEEDBACK).
  void SetEstimatedRows(double est) { est_rows_ = est; }
  double estimated_rows() const { return est_rows_; }

  // Appends this operator's plan-shape token: the operator class plus its
  // access path (table/index), but never literals — so the token is stable
  // across parameter values and the shape hash detects genuine plan flips.
  virtual void ShapeToken(std::string* out) const { *out += Kind(); }

  // Attaches the query's resource-governance context to this operator and
  // its subtree. The non-virtual wrappers then check it cooperatively: a
  // full Check() (cancel + deadline) at every Open/NextBatch. `ctx` must
  // outlive execution; null detaches.
  void AttachContext(QueryContext* ctx);

  // Direct children of this operator in the plan tree.
  virtual std::vector<Operator*> Children() { return {}; }

  // Morsel-driven scan support: returns the base-table scan that drives
  // this pipeline by descending through order-preserving streaming
  // operators (filters, projections, existential filters, join probe
  // sides), or null when the pipeline has an order/dedup/aggregation
  // -sensitive breaker (sort, distinct, aggregate, limit, union) or a
  // non-scan source. Only that driver scan may be morselized — splitting a
  // join build side or a union branch across workers would compute wrong
  // results.
  virtual ScanOp* MorselDriver() { return nullptr; }

  // Semi-join key filters: appends to `*out` the base-table scans under
  // this operator that may drop a row whose output column `column` holds
  // a value outside a join's key set. The search passes only through
  // operators whose output rows carry that column's value from one input
  // row: project, filter, distinct and both inputs of hash joins. A scan
  // is taken only with `build_side` set, which entering a hash join's
  // build input sets: a set pushed down a join's probe side lands only on
  // scans that feed a lower join's build side, where dropping a row saves
  // a copy and a hash insert rather than trading one probe for another.
  virtual void KeyFilterScans(size_t /*column*/, bool /*build_side*/,
                              std::vector<KeyFilterScan>* /*out*/) {}

 protected:
  virtual Status OpenImpl() = 0;
  virtual Result<bool> NextBatchImpl(TupleBatch* out) = 0;
  virtual void CloseImpl() = 0;
  virtual void ExplainImpl(int depth, std::string* out) const = 0;

  // Appends this operator's own EXPLAIN line, annotated with actuals when
  // analyze mode is on.
  void SelfLine(int depth, const std::string& text, std::string* out) const;

  // Governance context, for *Impl hooks that materialize rows internally
  // (join build sides, sort buffers) and must charge ReserveBytes / observe
  // cancellation inside their own loops (the NL join's inner probe loop).
  // Null when the query is ungoverned.
  QueryContext* context() const { return ctx_; }

 private:
  bool analyze_ = false;
  bool profile_ = false;
  Actuals actuals_;
  double est_rows_ = -1.0;  // planner estimate; < 0 = none
  QueryContext* ctx_ = nullptr;
};

// Explain helper: indented line.
void ExplainLine(int depth, const std::string& text, std::string* out);

// The canonical plan-shape text of the tree under `root`: pre-order,
// parenthesized, built from ShapeToken — e.g. "project(filter(scan:EMP))".
// Contains access paths but no literals, so it is stable across parameter
// values, batch sizes and worker counts. (Non-const: Children() is.)
std::string PlanShapeText(Operator* root);

// FNV-1a hash of `shape` — the plan hash SYS$PLAN_HISTORY keys on.
uint64_t PlanShapeHash(const std::string& shape);

using OperatorPtr = std::unique_ptr<Operator>;

// Opens `op`, hands every row it produces to `keep` (const Tuple& ->
// Status) in batches of up to `batch_size` rows (<= 1: batches of one),
// and closes it; each batch bumps `*batches` when set. Rows stay in their
// batch slots, which keep their capacity.
template <typename KeepFn>
Status DrainRows(Operator* op, int batch_size, StatCounter* batches,
                 const KeepFn& keep) {
  XNFDB_RETURN_IF_ERROR(op->Open());
  TupleBatch batch(BatchCapacityFor(
      op->estimated_rows(), static_cast<size_t>(std::max(batch_size, 1))));
  while (true) {
    XNFDB_ASSIGN_OR_RETURN(bool more, op->NextBatch(&batch));
    if (!more) break;
    if (batches != nullptr) ++*batches;
    for (size_t i = 0; i < batch.ActiveCount(); ++i) {
      XNFDB_RETURN_IF_ERROR(keep(batch.Active(i)));
    }
  }
  op->Close();
  return Status::Ok();
}

// Drains `op` completely (Open/NextBatch*/Close) into a vector, pulling
// batches of `batch_size` rows (<= 1: batches of one).
Result<std::vector<Tuple>> DrainOperator(Operator* op, int batch_size = 1);

// The one materialization path of every operator that keeps an input whole
// (spool builds, existential groups, sort buffer, NL-join inner side):
// drains `op` completely into `*out` in default-size batches, sized down to
// the operator's row estimate, as is the store's first chunk. Rows are
// copied out of the batch, so its slots keep their capacity. When `ctx` is
// set, every drained row's bytes are charged against its memory budget.
Status DrainInto(Operator* op, QueryContext* ctx, RowStore* out);

// Morsel-driven drain (Leis et al., SIGMOD 2014), the engine's one form of
// intra-query parallelism, for morsel-split outputs and spool builds.
// `plans` are clones of one morsel-drivable pipeline; plans[w] runs on
// worker w (worker 0 on the calling thread) in batches of `batch_size`,
// each bumping `*batches` when set. Each row, projected to `cols` (all
// columns when empty), is charged against `ctx`'s memory budget and
// appended to its morsel's bucket, so `*buckets` in order is the serial
// stream. `workers`, when set, gets each worker's rows, morsels and wall
// time. The first failure wins.
Status DrainMorsels(const std::vector<OperatorPtr>& plans, int batch_size,
                    StatCounter* batches, const std::vector<int>& cols,
                    QueryContext* ctx, std::vector<RowStore>* buckets,
                    std::vector<obs::WorkerProfile>* workers = nullptr);

// True on a thread while it runs a DrainMorsels worker. A spool opened
// there drains on that thread, so a query never runs more threads at once
// than it has morsel workers.
bool OnMorselWorker();

// DrainMorsels worker bodies running in this process (the calling thread's
// included) and the most that ever ran at once. Unlike the kernel's thread
// count, `live` drops when a body returns, before its thread is joined.
struct MorselWorkerCount {
  std::atomic<int> live{0}, peak{0};
};
MorselWorkerCount& MorselWorkers();

// --- sources ---------------------------------------------------------------

// Full scan of a base table. Optionally driven by a shared ScanMorsels
// dispenser, in which case this instance only reads the row ranges it
// claims (several plan clones over the same dispenser cover the table
// exactly once, in parallel).
class ScanOp : public Operator {
 public:
  ScanOp(const Table* table, ExecStats* stats)
      : table_(table), stats_(stats) {}

  const Table* table() const { return table_; }

  // Attaches a shared morsel dispenser; call before Open.
  void ShareMorsels(std::shared_ptr<ScanMorsels> morsels) {
    morsels_ = std::move(morsels);
  }

  // Morsel id the most recently returned row/batch came from (-1 before
  // the first claim). Under morsel execution a batch never spans morsels.
  int64_t current_morsel() const { return current_morsel_; }

  // Morsels this instance claimed since Open (per-worker share of the scan;
  // the morsel-worker profile rows report it).
  int64_t claimed_morsels() const { return claimed_; }

  // Keeps only rows whose filter column holds a member of the filter's
  // set, until Close. Call before Open. A dropped row still counts as
  // scanned: the scan read it.
  void AddKeyFilter(const KeyFilter& filter) { filters_.push_back(filter); }

  // Rows key filters dropped, across loops (EXPLAIN ANALYZE).
  int64_t key_filtered_rows() const { return filtered_; }

  ScanOp* MorselDriver() override { return this; }
  void KeyFilterScans(size_t column, bool build_side,
                      std::vector<KeyFilterScan>* out) override;
  const char* Kind() const override { return "scan"; }
  void ShapeToken(std::string* out) const override;

 protected:
  Status OpenImpl() override {
    rid_ = 0;
    morsel_end_ = 0;
    current_morsel_ = -1;
    claimed_ = 0;
    return Status::Ok();
  }
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  // The key filters belong to the joins' current builds: a reopened plan
  // pushes them again.
  void CloseImpl() override { filters_.clear(); }

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  // Claims the next morsel; false when the table is exhausted.
  bool ClaimMorsel();

  const Table* table_;
  ExecStats* stats_;
  Rid rid_ = 0;
  std::shared_ptr<ScanMorsels> morsels_;
  Rid morsel_end_ = 0;  // exclusive end of the claimed range (morsel mode)
  int64_t current_morsel_ = -1;
  int64_t claimed_ = 0;
  std::vector<KeyFilter> filters_;
  int64_t filtered_ = 0;  // rows dropped by key filters, across loops
};

// Scan over a virtual system table (storage/sysview.h): the provider's
// Generate() is materialized at Open, so one scan sees one consistent
// point-in-time snapshot of the engine state it exposes.
class VirtualScanOp : public Operator {
 public:
  VirtualScanOp(const VirtualTableProvider* provider, ExecStats* stats)
      : provider_(provider), stats_(stats) {}

  const char* Kind() const override { return "virtual_scan"; }
  void ShapeToken(std::string* out) const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override { rows_.clear(); }

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  const VirtualTableProvider* provider_;
  ExecStats* stats_;
  std::vector<Tuple> rows_;
  size_t pos_ = 0;
};

// Hash-index equality lookup `column = key` on a base table.
class IndexScanOp : public Operator {
 public:
  IndexScanOp(const Table* table, int column, Value key, ExecStats* stats)
      : table_(table), column_(column), key_(std::move(key)), stats_(stats) {}

  const char* Kind() const override { return "index_scan"; }
  void ShapeToken(std::string* out) const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override {}

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  const Table* table_;
  int column_;
  Value key_;
  ExecStats* stats_;
  const std::vector<Rid>* rids_ = nullptr;
  size_t pos_ = 0;
};

// Ordered-index range scan: rows with lo <=(=) column <=(=) hi.
class RangeScanOp : public Operator {
 public:
  RangeScanOp(const Table* table, int column, std::optional<Value> lo,
              bool lo_inclusive, std::optional<Value> hi, bool hi_inclusive,
              ExecStats* stats)
      : table_(table),
        column_(column),
        lo_(std::move(lo)),
        lo_inclusive_(lo_inclusive),
        hi_(std::move(hi)),
        hi_inclusive_(hi_inclusive),
        stats_(stats) {}

  const char* Kind() const override { return "range_scan"; }
  void ShapeToken(std::string* out) const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override {}

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  const Table* table_;
  int column_;
  std::optional<Value> lo_;
  bool lo_inclusive_;
  std::optional<Value> hi_;
  bool hi_inclusive_;
  ExecStats* stats_;
  std::vector<Rid> rids_;
  size_t pos_ = 0;
};

// Reader over a server-side materialized view (src/matview/): serves the
// stored rows of one output stream without re-running the join tree. Like
// SpoolReadOp but with matview provenance: Kind/ShapeToken carry the view
// name, so SYS$PLAN_HISTORY witnesses the plan flip and EXPLAIN shows
// `matview=<name>`.
class MatViewScanOp : public Operator {
 public:
  MatViewScanOp(std::string view_name,
                std::shared_ptr<const std::vector<Tuple>> rows,
                ExecStats* stats)
      : view_name_(std::move(view_name)),
        rows_(std::move(rows)),
        stats_(stats) {}

  const char* Kind() const override { return "matview_scan"; }
  void ShapeToken(std::string* out) const override {
    *out += "matview_scan:" + view_name_;
  }

 protected:
  Status OpenImpl() override {
    pos_ = 0;
    return Status::Ok();
  }
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override {}

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  std::string view_name_;
  std::shared_ptr<const std::vector<Tuple>> rows_;
  ExecStats* stats_;
  size_t pos_ = 0;
};

// One shared box's spool (paper Sect. 4.2: a common subexpression is
// materialized once and read many times). The planner compiles the box's
// subtree into `producers`; the first reader to Open drains it into `rows`
// and releases it while holding `mu`, so readers that open concurrently —
// morsel clones — wait on the latch and then read the finished rows
// without it. The build's outcome is kept in `status`: a failed build is
// handed to every reader and never served. A morsel-drivable producer is
// compiled once per morsel worker, and the build runs on morsels unless
// it is opened on a morsel worker already; otherwise producers[0] is
// drained alone.
struct SpoolState {
  explicit SpoolState(OperatorPtr producer) {
    producers.push_back(std::move(producer));
  }

  std::mutex mu;  // the latch, held for the whole build
  std::vector<OperatorPtr> producers;  // guarded by mu; empty once built
  Status status;  // guarded by mu; the build's outcome
  RowStore rows;  // immutable once built
};

// Reader of one SpoolState; the planner returns one per consumer of a
// shared box. The spool subtree is not among its Children(), so plan shapes
// read `spool_read` whether or not the spool is built yet.
class SpoolReadOp : public Operator {
 public:
  SpoolReadOp(std::shared_ptr<SpoolState> spool, ExecStats* stats)
      : spool_(std::move(spool)), stats_(stats) {}

  const char* Kind() const override { return "spool_read"; }

  // The spool's rows; valid after a successful Open.
  const RowStore& rows() const { return spool_->rows; }

 protected:
  // Builds the spool if no reader has yet: drains the producer under this
  // reader's governance context, at the default batch size (it is a
  // blocking input), on morsels when the spool has several producers,
  // and counts one spool build.
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override {}

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  std::shared_ptr<SpoolState> spool_;
  ExecStats* stats_;
  size_t pos_ = 0;
};

// --- row transforms ----------------------------------------------------------

class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, std::vector<const qgm::Expr*> preds,
           Layout layout, ExecStats* stats = nullptr)
      : child_(std::move(child)),
        preds_(std::move(preds)),
        layout_(std::move(layout)),
        stats_(stats) {}

  std::vector<Operator*> Children() override { return {child_.get()}; }
  ScanOp* MorselDriver() override { return child_->MorselDriver(); }
  void KeyFilterScans(size_t column, bool build_side,
                      std::vector<KeyFilterScan>* out) override {
    child_->KeyFilterScans(column, build_side, out);
  }
  const char* Kind() const override { return "filter"; }

 protected:
  Status OpenImpl() override { return child_->Open(); }
  // Pulls the child's batch into `out` and deselects failing rows in the
  // selection vector — no row copies.
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override { child_->Close(); }

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  OperatorPtr child_;
  std::vector<const qgm::Expr*> preds_;
  Layout layout_;
  ExecStats* stats_;
};

class ProjectOp : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<const qgm::Expr*> exprs,
            Layout layout, ExecStats* stats = nullptr)
      : child_(std::move(child)),
        exprs_(std::move(exprs)),
        layout_(std::move(layout)),
        stats_(stats) {}

  std::vector<Operator*> Children() override { return {child_.get()}; }
  ScanOp* MorselDriver() override { return child_->MorselDriver(); }
  void KeyFilterScans(size_t column, bool build_side,
                      std::vector<KeyFilterScan>* out) override;
  const char* Kind() const override { return "project"; }

 protected:
  Status OpenImpl() override { return child_->Open(); }
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override { child_->Close(); }

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  OperatorPtr child_;
  std::vector<const qgm::Expr*> exprs_;
  Layout layout_;
  ExecStats* stats_;
  TupleBatch in_{1};  // child-side batch, sized like the output batch
};

class DistinctOp : public Operator {
 public:
  explicit DistinctOp(OperatorPtr child) : child_(std::move(child)) {}

  std::vector<Operator*> Children() override { return {child_.get()}; }
  // Dropping input rows by one column's value drops only output rows with
  // that value: equal rows hold equal values.
  void KeyFilterScans(size_t column, bool build_side,
                      std::vector<KeyFilterScan>* out) override {
    child_->KeyFilterScans(column, build_side, out);
  }
  const char* Kind() const override { return "distinct"; }

 protected:
  Status OpenImpl() override {
    seen_.Reset(child_->estimated_rows());
    return child_->Open();
  }
  // Pulls the child's batch into `out` and deselects rows seen before, the
  // way FilterOp does — no row moves.
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override { child_->Close(); }

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  // True when `row` is new; the dedup set keeps a copy of it.
  Result<bool> FirstSighting(const Tuple& row);

  OperatorPtr child_;
  RowSet seen_;
};

class SortOp : public Operator {
 public:
  SortOp(OperatorPtr child, std::vector<std::pair<int, bool>> keys)
      : child_(std::move(child)), keys_(std::move(keys)) {}

  std::vector<Operator*> Children() override { return {child_.get()}; }
  const char* Kind() const override { return "sort"; }

 protected:
  // Drains the child (opened and closed inside) into rows_ and orders it.
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override {}

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  OperatorPtr child_;
  std::vector<std::pair<int, bool>> keys_;  // (column, descending)
  RowStore rows_;
  std::vector<uint32_t> order_;  // row ids of rows_ in sort order
  size_t pos_ = 0;
};

// Emits at most `limit` rows (-1 = unlimited) after skipping `offset`.
class LimitOp : public Operator {
 public:
  LimitOp(OperatorPtr child, int64_t limit, int64_t offset)
      : child_(std::move(child)), limit_(limit), offset_(offset) {}

  std::vector<Operator*> Children() override { return {child_.get()}; }
  const char* Kind() const override { return "limit"; }

 protected:
  Status OpenImpl() override {
    emitted_ = 0;
    skipped_ = 0;
    return child_->Open();
  }
  // Pulls the child in batches no larger than the rows still owed
  // (offset still to skip plus limit still to emit), so a streaming child
  // reads no row past the last one the limit passes on.
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override { child_->Close(); }

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  OperatorPtr child_;
  int64_t limit_;
  int64_t offset_;
  int64_t emitted_ = 0;
  int64_t skipped_ = 0;
  TupleBatch in_{1};  // child-side batch
};

// --- joins -------------------------------------------------------------------

// Hash equi-join; residual predicates evaluated over the combined row
// (left columns then right columns).
//
// The join carries one runtime semi-join filter (DESIGN.md §10.2). When the
// probe side is a spool, its rows exist once it is open, so the join
// pushes the set of each probe key's values into the build side's scans
// before opening them. Otherwise it opens and builds the build side first
// and pushes each build key's value set down the probe side, onto scans
// that feed a lower join's build side. Inner equi-joins drop exactly
// those rows later anyway, and a filtered scan keeps its order, so the
// output stays the same row for row.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right,
             std::vector<const qgm::Expr*> left_keys,
             std::vector<const qgm::Expr*> right_keys,
             std::vector<const qgm::Expr*> residual, Layout left_layout,
             Layout right_layout, Layout combined_layout, ExecStats* stats)
      : left_(std::move(left)),
        right_(std::move(right)),
        left_keys_(std::move(left_keys)),
        right_keys_(std::move(right_keys)),
        residual_(std::move(residual)),
        left_layout_(std::move(left_layout)),
        right_layout_(std::move(right_layout)),
        combined_layout_(std::move(combined_layout)),
        stats_(stats) {}

  std::vector<Operator*> Children() override {
    return {left_.get(), right_.get()};
  }
  // Probe (left) side only: the build side must be fully built by every
  // worker, so it is never morselized.
  ScanOp* MorselDriver() override { return left_->MorselDriver(); }
  void KeyFilterScans(size_t column, bool build_side,
                      std::vector<KeyFilterScan>* out) override;
  const char* Kind() const override { return "hash_join"; }

 protected:
  Status OpenImpl() override;
  // Probes one whole left batch per call, emitting every match (output may
  // exceed the nominal capacity — no probe state is carried across calls).
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override {
    left_->Close();
    right_->Close();
  }

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  // Drains the build side into build_rows_/build_keys_/build_index_.
  Status Build();
  // Pushes the value set of each probe key over the open spool's `rows`
  // into the build side's scans.
  Status FilterBuildSide(const RowStore& rows);
  // Pushes the value set of each build key down the probe side.
  Status FilterProbeSide();
  // Adds non-NULL `v` to key_sets_[k], charging a new value's bytes.
  Status AddKeyValue(size_t k, const Value& v);
  // Evaluates the probe-side key exprs against `row` into probe_key_ and
  // returns the first build row matching it (RowHashIndex::kNone when the
  // key has a NULL or no build row matches).
  Result<uint32_t> FirstMatch(const Tuple& row);
  // Emits all surviving build matches of left row `left` into `out`.
  Status ProbeInto(const Tuple& left, TupleBatch* out);

  OperatorPtr left_;
  OperatorPtr right_;  // build side
  std::vector<const qgm::Expr*> left_keys_;
  std::vector<const qgm::Expr*> right_keys_;
  std::vector<const qgm::Expr*> residual_;
  Layout left_layout_;
  Layout right_layout_;
  Layout combined_layout_;
  ExecStats* stats_;

  // Build side: row i of build_rows_ has key row i of build_keys_; the
  // index chains equal keys in build order, so matches come out in the
  // order the build side produced them.
  RowStore build_rows_;
  RowStore build_keys_;
  RowHashIndex build_index_;
  // All-ColRef probe keys resolve to flat column offsets once at Open.
  std::vector<size_t> left_key_cols_;
  bool left_keys_flat_ = false;
  Tuple probe_key_;  // reused per probe
  TupleBatch left_batch_{1};  // probe-side batch, sized like the output
  // Per key column, the value set handed to key filters, when the join
  // built one; sized by the first set an Open builds, before any scan
  // holds a pointer into it, and never resized after.
  std::vector<RowSet> key_sets_;
};

// Nested-loop join (inner side materialized) for non-equi predicates.
class NLJoinOp : public Operator {
 public:
  NLJoinOp(OperatorPtr left, OperatorPtr right,
           std::vector<const qgm::Expr*> preds, Layout combined_layout,
           ExecStats* stats)
      : left_(std::move(left)),
        right_(std::move(right)),
        preds_(std::move(preds)),
        combined_layout_(std::move(combined_layout)),
        stats_(stats) {}

  std::vector<Operator*> Children() override {
    return {left_.get(), right_.get()};
  }
  const char* Kind() const override { return "nl_join"; }

 protected:
  // Opens the left side and drains the inner (right) side, which is opened
  // and closed inside.
  Status OpenImpl() override;
  // Joins left batch rows against every inner row, building each combined
  // row in its output slot, until the output batch is full; the probe
  // position carries over to the next call. Checks the governor every 1,024
  // inner probes, since one call may probe far more rows than it emits.
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override { left_->Close(); }

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<const qgm::Expr*> preds_;
  Layout combined_layout_;
  ExecStats* stats_;

  RowStore inner_;
  TupleBatch left_batch_{1};  // current probe-side batch
  size_t left_pos_ = 0;       // active row of left_batch_ being joined
  size_t inner_pos_ = 0;      // next inner row to probe against it
  uint64_t probes_ = 0;       // inner probes since Open (governor cadence)
};

// --- existential checks --------------------------------------------------------

// One alternative of a disjunctive existential predicate.
struct GroupCheck {
  bool negated = false;  // NOT EXISTS / NOT IN semantics

  // The group-side join tree, drained into `rows` and released (null) by
  // the first probe that needs the group, so a group no outer row reaches
  // is never built. Morsel workers each own a full plan clone, so a group
  // is only ever filled and probed by one thread.
  OperatorPtr op;
  RowStore rows;
  Layout group_layout;    // offsets within a group row (unshifted)
  Layout combined_layout; // outer layout + group layout shifted

  // Extracted equi-correlation: outer keys (over the outer layout) matched
  // against inner keys (over the group layout). Empty => scan.
  std::vector<const qgm::Expr*> equi_outer;
  std::vector<const qgm::Expr*> equi_inner;
  // Remaining correlated predicates over the combined layout.
  std::vector<const qgm::Expr*> residual;

  // Hash over `rows` keyed by equi_inner, built with the rows. Key row k of
  // `keys` belongs to group row key_rows[k]; rows with a NULL key are not
  // indexed.
  RowStore keys;
  std::vector<uint32_t> key_rows;
  RowHashIndex index;
  bool index_built = false;
};

// Existential filtering. In disjunctive mode an outer row qualifies when at
// least one group admits a matching group row (OR — XNF reachability via
// any relationship); in conjunctive mode every group must match (ordinary
// top-level EXISTS conjuncts). With `naive` set, hash indexes are disabled
// and each check scans the materialized group rows — the "straightforward
// execution strategy used in many DBMSs" of Sect. 3.2, kept for
// benchmarking the rewrite win.
class ExistsFilterOp : public Operator {
 public:
  ExistsFilterOp(OperatorPtr child, std::vector<GroupCheck> groups,
                 Layout outer_layout, bool disjunctive, bool naive,
                 ExecStats* stats)
      : child_(std::move(child)),
        groups_(std::move(groups)),
        outer_layout_(std::move(outer_layout)),
        disjunctive_(disjunctive),
        naive_(naive),
        stats_(stats) {}

  std::vector<Operator*> Children() override { return {child_.get()}; }
  ScanOp* MorselDriver() override { return child_->MorselDriver(); }
  const char* Kind() const override { return "exists"; }

 protected:
  // Opens only the child: a group's rows and hash index are built by the
  // first probe that needs them (EnsureRows, EnsureIndex), so an empty
  // probe side — or a governor deadline/cancel that fires before the first
  // row — never pays the build cost.
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override { child_->Close(); }

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  // Drains `g`'s join tree into its rows if not yet filled, under this
  // operator's governance context.
  Status EnsureRows(GroupCheck* g);
  // Builds `g`'s hash index if not yet built; checks the governor before
  // and during the build so budget terminations fire first.
  Status EnsureIndex(GroupCheck* g);
  Result<bool> GroupMatches(GroupCheck* g, const Tuple& outer);
  Result<bool> RowPasses(const Tuple& row);
  // Evaluates `g`'s residual predicates over `outer` + group row `row`.
  Result<bool> ResidualPasses(const GroupCheck& g, const Tuple& outer,
                              RowView row);

  OperatorPtr child_;
  std::vector<GroupCheck> groups_;
  Layout outer_layout_;
  bool disjunctive_;
  bool naive_;
  ExecStats* stats_;
  Tuple probe_key_;  // reused per probe
  Tuple combined_;   // reused outer + group row for residual predicates
};

// --- set operations ------------------------------------------------------------

class UnionOp : public Operator {
 public:
  explicit UnionOp(std::vector<OperatorPtr> children)
      : children_(std::move(children)) {}

  std::vector<Operator*> Children() override {
    std::vector<Operator*> out;
    out.reserve(children_.size());
    for (const OperatorPtr& c : children_) out.push_back(c.get());
    return out;
  }
  const char* Kind() const override { return "union"; }

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override {
    for (auto& c : children_) c->Close();
  }

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  std::vector<OperatorPtr> children_;
  size_t current_ = 0;
};

// --- aggregation ----------------------------------------------------------------

// Output column of an aggregation: either a grouping expression or a bare
// aggregate over an argument expression.
struct AggSpec {
  bool is_agg = false;
  std::string func;            // COUNT/SUM/MIN/MAX/AVG
  const qgm::Expr* arg = nullptr;  // null => COUNT(*)
  const qgm::Expr* group_expr = nullptr;
};

class AggOp : public Operator {
 public:
  AggOp(OperatorPtr child, std::vector<const qgm::Expr*> group_by,
        std::vector<AggSpec> specs, Layout layout)
      : child_(std::move(child)),
        group_by_(std::move(group_by)),
        specs_(std::move(specs)),
        layout_(std::move(layout)) {}

  std::vector<Operator*> Children() override { return {child_.get()}; }
  const char* Kind() const override { return "agg"; }

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override { child_->Close(); }

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  OperatorPtr child_;
  std::vector<const qgm::Expr*> group_by_;
  std::vector<AggSpec> specs_;
  Layout layout_;
  std::vector<Tuple> results_;
  size_t pos_ = 0;
};

}  // namespace xnfdb

#endif  // XNFDB_EXEC_OPERATORS_H_
