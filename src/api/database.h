// The embedded database facade: one object owning the catalog and providing
// statement execution, query compilation+evaluation, and the server-call
// accounting used to model the workstation/server boundary of Fig. 7.
//
// Usage:
//   Database db;
//   db.ExecuteScript("CREATE TABLE DEPT (DNO INTEGER, ...); INSERT ...;");
//   auto result = db.Query("OUT OF xdept AS (SELECT ...) ... TAKE *");

#ifndef XNFDB_API_DATABASE_H_
#define XNFDB_API_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/governor.h"
#include "api/watchdog.h"
#include "matview/matview.h"
#include "common/config.h"
#include "common/env.h"
#include "common/status.h"
#include "exec/executor.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/statement_record.h"
#include "obs/trace.h"
#include "parser/ast.h"
#include "parser/fingerprint.h"
#include "storage/catalog.h"
#include "xnf/compiler.h"

namespace xnfdb {

class Database {
 public:
  Database() : Database(Env::Default()) {}
  explicit Database(Env* env) : Database(env, Config::FromEnv()) {}
  // All of this database's durable I/O (SaveTo/LoadFrom) goes through
  // `env`; pass a FaultInjectionEnv to exercise failure paths. `config`
  // holds every knob (common/config.h); its process-wide ones are applied
  // to the logger, the flight recorder and the crash handler here. The
  // constructor registers the sys$ system views (storage/sysview.h) on the
  // fresh catalog.
  Database(Env* env, Config config);
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  // Dumps the collected trace to the XNFDB_TRACE path, when tracing is on.
  ~Database();

  Env* env() const { return env_; }
  // The configuration this database runs with; Knobs() lists every knob's
  // raw and resolved value.
  const Config& config() const { return config_; }

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  // Outcome of one statement.
  struct Outcome {
    enum class Kind { kNone, kRows, kAffected };
    Kind kind = Kind::kNone;
    QueryResult result;   // kRows
    size_t affected = 0;  // kAffected (rows inserted/updated/deleted)
    // Phase wall times for the statement (queries only; 0 for DML/DDL).
    int64_t compile_us = 0;
    int64_t execute_us = 0;
  };

  // Parses and executes a single statement of any kind.
  Result<Outcome> Execute(const std::string& sql);

  // Executes a ';'-separated script; returns the number of statements run.
  Result<size_t> ExecuteScript(const std::string& script);

  // Compiles and runs a query: a SELECT, an OUT OF query, or the name of a
  // stored (SQL or XNF) view. Recursive COs are routed to the fixpoint
  // evaluator automatically.
  Result<QueryResult> Query(const std::string& text,
                            const CompileOptions& copts = {},
                            const ExecOptions& eopts = {});

  // Runs an already parsed XNF query.
  Result<QueryResult> QueryXnf(const ast::XnfQuery& query,
                               const CompileOptions& copts = {},
                               const ExecOptions& eopts = {});

  // EXPLAIN: compiles `text` and renders the rewrite statistics, operation
  // counts, and the physical plan of every output stream — without
  // executing any of it: spools and existential groups show as not built.
  Result<std::string> Explain(const std::string& text,
                              const CompileOptions& copts = {},
                              const ExecOptions& eopts = {});

  // EXPLAIN ANALYZE ({analyze: true}): additionally *executes* the query
  // and annotates every operator line with its actual row count, loop count
  // and inclusive wall time.
  // EXPLAIN REWRITE ({rewrite: true}): prepends the ordered rewrite-rule
  // log — one line per rule application with pass number, fired/no-match,
  // rejected-match count, QGM box counts before/after, and wall time.
  struct ExplainOptions {
    bool analyze = false;
    bool rewrite = false;
  };
  Result<std::string> Explain(const std::string& text,
                              const ExplainOptions& xopts,
                              const CompileOptions& copts = {},
                              const ExecOptions& eopts = {});

  // --- observability ------------------------------------------------------
  // This database's tracer (enabled by the XNFDB_TRACE environment
  // variable) and the metrics registry it reports into (the process-wide
  // default, shared with the CO cache and Env instrumentation).
  obs::Tracer& tracer() { return tracer_; }
  obs::MetricsRegistry& metrics() { return *metrics_; }

  // One JSON snapshot of every metric in the system: phase-latency
  // histograms, executor counters, CO cache swizzle/fetch counters, env I/O
  // counters, and server.calls.
  std::string MetricsJson() const { return metrics_->ToJson(); }
  std::string MetricsPrometheus() const {
    return metrics_->ToPrometheusText();
  }

  // The per-statement record (obs/statement_record.h), the one stored
  // relation behind SYS$STATEMENTS, SYS$QUERY_PROFILES, SYS$REWRITES,
  // SYS$PLAN_FEEDBACK and SYS$PLAN_HISTORY. Every Execute/Query/QueryXnf
  // fingerprints its statement and writes one sample at statement end:
  // calls, errors, rows and latency per digest always; with capture on
  // (XNFDB_QUERY_PROFILES, default 1) also the compile's rewrite-rule trace
  // (kept when the statement fails at runtime), the execution profile, the
  // worst q-error operators and the plan-shape history. A plan flip emits
  // one structured warn line on the "planchange" channel and bumps the
  // plan.changes counter — unless either side was a materialized-view
  // serve, an expected flip that is only recorded in the history.
  const obs::StatementRecordStore& statements() const { return statements_; }
  obs::StatementRecordStore& statements() { return statements_; }

  // The metrics time-series sampler behind SYS$METRICS_HISTORY. Its
  // background thread starts when XNFDB_METRICS_SAMPLE_MS > 0 (ring size
  // XNFDB_METRICS_RING, default 120); SampleNow() works either way (shell
  // `.sample`).
  obs::MetricsSampler& sampler() { return *sampler_; }
  const obs::MetricsSampler& sampler() const { return *sampler_; }

  // The flight recorder behind SYS$EVENTS (the process-wide instance;
  // XNFDB_EVENTS=0 disables recording, ring size XNFDB_EVENT_RING).
  obs::FlightRecorder& events() { return obs::FlightRecorder::Default(); }

  // The health/alert engine behind SYS$HEALTH and SYS$ALERTS. Built-in
  // rules are evaluated on every sampler tick (background or SampleNow);
  // each OK<->FIRING transition emits one warn line on the "health"
  // channel and one flight-recorder event.
  obs::HealthEngine& health() { return health_; }
  const obs::HealthEngine& health() const { return health_; }
  // {"status":"ok"|"degraded",...} — the machine-readable health payload.
  std::string HealthReport() const { return health_.ReportJson(); }

  // Writes an on-demand diagnostic bundle into `dir` (created if needed):
  // the crash-style report plus metrics, flight-recorder events, health
  // state, live queries, sampler history, query profiles, plan feedback and
  // resolved env knobs — each as a checksummed XNFDIAG sectioned file,
  // written atomically. A failed file is skipped (and listed as failed in
  // MANIFEST.diag) while the rest of the bundle is still written; the first
  // failure is returned. Shell `.diag`; the same content a crash report
  // condenses.
  Status WriteDiagnosticBundle(const std::string& dir) const;

  // The stuck-query watchdog. Its background thread starts when
  // XNFDB_WATCHDOG_STALL_MS > 0 (poll cadence XNFDB_WATCHDOG_POLL_MS;
  // XNFDB_WATCHDOG_CANCEL=1 turns reports into cooperative kills).
  Watchdog& watchdog() { return *watchdog_; }
  const Watchdog& watchdog() const { return *watchdog_; }

  // Slow-query log: any statement whose total wall time exceeds the
  // threshold emits one JSON line on the "slowlog" channel of
  // Logger::Default(), carrying the normalized text, phase timings, and
  // (for queries) the EXPLAIN ANALYZE plan. While armed, query execution
  // runs in analyze mode so the plan is captured without a re-run.
  // Negative (the default) disarms.
  void SetSlowQueryThreshold(int64_t us) { slow_query_threshold_us_ = us; }
  int64_t slow_query_threshold_us() const { return slow_query_threshold_us_; }

  // --- persistence (storage/persist.h through the env) --------------------
  // Saves the whole catalog crash-safely: v2 checksummed format, written to
  // a temp file, synced, then atomically renamed over `path` — an
  // interrupted save leaves the previous database file intact.
  Status SaveTo(const std::string& path) const;
  // Restores a database saved with SaveTo (v1 and v2 files); the catalog
  // must be empty.
  Status LoadFrom(const std::string& path);

  // --- client/server boundary model (Sect. 5.1) ---------------------------
  // Every Execute/Query counts one server call; per-tuple cursor fetches
  // (see FetchAll) count one call per tuple, modelling the traditional
  // "one tuple at a time" interface.
  // Relaxed atomics: the count is a tally, not a synchronization point, and
  // concurrent queries (and Cancel callers) may bump it from any thread.
  int64_t server_calls() const {
    return server_calls_.load(std::memory_order_relaxed);
  }
  void ResetServerCalls() { server_calls_.store(0, std::memory_order_relaxed); }
  void CountServerCall(int64_t n = 1) {
    server_calls_.fetch_add(n, std::memory_order_relaxed);
    server_calls_counter_->Increment(n);
  }

  // Models transient failures of the client/server boundary: the next `n`
  // Execute calls fail with kIoError before doing any work. Lets tests
  // drive write-back's bounded retry-with-backoff path.
  void InjectTransientFailures(int n) { transient_failures_ = n; }

  // --- materialized CO views (src/matview/) -------------------------------
  // The server-side materialized-view store behind SYS$MATVIEWS: hot view
  // shapes are captured automatically by execution frequency (or pinned via
  // MATERIALIZE <view>), kept fresh under DML by delta propagation with a
  // stale-then-recompute fallback, and matching executions are served by
  // MatViewScanOp over the stored answer set. XNFDB_MATVIEWS=0 disables.
  MatViewStore& matviews() { return matviews_; }
  const MatViewStore& matviews() const { return matviews_; }

  // --- resource governance (api/governor.h) -------------------------------
  // Every Query/QueryXnf/SELECT execution runs under a QueryContext with
  // limits resolved from ExecOptions (or the governor's configured
  // defaults) and is registered with the governor for the duration —
  // admission control, SYS$QUERIES visibility, and kill support.
  Governor& governor() { return governor_; }
  const Governor& governor() const { return governor_; }

  // Requests cooperative termination of a live query by its SYS$QUERIES id
  // (shell `.kill`). NotFound when the id is not live.
  Status Cancel(int64_t query_id) { return governor_.Cancel(query_id); }

 private:
  // RunStatement plus statement recording and slow-query logging.
  Status RunTimed(const ast::Statement& stmt, Outcome* outcome);
  // Runs one parsed statement; a query's compile trace and execution
  // capture land in `sample`.
  Status RunStatement(const ast::Statement& stmt, Outcome* outcome,
                      obs::StatementSample* sample);
  // Query/QueryXnf after compilation: executes, then records the statement.
  // `t0` is the statement's start (before compilation).
  Result<QueryResult> RunCompiledQuery(CompiledQuery& compiled,
                                       const ExecOptions& eopts, int64_t t0);
  // Writes the finished statement's sample into `statements_` (the one
  // store write per statement), warns on an unexpected plan flip, and
  // emits the slow-query log line when armed and exceeded — or, regardless
  // of speed, when the governor terminated the statement
  // (kill/deadline/budget attribution). `plan_texts` may be null.
  void RecordStatement(obs::StatementSample& sample, const Status& status,
                       int64_t compile_us, int64_t execute_us,
                       const std::vector<std::string>* plan_texts);
  // Renders the plain-EXPLAIN body (rewrite summary, operation counts, and
  // the physical plan of every output) for an already compiled query.
  Result<std::string> ExplainCompiled(const CompiledQuery& compiled,
                                      const ExecOptions& eopts);
  // Runs a compiled query under governance: builds the QueryContext (limits
  // from `eopts` falling back to governor defaults), admits, executes via
  // the fixpoint or graph path, and releases. With capture on, the compile's
  // rewrite trace and the execution's profile, plan and feedback go into
  // `sample` for the statement's record.
  // Non-const `compiled`: the trace moves into `sample`, and when this
  // execution is captured as a materialization, the compiled graph moves
  // into the matview store (for delta re-planning) instead of being cloned.
  Result<QueryResult> ExecuteGoverned(CompiledQuery& compiled,
                                      const ExecOptions& eopts,
                                      obs::StatementSample* sample);
  // Builds the QueryResult of a matview serve: MatViewScanOps over the
  // stored component streams, connections emitted from stored partner-tid
  // tuples, stats/plan-shape/feedback/profile filled as a real execution.
  Result<QueryResult> ServeMatView(const CompiledQuery& compiled,
                                   const MatViewStore::ServeHandle& handle,
                                   const ExecOptions& eo);
  Status RunMaterialize(const ast::MaterializeStatement& stmt,
                        Outcome* outcome, obs::StatementSample* sample);
  Status RunCreateTable(const ast::CreateTableStatement& stmt);
  Status RunInsert(const ast::InsertStatement& stmt, Outcome* outcome);
  Status RunUpdate(const ast::UpdateStatement& stmt, Outcome* outcome);
  Status RunDelete(const ast::DeleteStatement& stmt, Outcome* outcome);

  // Fills unset observability sinks, and the batch size and morsel workers
  // left at 0, in copies of the caller's options.
  CompileOptions WithObs(const CompileOptions& copts);
  ExecOptions WithObs(const ExecOptions& eopts);

  const Config config_;
  Catalog catalog_;
  Env* env_;
  std::atomic<int64_t> server_calls_{0};
  int transient_failures_ = 0;
  int64_t slow_query_threshold_us_ = -1;
  obs::StatementRecordStore statements_{512};
  obs::Tracer tracer_{!config_.trace_path.empty()};
  obs::MetricsRegistry* metrics_ = &obs::MetricsRegistry::Default();
  obs::Counter* server_calls_counter_ = metrics_->GetCounter("server.calls");
  // Executions whose worst q-error reached XNFDB_QERROR_ALERT (the series
  // behind the qerror_blowups health rule).
  obs::Counter* qerror_blowups_ =
      metrics_->GetCounter("plan.qerror_blowups");
  // Declared after metrics_ (counter handles) and before governor_ (DML
  // under an admitted statement may invalidate entries).
  MatViewStore matviews_{config_.matview, metrics_};
  Governor governor_{config_.governor, metrics_};
  // Declared before sampler_: the sampler's on-sample callback evaluates
  // health rules, so the engine must outlive the sampler thread's join.
  obs::HealthEngine health_;
  // Declared after governor_/metrics_/health_: both background threads
  // observe them and must be destroyed (joined) first.
  std::unique_ptr<obs::MetricsSampler> sampler_;
  std::unique_ptr<Watchdog> watchdog_;
};

}  // namespace xnfdb

#endif  // XNFDB_API_DATABASE_H_
