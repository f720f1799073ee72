// Query resource governor: overload admission control plus the registry of
// in-flight queries (kill support, SYS$QUERIES).
//
// The governor complements per-query QueryContext governance
// (exec/query_context.h): the context enforces limits *inside* one query's
// execution; the governor decides whether a query may start executing at
// all, and tracks every admitted or queued query so operators can observe
// (`SELECT * FROM SYS$QUERIES`) and terminate (`Database::Cancel`, shell
// `.kill`) them.
//
// Admission: at most `max_concurrent` queries run at once (0 = unlimited).
// When the engine is saturated, up to `max_queue` callers wait on a
// condition variable; beyond that the query is rejected immediately with
// kResourceExhausted — under overload the engine sheds load instead of
// accumulating unbounded waiters. A queued query still honours its deadline
// (kDeadlineExceeded fires while waiting) and its cancellation flag.
//
// This lives in the api layer, not storage/sysview.cc, because exec depends
// on storage: a provider over live QueryContexts cannot sit below the
// executor without an include cycle. Database registers the SYS$QUERIES
// provider itself at construction.
//
// Metrics (pre-registered at zero):
//   governor.admitted / queued / rejected        admission outcomes
//   governor.completed / cancelled / timed_out / budget_exceeded / failed
//                                                release classification
//   governor.running / governor.queue_depth      point-in-time gauges
//   governor.queue_wait.us                       admission-wait histogram

#ifndef XNFDB_API_GOVERNOR_H_
#define XNFDB_API_GOVERNOR_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "exec/query_context.h"
#include "obs/metrics.h"
#include "storage/sysview.h"

namespace xnfdb {

class Governor {
 public:
  Governor(GovernorOptions options, obs::MetricsRegistry* metrics);

  // Reconfigures limits at runtime (tests, shell). Takes effect for the
  // next Admit; already-queued waiters re-evaluate on the next wakeup.
  void SetOptions(const GovernorOptions& options);
  GovernorOptions options() const;

  // Registers a query and blocks until it may execute. Returns its query
  // id on admission; kResourceExhausted when the wait queue is full,
  // kDeadlineExceeded when `ctx`'s deadline expires while queued,
  // kCancelled when the query is killed while queued. `ctx` must be the
  // context the query will execute under (Cancel(id) flips its flag).
  Result<int64_t> Admit(const std::string& text,
                        std::shared_ptr<QueryContext> ctx);

  // Unregisters a query after execution, classifying `status` into the
  // governor.* outcome counters and waking one queued waiter.
  void Release(int64_t id, const Status& status);

  // Requests cooperative termination of a running or queued query.
  // NotFound when no such id is live (already finished or never existed).
  Status Cancel(int64_t id);

  // Point-in-time view of every live query (SYS$QUERIES, shell .queries).
  struct QueryInfo {
    int64_t id = 0;
    std::string state;  // "queued" | "running"
    std::string text;   // normalized statement text
    int64_t elapsed_us = 0;
    int64_t rows_out = 0;
    int64_t bytes_reserved = 0;
    // Live progress: operator-wrapper heartbeat count (stall detection) and
    // the admission wait this query paid before running.
    int64_t progress_ticks = 0;
    int64_t queue_wait_us = 0;
  };
  std::vector<QueryInfo> Snapshot() const;

  int64_t running() const;
  int64_t queued() const;

 private:
  struct Entry {
    std::string text;
    std::shared_ptr<QueryContext> ctx;
    bool running = false;
  };

  // Renders entries_ as crash-report lines; requires mu_ to be held (the
  // admission/release paths refresh the crash context while already inside
  // the lock — calling Snapshot() there would self-deadlock).
  std::string FormatLiveLocked() const;
  // Refreshes the crash handler's active-queries context from inside mu_.
  void RefreshCrashContextLocked() const;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  GovernorOptions options_;
  int64_t next_id_ = 1;
  int64_t running_ = 0;
  int64_t queued_ = 0;
  std::map<int64_t, Entry> entries_;

  obs::Counter* admitted_;
  obs::Counter* queued_total_;
  obs::Counter* rejected_;
  obs::Counter* completed_;
  obs::Counter* cancelled_;
  obs::Counter* timed_out_;
  obs::Counter* budget_exceeded_;
  obs::Counter* failed_;
  obs::Gauge* running_gauge_;
  obs::Gauge* queue_depth_gauge_;
  obs::Histogram* queue_wait_us_;
};

// SYS$QUERIES(ID, STATE, TEXT, ELAPSED_US, ROWS_OUT, BYTES_RESERVED,
// PROGRESS_TICKS, QUEUE_WAIT_US): one row per live query. A query scanning
// SYS$QUERIES sees itself as 'running'. `governor` must outlive the catalog
// the provider is registered with.
std::unique_ptr<VirtualTableProvider> MakeQueriesProvider(
    const Governor* governor);

}  // namespace xnfdb

#endif  // XNFDB_API_GOVERNOR_H_
