// Layer probes for the traced run, and the client-side CO operations the
// workloads share.
//
// A probe replays one statement through the public entry point of each
// xnfdb layer, one span per call, so that each layer's time is measured
// where it is spent without touching the engine. The spans, nested under
// one "probe.statement" span:
//
//   api.query        Database::Query            (the whole server call)
//   xnf.compile      CompileQueryString         (parse .. NF rewrite)
//   parser.parse     ParseStatement / ParseXnfQuery
//   semantics.build  BuildSelect / BuildXnf
//   rewrite.xnf      XnfSemanticRewrite
//   rewrite.nf       RuleEngine(MakeNfRules).Run
//   optimizer.plan   Planner::BoxIterator, once per output stream
//   exec.drain       Open / NextBatch / Close of that operator tree
//   exec.graph       ExecuteGraph
//
// "probe.cache" spans time the CO cache over a delivered answer stream:
// cache.build (Workspace::Build), cache.traverse (cursor traversal; its
// count is the rows visited), cache.writeback_plan (WriteBackPlanner::Plan)
// and cache.writeback_apply (WriteBackPlanner::Apply).

#ifndef XNFBENCH_PROBE_H_
#define XNFBENCH_PROBE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "cache/workspace.h"
#include "dataset.h"
#include "spans.h"

namespace xnfbench {

// Work counts a statement probe reads off the engine.
struct StatementCounts {
  int64_t rules_fired = 0;      // NF rewrite rule applications
  int64_t spool_builds = 0;     // shared boxes materialized by the planner
  int64_t rows_scanned = 0;     // ExecuteGraph's QueryResult::stats
  int64_t join_probes = 0;
  int64_t index_lookups = 0;
  int64_t spool_read_rows = 0;
  int64_t rows_output = 0;
};

// Replays `text` (a SELECT, an OUT OF query or a stored view's name)
// through every layer. `text` must compile and run.
xnfdb::Status ProbeStatement(xnfdb::Database* db, const std::string& text,
                             SpanRecorder* rec, int op,
                             StatementCounts* counts,
                             xnfdb::QueryResult* result = nullptr);

// Only the planner part of ProbeStatement: compiles `text` unrecorded, then
// records one optimizer.plan span per output stream. Used for the first
// plan after a write.
xnfdb::Status ProbePlan(xnfdb::Database* db, const std::string& text,
                        SpanRecorder* rec, int op);

// One full cursor traversal of a deps_ARC workspace:
// XDEPT -> EMPLOYMENT -> XEMP -> EMPPROPERTY -> XSKILLS and
// XPROJ -> PROJPROPERTY -> XSKILLS. Counts every row visit and sums SAL
// over the visited employees.
struct Traversal {
  int64_t visits = 0;
  double sal_sum = 0;
};
xnfdb::Result<Traversal> Traverse(xnfdb::Workspace* ws);

// The visits Traverse must make over a CO of this shape.
int64_t ExpectedVisits(const CoShape& shape);

// Live rows and connections of a workspace, with the salary total.
CoShape ShapeOf(xnfdb::Workspace* ws);

// Workspace::Build over a delivered answer stream, in a cache.build span;
// sets the number of pointers it installed.
xnfdb::Result<std::unique_ptr<xnfdb::Workspace>> ProbeBuild(
    const xnfdb::QueryResult& result, SpanRecorder* rec, int op,
    int64_t* installs);

// Caches a delivered deps_ARC answer stream and times the cache layer over
// it: build, traversal, and write-back planning and applying of the
// workspace's pending changes (none, for a freshly built workspace).
// Fills the traversal for the caller's answer check and the number of
// pointers installed.
xnfdb::Status ProbeCache(xnfdb::Database* db,
                         const xnfdb::QueryResult& result, SpanRecorder* rec,
                         int op, Traversal* traversal, int64_t* installs);

}  // namespace xnfbench

#endif  // XNFBENCH_PROBE_H_
