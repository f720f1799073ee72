// Plan optimization and refinement (paper Sect. 3.1, 4.3): compiles QGM
// boxes into physical operator trees.
//
// The planner performs the classic relational choices the paper leans on:
//  * access-path selection — hash-index lookups for `col = literal`
//    predicates on base tables, scans otherwise;
//  * join-method selection — hash join for equi-predicates, nested loops
//    otherwise;
//  * join ordering — greedy smallest-cardinality-first with connectivity
//    preference, driven by table statistics;
//  * common-subexpression sharing — boxes with more than one consumer are
//    spooled (materialized once, read many times), which realizes the
//    multi-query optimization the XNF rewrite sets up (Sect. 4.2, 5.1).
//
// The planner only plans: it compiles operator trees and runs none of
// them. A spool is filled by its first reader and an existential group by
// its first probe, both under the executor, so their work is billed to
// execution and governed by the context the executor attaches.

#ifndef XNFDB_OPTIMIZER_PLANNER_H_
#define XNFDB_OPTIMIZER_PLANNER_H_

#include <map>
#include <memory>
#include <vector>

#include "common/status.h"
#include "exec/operators.h"
#include "qgm/qgm.h"
#include "storage/catalog.h"

namespace xnfdb {

struct PlanOptions {
  bool use_indexes = true;
  bool use_hash_join = true;  // false => nested-loop joins only
  bool naive_exists = false;  // per-outer-row subquery scans (Sect. 3.2 naive)
  bool spool_shared = true;   // false => recompute shared boxes per consumer
  // Not read by the planner: spools and existential groups fill at the
  // default batch size, and callers pull the returned trees at their own.
  // Kept for callers outside src/ that size their pull batch from it.
  int batch_size = 1;
  // Morsel workers (0 = the Database's Config, XNFDB_MORSEL_WORKERS, or
  // Config::Process() for a direct caller; default 1). Above 1, a shared box
  // whose producer is morsel-drivable is compiled once per worker and its
  // spool builds on morsels.
  int morsel_workers = 0;
  // Base-table substitution (matview delta propagation): a box referencing
  // table `name` scans the mapped transient table instead of the catalog
  // one. Overridden tables never take index access paths — delta tables
  // carry no indexes. Not owned; must outlive the planner.
  const std::map<std::string, Table*>* table_overrides = nullptr;
};

// Compiles boxes of one QueryGraph into operators. The graph and catalog
// must outlive the planner and the operators it creates; the operators
// share ownership of spool state, so they may outlive the planner.
//
// Thread safety: a planner is used by one thread, which compiles every
// tree of the query, morsel clones included. The trees may then run on
// several morsel workers. Readers of one spool share its state: the first
// to open it fills it under the spool's latch, the others wait and then
// read the finished rows (base tables are read-only during query
// execution).
class Planner {
 public:
  Planner(const Catalog* catalog, const qgm::QueryGraph* graph,
          PlanOptions options, ExecStats* stats);

  // An iterator producing the head rows of `box_id`. A shared box is
  // compiled once; each call returns a new reader of its spool.
  Result<OperatorPtr> BoxIterator(int box_id);

  // Estimated output cardinality of `box_id`.
  double EstimateCard(int box_id);

 private:
  Result<OperatorPtr> CompileBox(int box_id);
  Result<OperatorPtr> CompileSelect(const qgm::Box& box);
  Result<OperatorPtr> CompileUnion(const qgm::Box& box);

  // Builds the join tree over `quants` applying `preds` as early as
  // possible. Returns the root operator and fills `layout`.
  Result<OperatorPtr> BuildJoinTree(
      const std::vector<const qgm::Quantifier*>& quants,
      const std::vector<const qgm::Expr*>& preds, Layout* layout);

  // Source for one quantifier with its single-quantifier predicates pushed
  // down (index lookup when possible).
  Result<OperatorPtr> QuantSource(const qgm::Quantifier& q,
                                  std::vector<const qgm::Expr*> pushed);

  double QuantCard(const qgm::Quantifier& q,
                   const std::vector<const qgm::Expr*>& pushed);
  double PredSelectivity(const qgm::Expr& pred);

  // The override table for `name`, or nullptr (options_.table_overrides).
  Table* OverrideFor(const std::string& name) const;
  // The table whose statistics cost the stream `quant_id` ranges over: the
  // delta override when one is installed, else the catalog base table;
  // nullptr when the quantifier does not range over a base table.
  const Table* StatsTableFor(int quant_id) const;

  const Catalog* catalog_;
  const qgm::QueryGraph* graph_;
  PlanOptions options_;
  ExecStats* stats_;

  std::map<int, std::shared_ptr<SpoolState>> spools_;  // by shared box id
  std::map<int, double> card_cache_;
};

}  // namespace xnfdb

#endif  // XNFDB_OPTIMIZER_PLANNER_H_
