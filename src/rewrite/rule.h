// The rule-based rewrite engine (paper Sect. 3.2 / 4.4).
//
// Rewrite transformations are condition/action rules applied to the QGM
// graph until a fixed point (no rule fires) or the budget is exhausted —
// following the Starburst query-rewrite architecture of [17, 39]. Both the
// NF rewrite component and the XNF semantic rewrite component use this same
// representation and engine (Sect. 4.4: "both use the same rule
// representation mechanism as well as the same rule engine").

#ifndef XNFDB_REWRITE_RULE_H_
#define XNFDB_REWRITE_RULE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/statement_record.h"
#include "obs/trace.h"
#include "qgm/qgm.h"

namespace xnfdb {

// One rewrite rule. `Apply` scans the graph, performs at most a bounded
// amount of rewriting, and reports whether anything changed. Rules call
// CountRejected() for every candidate match they inspect and decline, so
// the engine's trace distinguishes "nothing to do" from "saw candidates
// but the conditions failed".
class RewriteRule {
 public:
  virtual ~RewriteRule() = default;
  virtual const char* name() const = 0;
  virtual Result<bool> Apply(qgm::QueryGraph* graph) = 0;

 protected:
  void CountRejected(int64_t n = 1) { rejected_ += n; }

 private:
  friend class RuleEngine;
  int64_t TakeRejected() {
    int64_t r = rejected_;
    rejected_ = 0;
    return r;
  }
  int64_t rejected_ = 0;
};

// Per-rule firing statistics of one engine run.
struct RuleFiring {
  std::string rule;
  int fired = 0;
  int64_t rejected = 0;
  int64_t wall_us = 0;
};

struct RewriteStats {
  std::vector<RuleFiring> firings;
  int passes = 0;
  int64_t total_us = 0;
  // The ordered per-application rule log (one event per Apply call),
  // bounded; feeds SYS$REWRITES and EXPLAIN REWRITE.
  obs::RewriteTrace trace;

  int TotalFirings() const;
  std::string ToString() const;
};

// The number of live (non-dead) boxes in `graph` — the before/after size
// metric rewrite events carry.
size_t LiveBoxCount(const qgm::QueryGraph& graph);

// Optional observability sinks for a rule-engine run: tracer spans per
// fired rule application and global rewrite.rule.* counters.
struct RuleEngineHooks {
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

// Runs `rules` over `graph` to a fixed point (bounded by `max_passes`).
// Rules are retried in order on every pass; a pass that fires no rule ends
// the run. Validates the graph after every firing in debug builds.
class RuleEngine {
 public:
  explicit RuleEngine(std::vector<std::unique_ptr<RewriteRule>> rules)
      : rules_(std::move(rules)) {}

  Result<RewriteStats> Run(qgm::QueryGraph* graph, int max_passes = 32,
                           const RuleEngineHooks& hooks = {});

 private:
  std::vector<std::unique_ptr<RewriteRule>> rules_;
};

}  // namespace xnfdb

#endif  // XNFDB_REWRITE_RULE_H_
