// Workload generators shared by the benchmark binaries:
//  * the scaled dept/emp/proj/skills database of the paper's Fig. 1, and
//  * the Cattell OO1 ("Sun benchmark") part/connection database used for
//    the cache-traversal measurement of Sect. 5.2 ([13] in the paper).

#ifndef XNFDB_BENCH_WORKLOADS_H_
#define XNFDB_BENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "api/database.h"

namespace xnfdb {
namespace bench {

struct DeptDbParams {
  int departments = 20;
  double arc_fraction = 0.25;   // departments located at 'ARC'
  int emps_per_dept = 20;
  int projs_per_dept = 4;
  int skills = 50;
  int skills_per_emp = 2;
  int skills_per_proj = 2;
  uint32_t seed = 42;
};

// Creates and populates the paper-schema database (DEPT/EMP/PROJ/SKILLS +
// connect tables) at the given scale.
Status PopulateDeptDb(Database* db, const DeptDbParams& params);

// The Fig. 1 deps_ARC query over that database.
extern const char* kDepsArcQuery;

struct Oo1Params {
  int parts = 20000;            // OO1 "small" database size
  int connections_per_part = 3;
  double locality = 0.9;        // connections to the nearest 1% of parts
  uint32_t seed = 7;
};

// Creates and populates the OO1 database: PART(PNO, PTYPE, X, Y) and
// CONNECTION(CFROM, CTO, CTYPE, LEN).
Status PopulateOo1(Database* db, const Oo1Params& params);

// The XNF view loading all parts and their connection relationship.
extern const char* kOo1Query;

// Wall-clock seconds of `fn()`.
template <typename Fn>
double TimeSecs(Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

// Fails fast on unexpected errors in bench setup code.
void CheckOk(const Status& status, const std::string& what);

// When XNFDB_BENCH_JSON_DIR is set, writes <dir>/BENCH_<name>.json holding
// the bench's own numbers (`results_json`, a JSON object literal) plus the
// process-wide metrics snapshot, so perf runs land as machine-readable
// artifacts. Every snapshot carries "schema_version" (bump on layout
// changes) and "elapsed_us", the bench binary's wall-clock time from load
// to snapshot. No-op when the variable is unset.
void WriteBenchJson(const std::string& name,
                    const std::string& results_json = "{}");

// True when XNFDB_BENCH_SMOKE is set truthy (1/true/yes/on): benches should
// shrink their workloads to a seconds-scale sanity pass for CI.
bool SmokeMode();

// The scale points a bench should sweep: all of `full` normally, only the
// first in smoke mode.
std::vector<int> Scales(std::vector<int> full);

}  // namespace bench
}  // namespace xnfdb

#endif  // XNFDB_BENCH_WORKLOADS_H_
