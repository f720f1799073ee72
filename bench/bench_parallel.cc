// Sect. 5.1 / 6 outlook: "Another decisive technology to reduce query
// execution by orders of magnitude is to apply parallelism. Set-oriented
// specification of COs as done in XNF particularly lends itself to
// exploitation of parallelism technology" — and "further extensions (e.g.
// parallelism ...) introduced to the relational part of the system become
// automatically available to XNF."
//
// Morsel-driven parallelism (PlanOptions::morsel_workers) splits the scan
// pipelines that build the CO's shared spools across workers. Measured:
// warm deps_ARC statement time by worker count, matviews off so every run
// executes. Per scale, one cold run per worker count is discarded, then
// the worker counts alternate for kReps warm rounds; the table reports the
// median and the interquartile range of each.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/workloads.h"

namespace xnfdb {
namespace bench {
namespace {

constexpr int kWorkers[] = {1, 2, 4};

double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return v[static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5)];
}

int Run() {
  const int reps = SmokeMode() ? 5 : 41;
  std::printf("Morsel-parallel CO extraction (deps_ARC, warm, matviews off)\n");
  std::printf("hardware threads available: %u%s\n\n",
              std::thread::hardware_concurrency(),
              std::thread::hardware_concurrency() <= 1
                  ? "  (single-core machine: expect no speedup, only the "
                    "correctness of concurrent evaluation)"
                  : "");
  std::printf("%-6s | %18s %18s %18s | %8s %8s\n", "depts",
              "1 wrk ms (IQR)", "2 wrk ms (IQR)", "4 wrk ms (IQR)",
              "spdup 2", "spdup 4");

  std::string results = "{";
  for (int departments : Scales({180, 640})) {
    Database db;
    db.matviews().set_enabled(false);
    DeptDbParams params;
    params.departments = departments;
    CheckOk(PopulateDeptDb(&db, params), "populate");

    std::vector<std::vector<double>> ms(std::size(kWorkers));
    size_t serial_items = 0;
    for (int rep = -1; rep < reps; ++rep) {
      for (size_t i = 0; i < std::size(kWorkers); ++i) {
        ExecOptions eopts;
        eopts.plan.morsel_workers = kWorkers[i];
        Result<QueryResult> r = Status::Ok();
        const double secs =
            TimeSecs([&] { r = db.Query(kDepsArcQuery, {}, eopts); });
        CheckOk(r.status(), "query");
        const size_t items = r.value().stream.size();
        if (i == 0) serial_items = items;
        if (items != serial_items) {
          std::fprintf(stderr, "%d workers changed the result size!\n",
                       kWorkers[i]);
          return 1;
        }
        if (kWorkers[i] > 1 && r.value().stats.morsels_claimed.load() == 0) {
          std::fprintf(stderr, "%d workers claimed no morsels\n", kWorkers[i]);
          return 1;
        }
        if (rep >= 0) ms[i].push_back(secs * 1000.0);  // rep -1 is cold
      }
    }
    double med[std::size(kWorkers)];
    char cells[std::size(kWorkers)][32];
    std::string row;
    for (size_t i = 0; i < std::size(kWorkers); ++i) {
      med[i] = Quantile(ms[i], 0.5);
      const double q1 = Quantile(ms[i], 0.25);
      const double q3 = Quantile(ms[i], 0.75);
      std::snprintf(cells[i], sizeof(cells[i]), "%.2f (%.2f-%.2f)", med[i],
                    q1, q3);
      char json[160];
      std::snprintf(json, sizeof(json),
                    "%s\"w%d_ms\": %.3f, \"w%d_q1_ms\": %.3f, "
                    "\"w%d_q3_ms\": %.3f",
                    i == 0 ? "" : ", ", kWorkers[i], med[i], kWorkers[i], q1,
                    kWorkers[i], q3);
      row += json;
    }
    std::printf("%-6d | %18s %18s %18s | %7.2fx %7.2fx\n", departments,
                cells[0], cells[1], cells[2], med[0] / med[1],
                med[0] / med[2]);
    char speedups[96];
    std::snprintf(speedups, sizeof(speedups),
                  ", \"speedup_w2\": %.3f, \"speedup_w4\": %.3f", med[0] / med[1],
                  med[0] / med[2]);
    if (results.size() > 1) results += ", ";
    results += "\"depts_" + std::to_string(departments) + "\": {" + row +
               speedups + ", \"warm_reps\": " + std::to_string(reps) + "}";
  }
  results += "}";
  std::printf(
      "\nExpected shape: only the spools whose producer streams over a scan "
      "(DEPT, SKILLS) split into morsels; the large joins build their hash "
      "tables on base-table scans serially, so times stay near the serial "
      "ones until hash-join builds split too.\n");
  WriteBenchJson("parallel", results);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace xnfdb

int main() { return xnfdb::bench::Run(); }
