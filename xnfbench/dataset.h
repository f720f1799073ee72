// The Fig. 1 DEPT/EMP/PROJ/SKILLS database the benchmark runs on, generated
// from a seed, plus the answer oracle for the deps_ARC composite object.
//
// The generator keeps a model of every row it inserts. The benchmark applies
// its own writes (cad_checkout) to the model too, so the expected shape of
// deps_ARC — row and connection counts per component and the salary total —
// is always known without asking the engine.

#ifndef XNFBENCH_DATASET_H_
#define XNFBENCH_DATASET_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/database.h"

namespace xnfbench {

struct DatasetParams {
  int departments = 180;
  double arc_fraction = 0.25;  // share of departments located at 'ARC'
  int emps_per_dept = 20;
  int projs_per_dept = 4;
  int skills = 50;
  int skills_per_emp = 2;   // distinct skills per employee
  int skills_per_proj = 2;  // distinct skills per project
  uint64_t seed = 1;
};

struct EmpRow {
  int64_t eno = 0;
  int64_t edno = 0;
  int64_t sal = 0;  // whole dollars; stored as DOUBLE
  std::vector<int64_t> skills;
};

struct ProjRow {
  int64_t pno = 0;
  int64_t pdno = 0;
  std::vector<int64_t> skills;
};

// The generator's ground truth, kept in step with the benchmark's writes.
struct Dataset {
  DatasetParams params;
  std::vector<bool> dept_is_arc;      // by DNO; index 0 unused
  std::map<int64_t, EmpRow> emps;     // by ENO
  std::vector<ProjRow> projs;
  int64_t next_eno = 0;               // first ENO free for inserts
};

Dataset GenerateDataset(const DatasetParams& params);

// Creates the schema, inserts every row of `data` and defines the stored
// XNF view DEPS_ARC over kDepsArcQuery.
xnfdb::Status PopulateDatabase(xnfdb::Database* db, const Dataset& data);

// The Fig. 1 deps_ARC query (paper Sect. 2), and the stored view over it.
extern const char* const kDepsArcQuery;
extern const char* const kDepsArcView;

// The shape of one deps_ARC instance: rows per component, connections per
// relationship, and the salary total over XEMP (an exact integer sum).
struct CoShape {
  int64_t xdept = 0, xemp = 0, xproj = 0, xskills = 0;
  int64_t employment = 0, ownership = 0, empproperty = 0, projproperty = 0;
  double sal_sum = 0;

  // Component rows plus connection tuples.
  int64_t Tuples() const {
    return xdept + xemp + xproj + xskills + employment + ownership +
           empproperty + projproperty;
  }
  bool operator==(const CoShape& o) const;
  std::string ToString() const;
};

// What deps_ARC must contain for `data`.
CoShape ExpectedShape(const Dataset& data);

// The shape of a delivered answer stream (XNF query result, or the
// navigational derivation assembled into the same stream form).
CoShape ShapeOf(const xnfdb::QueryResult& result);

// A canonical rendering of a delivered CO: per output, the sorted component
// rows, or the sorted connections written as their partners' rows. Two
// streams carry the same CO iff their renderings are equal.
std::map<std::string, std::vector<std::string>> CanonicalCo(
    const xnfdb::QueryResult& result);

}  // namespace xnfbench

#endif  // XNFBENCH_DATASET_H_
