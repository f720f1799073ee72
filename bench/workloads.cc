#include "bench/workloads.h"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>

#include "common/str_util.h"
#include "obs/metrics.h"

namespace xnfdb {
namespace bench {

namespace {
// Captured at binary load so BENCH_*.json's elapsed_us covers the whole
// bench run (setup + sweep), not just the final snapshot write.
const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();
}  // namespace

void CheckOk(const Status& status, const std::string& what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what.c_str(),
                 status.ToString().c_str());
    std::exit(1);
  }
}

void WriteBenchJson(const std::string& name,
                    const std::string& results_json) {
  const char* dir = std::getenv("XNFDB_BENCH_JSON_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  const std::string path =
      std::string(dir) + "/BENCH_" + name + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "WARNING: cannot write %s\n", path.c_str());
    return;
  }
  int64_t elapsed_us = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - kProcessStart)
                           .count();
  out << "{\"schema_version\":2,\"bench\":\"" << name << "\",\"smoke\":"
      << (SmokeMode() ? "true" : "false") << ",\"elapsed_us\":" << elapsed_us
      << ",\"results\":" << results_json
      << ",\"metrics\":" << obs::MetricsRegistry::Default().ToJson() << "}\n";
}

bool SmokeMode() {
  const char* raw = std::getenv("XNFDB_BENCH_SMOKE");
  if (raw == nullptr) return false;
  std::string word = Trim(raw);
  for (char& c : word) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return word == "1" || word == "true" || word == "yes" || word == "on";
}

std::vector<int> Scales(std::vector<int> full) {
  if (SmokeMode() && full.size() > 1) full.resize(1);
  return full;
}

const char* kDepsArcQuery = R"sql(
  OUT OF xdept AS (SELECT * FROM DEPT WHERE LOC = 'ARC'),
         xemp AS EMP,
         xproj AS PROJ,
         xskills AS SKILLS,
         employment AS (RELATE xdept VIA EMPLOYS, xemp
                        WHERE xdept.dno = xemp.edno),
         ownership AS (RELATE xdept VIA HAS, xproj
                       WHERE xdept.dno = xproj.pdno),
         empproperty AS (RELATE xemp VIA POSSESSES, xskills
                         USING EMPSKILLS es
                         WHERE xemp.eno = es.eseno AND
                               es.essno = xskills.sno),
         projproperty AS (RELATE xproj VIA NEEDS, xskills
                          USING PROJSKILLS ps
                          WHERE xproj.pno = ps.pspno AND
                                ps.pssno = xskills.sno)
  TAKE *
)sql";

Status PopulateDeptDb(Database* db, const DeptDbParams& p) {
  Result<size_t> schema = db->ExecuteScript(R"sql(
    CREATE TABLE DEPT (DNO INTEGER, DNAME VARCHAR, LOC VARCHAR,
                       PRIMARY KEY (DNO));
    CREATE TABLE EMP (ENO INTEGER, ENAME VARCHAR, EDNO INTEGER, SAL DOUBLE,
                      PRIMARY KEY (ENO),
                      FOREIGN KEY (EDNO) REFERENCES DEPT (DNO));
    CREATE TABLE PROJ (PNO INTEGER, PNAME VARCHAR, PDNO INTEGER,
                       PRIMARY KEY (PNO),
                       FOREIGN KEY (PDNO) REFERENCES DEPT (DNO));
    CREATE TABLE SKILLS (SNO INTEGER, SNAME VARCHAR, PRIMARY KEY (SNO));
    CREATE TABLE EMPSKILLS (ESENO INTEGER, ESSNO INTEGER,
                            FOREIGN KEY (ESENO) REFERENCES EMP (ENO),
                            FOREIGN KEY (ESSNO) REFERENCES SKILLS (SNO));
    CREATE TABLE PROJSKILLS (PSPNO INTEGER, PSSNO INTEGER,
                             FOREIGN KEY (PSPNO) REFERENCES PROJ (PNO),
                             FOREIGN KEY (PSSNO) REFERENCES SKILLS (SNO));
    CREATE INDEX ON EMP (EDNO);
    CREATE INDEX ON PROJ (PDNO);
    CREATE INDEX ON EMPSKILLS (ESENO);
    CREATE INDEX ON PROJSKILLS (PSPNO);
  )sql");
  if (!schema.ok()) return schema.status();

  std::mt19937 rng(p.seed);
  auto insert_rows = [&](const std::string& table, std::ostringstream& rows,
                         int* pending) -> Status {
    if (*pending == 0) return Status::Ok();
    Result<Database::Outcome> r =
        db->Execute("INSERT INTO " + table + " VALUES " + rows.str());
    rows.str("");
    *pending = 0;
    return r.ok() ? Status::Ok() : r.status();
  };
  auto bulk = [&](const std::string& table, auto row_fn, int n) -> Status {
    std::ostringstream rows;
    int pending = 0;
    for (int i = 0; i < n; ++i) {
      if (pending > 0) rows << ", ";
      rows << row_fn(i);
      if (++pending == 512) {
        XNFDB_RETURN_IF_ERROR(insert_rows(table, rows, &pending));
      }
    }
    return insert_rows(table, rows, &pending);
  };

  XNFDB_RETURN_IF_ERROR(bulk(
      "DEPT",
      [&](int i) {
        bool arc = i < static_cast<int>(p.departments * p.arc_fraction);
        std::ostringstream row;
        row << "(" << (i + 1) << ", 'dept" << (i + 1) << "', '"
            << (arc ? "ARC" : "YKT") << "')";
        return row.str();
      },
      p.departments));

  int nemp = p.departments * p.emps_per_dept;
  XNFDB_RETURN_IF_ERROR(bulk(
      "EMP",
      [&](int i) {
        std::ostringstream row;
        row << "(" << (i + 1) << ", 'emp" << (i + 1) << "', "
            << (i % p.departments + 1) << ", "
            << (30000 + static_cast<int>(rng() % 70000)) << ".0)";
        return row.str();
      },
      nemp));

  int nproj = p.departments * p.projs_per_dept;
  XNFDB_RETURN_IF_ERROR(bulk(
      "PROJ",
      [&](int i) {
        std::ostringstream row;
        row << "(" << (i + 1) << ", 'proj" << (i + 1) << "', "
            << (i % p.departments + 1) << ")";
        return row.str();
      },
      nproj));

  XNFDB_RETURN_IF_ERROR(bulk(
      "SKILLS",
      [&](int i) {
        std::ostringstream row;
        row << "(" << (i + 1) << ", 'skill" << (i + 1) << "')";
        return row.str();
      },
      p.skills));

  XNFDB_RETURN_IF_ERROR(bulk(
      "EMPSKILLS",
      [&](int i) {
        std::ostringstream row;
        row << "(" << (i / p.skills_per_emp + 1) << ", "
            << (1 + rng() % p.skills) << ")";
        return row.str();
      },
      nemp * p.skills_per_emp));

  return bulk(
      "PROJSKILLS",
      [&](int i) {
        std::ostringstream row;
        row << "(" << (i / p.skills_per_proj + 1) << ", "
            << (1 + rng() % p.skills) << ")";
        return row.str();
      },
      nproj * p.skills_per_proj);
}

const char* kOo1Query = R"sql(
  OUT OF root AS (SELECT * FROM PART WHERE PNO = 1),
         xpart AS PART,
         anchor AS (RELATE root VIA SEEDS, xpart USING CONNECTION c
                    WHERE root.pno = c.cfrom AND c.cto = xpart.pno),
         conn AS (RELATE xpart VIA LINKS, xpart USING CONNECTION c
                  WHERE links.pno = c.cfrom AND c.cto = xpart.pno)
  TAKE *
)sql";

Status PopulateOo1(Database* db, const Oo1Params& p) {
  Result<size_t> schema = db->ExecuteScript(R"sql(
    CREATE TABLE PART (PNO INTEGER, PTYPE VARCHAR, X INTEGER, Y INTEGER,
                       PRIMARY KEY (PNO));
    CREATE TABLE CONNECTION (CFROM INTEGER, CTO INTEGER, CTYPE VARCHAR,
                             LEN INTEGER,
                             FOREIGN KEY (CFROM) REFERENCES PART (PNO),
                             FOREIGN KEY (CTO) REFERENCES PART (PNO));
    CREATE INDEX ON CONNECTION (CFROM);
  )sql");
  if (!schema.ok()) return schema.status();

  std::mt19937 rng(p.seed);
  std::ostringstream rows;
  int pending = 0;
  auto flush = [&](const std::string& table) -> Status {
    if (pending == 0) return Status::Ok();
    Result<Database::Outcome> r =
        db->Execute("INSERT INTO " + table + " VALUES " + rows.str());
    rows.str("");
    pending = 0;
    return r.ok() ? Status::Ok() : r.status();
  };
  for (int i = 1; i <= p.parts; ++i) {
    if (pending > 0) rows << ", ";
    rows << "(" << i << ", 'part" << (i % 10) << "', "
         << static_cast<int>(rng() % 100000) << ", "
         << static_cast<int>(rng() % 100000) << ")";
    if (++pending == 512) XNFDB_RETURN_IF_ERROR(flush("PART"));
  }
  XNFDB_RETURN_IF_ERROR(flush("PART"));

  // OO1 connection rule: 90% of connections go to one of the "closest" 1%
  // of parts (by part number), 10% anywhere.
  int window = std::max(1, p.parts / 100);
  for (int i = 1; i <= p.parts; ++i) {
    for (int k = 0; k < p.connections_per_part; ++k) {
      int to;
      if ((rng() % 100) < static_cast<uint32_t>(p.locality * 100)) {
        int offset = 1 + static_cast<int>(rng() % window);
        to = (i + offset - 1) % p.parts + 1;
      } else {
        to = 1 + static_cast<int>(rng() % p.parts);
      }
      if (pending > 0) rows << ", ";
      rows << "(" << i << ", " << to << ", 'link', "
           << static_cast<int>(rng() % 1000) << ")";
      if (++pending == 512) XNFDB_RETURN_IF_ERROR(flush("CONNECTION"));
    }
  }
  return flush("CONNECTION");
}

}  // namespace bench
}  // namespace xnfdb
