#include "dataset.h"

#include <algorithm>
#include <iomanip>
#include <random>
#include <set>
#include <sstream>

namespace xnfbench {

using xnfdb::Database;
using xnfdb::QueryResult;
using xnfdb::Result;
using xnfdb::Status;
using xnfdb::StreamItem;
using xnfdb::TupleToString;

const char* const kDepsArcView = "DEPS_ARC";

const char* const kDepsArcQuery = R"sql(
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

namespace {

// `n` distinct skill numbers in [1, skills], in draw order.
std::vector<int64_t> DrawSkills(std::mt19937_64& rng, int n, int skills) {
  std::vector<int64_t> out;
  while (static_cast<int>(out.size()) < std::min(n, skills)) {
    int64_t s = 1 + static_cast<int64_t>(rng() % skills);
    if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
  }
  return out;
}

// Inserts rows in multi-row INSERT statements of up to 512 rows.
class BulkInserter {
 public:
  BulkInserter(Database* db, std::string table)
      : db_(db), table_(std::move(table)) {}

  Status Add(const std::string& row) {
    if (pending_ > 0) rows_ << ", ";
    rows_ << row;
    if (++pending_ == 512) return Flush();
    return Status::Ok();
  }

  Status Flush() {
    if (pending_ == 0) return Status::Ok();
    Result<Database::Outcome> r =
        db_->Execute("INSERT INTO " + table_ + " VALUES " + rows_.str());
    rows_.str("");
    pending_ = 0;
    return r.ok() ? Status::Ok() : r.status();
  }

 private:
  Database* db_;
  std::string table_;
  std::ostringstream rows_;
  int pending_ = 0;
};

}  // namespace

Dataset GenerateDataset(const DatasetParams& p) {
  Dataset data;
  data.params = p;
  std::mt19937_64 rng(p.seed);

  // A seeded choice of which departments sit at ARC.
  std::vector<int64_t> dnos;
  for (int d = 1; d <= p.departments; ++d) dnos.push_back(d);
  std::shuffle(dnos.begin(), dnos.end(), rng);
  data.dept_is_arc.assign(p.departments + 1, false);
  const int arc = static_cast<int>(p.departments * p.arc_fraction);
  for (int i = 0; i < arc; ++i) data.dept_is_arc[dnos[i]] = true;

  const int nemp = p.departments * p.emps_per_dept;
  for (int i = 0; i < nemp; ++i) {
    EmpRow e;
    e.eno = i + 1;
    e.edno = i % p.departments + 1;
    e.sal = 30000 + static_cast<int64_t>(rng() % 70000);
    e.skills = DrawSkills(rng, p.skills_per_emp, p.skills);
    data.emps.emplace(e.eno, std::move(e));
  }
  data.next_eno = nemp + 1;

  const int nproj = p.departments * p.projs_per_dept;
  for (int i = 0; i < nproj; ++i) {
    ProjRow pr;
    pr.pno = i + 1;
    pr.pdno = i % p.departments + 1;
    pr.skills = DrawSkills(rng, p.skills_per_proj, p.skills);
    data.projs.push_back(std::move(pr));
  }
  return data;
}

Status PopulateDatabase(Database* db, const Dataset& data) {
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

  const DatasetParams& p = data.params;
  BulkInserter dept(db, "DEPT");
  for (int d = 1; d <= p.departments; ++d) {
    XNFDB_RETURN_IF_ERROR(dept.Add(
        "(" + std::to_string(d) + ", 'dept" + std::to_string(d) + "', '" +
        (data.dept_is_arc[d] ? "ARC" : "YKT") + "')"));
  }
  XNFDB_RETURN_IF_ERROR(dept.Flush());

  BulkInserter emp(db, "EMP");
  for (const auto& [eno, e] : data.emps) {
    XNFDB_RETURN_IF_ERROR(emp.Add(
        "(" + std::to_string(eno) + ", 'emp" + std::to_string(eno) + "', " +
        std::to_string(e.edno) + ", " + std::to_string(e.sal) + ".0)"));
  }
  XNFDB_RETURN_IF_ERROR(emp.Flush());

  BulkInserter proj(db, "PROJ");
  for (const ProjRow& pr : data.projs) {
    XNFDB_RETURN_IF_ERROR(proj.Add("(" + std::to_string(pr.pno) + ", 'proj" +
                                   std::to_string(pr.pno) + "', " +
                                   std::to_string(pr.pdno) + ")"));
  }
  XNFDB_RETURN_IF_ERROR(proj.Flush());

  BulkInserter skills(db, "SKILLS");
  for (int s = 1; s <= p.skills; ++s) {
    XNFDB_RETURN_IF_ERROR(skills.Add("(" + std::to_string(s) + ", 'skill" +
                                     std::to_string(s) + "')"));
  }
  XNFDB_RETURN_IF_ERROR(skills.Flush());

  BulkInserter es(db, "EMPSKILLS");
  for (const auto& [eno, e] : data.emps) {
    for (int64_t s : e.skills) {
      XNFDB_RETURN_IF_ERROR(
          es.Add("(" + std::to_string(eno) + ", " + std::to_string(s) + ")"));
    }
  }
  XNFDB_RETURN_IF_ERROR(es.Flush());

  BulkInserter ps(db, "PROJSKILLS");
  for (const ProjRow& pr : data.projs) {
    for (int64_t s : pr.skills) {
      XNFDB_RETURN_IF_ERROR(ps.Add("(" + std::to_string(pr.pno) + ", " +
                                   std::to_string(s) + ")"));
    }
  }
  XNFDB_RETURN_IF_ERROR(ps.Flush());

  Result<Database::Outcome> view = db->Execute(
      std::string("CREATE VIEW ") + kDepsArcView + " AS " + kDepsArcQuery);
  return view.ok() ? Status::Ok() : view.status();
}

bool CoShape::operator==(const CoShape& o) const {
  return xdept == o.xdept && xemp == o.xemp && xproj == o.xproj &&
         xskills == o.xskills && employment == o.employment &&
         ownership == o.ownership && empproperty == o.empproperty &&
         projproperty == o.projproperty && sal_sum == o.sal_sum;
}

std::string CoShape::ToString() const {
  std::ostringstream os;
  os << "XDEPT=" << xdept << " XEMP=" << xemp << " XPROJ=" << xproj
     << " XSKILLS=" << xskills << " EMPLOYMENT=" << employment
     << " OWNERSHIP=" << ownership << " EMPPROPERTY=" << empproperty
     << " PROJPROPERTY=" << projproperty << " SAL_SUM=" << std::fixed
     << std::setprecision(0) << sal_sum;
  return os.str();
}

CoShape ExpectedShape(const Dataset& data) {
  CoShape s;
  std::set<int64_t> skills;
  for (size_t d = 1; d < data.dept_is_arc.size(); ++d) {
    if (data.dept_is_arc[d]) ++s.xdept;
  }
  for (const auto& [eno, e] : data.emps) {
    if (!data.dept_is_arc[e.edno]) continue;
    ++s.xemp;
    s.sal_sum += static_cast<double>(e.sal);
    s.empproperty += static_cast<int64_t>(e.skills.size());
    skills.insert(e.skills.begin(), e.skills.end());
  }
  for (const ProjRow& pr : data.projs) {
    if (!data.dept_is_arc[pr.pdno]) continue;
    ++s.xproj;
    s.projproperty += static_cast<int64_t>(pr.skills.size());
    skills.insert(pr.skills.begin(), pr.skills.end());
  }
  s.xskills = static_cast<int64_t>(skills.size());
  s.employment = s.xemp;
  s.ownership = s.xproj;
  return s;
}

CoShape ShapeOf(const QueryResult& result) {
  CoShape s;
  std::vector<int64_t*> slot(result.outputs.size(), nullptr);
  std::map<std::string, int64_t*> by_name = {
      {"XDEPT", &s.xdept},           {"XEMP", &s.xemp},
      {"XPROJ", &s.xproj},           {"XSKILLS", &s.xskills},
      {"EMPLOYMENT", &s.employment}, {"OWNERSHIP", &s.ownership},
      {"EMPPROPERTY", &s.empproperty}, {"PROJPROPERTY", &s.projproperty}};
  for (size_t i = 0; i < result.outputs.size(); ++i) {
    auto it = by_name.find(result.outputs[i].name);
    if (it != by_name.end()) slot[i] = it->second;
  }
  const int xemp = result.FindOutput("XEMP");
  const int sal_col =
      xemp < 0 ? -1 : result.outputs[xemp].schema.FindColumn("SAL");
  for (const StreamItem& item : result.stream) {
    if (item.output < 0 ||
        item.output >= static_cast<int>(result.outputs.size())) {
      continue;
    }
    if (slot[item.output] != nullptr) ++*slot[item.output];
    if (item.kind == StreamItem::Kind::kRow && item.output == xemp &&
        sal_col >= 0) {
      s.sal_sum += item.values[sal_col].AsDouble();
    }
  }
  return s;
}

std::map<std::string, std::vector<std::string>> CanonicalCo(
    const QueryResult& result) {
  // Rows by (output, tid), so connections can be written as partner rows.
  std::map<std::pair<int, xnfdb::TupleId>, std::string> rows;
  for (const StreamItem& item : result.stream) {
    if (item.kind == StreamItem::Kind::kRow) {
      rows[{item.output, item.tid}] = TupleToString(item.values);
    }
  }
  std::map<std::string, int> component_index;
  for (size_t i = 0; i < result.outputs.size(); ++i) {
    if (!result.outputs[i].is_connection) {
      component_index[result.outputs[i].name] = static_cast<int>(i);
    }
  }
  std::map<std::string, std::vector<std::string>> out;
  for (const StreamItem& item : result.stream) {
    const xnfdb::OutputDesc& desc = result.outputs[item.output];
    if (item.kind == StreamItem::Kind::kRow) {
      out[desc.name].push_back(rows[{item.output, item.tid}]);
      continue;
    }
    std::string conn;
    for (size_t i = 0; i < item.tids.size(); ++i) {
      int comp = i < desc.partner_names.size()
                     ? component_index[desc.partner_names[i]]
                     : -1;
      conn += (i == 0 ? "" : " -> ") + rows[{comp, item.tids[i]}];
    }
    out[desc.name].push_back(std::move(conn));
  }
  for (auto& [name, items] : out) std::sort(items.begin(), items.end());
  return out;
}

}  // namespace xnfbench
