// xnfbench: the same Fig. 1 composite object, deps_ARC, obtained three ways.
//
//   co_extract    one set-oriented XNF query per CO (Database::Query)
//   nav_sql       one indexed point query per parent (Sect. 5.1's
//                 navigational extraction), assembled into the same stream
//   cad_checkout  XNFCache::Evaluate of the stored view DEPS_ARC, a full
//                 cursor traversal, and on every fifth cycle local edits
//                 written back with WriteBack()
//
// Usage:
//   xnfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--spans <file>]
//
// One process, one client thread, closed loop. Every op's answer is checked
// against the generator's model of the data. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"};
// with --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones, taken from spans around the calls into each layer (see
// probe.h). The line before it carries the run's details: knobs, build
// type, sample counts and the first/last window medians.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "api/database.h"
#include "cache/xnf_cache.h"
#include "common/crash.h"
#include "common/log.h"
#include "common/str_util.h"
#include "dataset.h"
#include "exec/batch.h"
#include "probe.h"
#include "spans.h"

namespace xnfbench {
namespace {

using xnfdb::Database;
using xnfdb::QueryResult;
using xnfdb::Result;
using xnfdb::Status;
using xnfdb::Tuple;
using xnfdb::Value;

constexpr int kSetups = 11;       // set-ups per run; setup_s is their median
constexpr int kWriteEvery = 5;    // cad_checkout writes on every 5th cycle
constexpr int kSalaryEdits = 4;   // salary updates per write
constexpr int kMinOps = 10;       // so a traced run sees every span kind
constexpr double kWindowShare = 0.1;  // first/last window: 10% of the ops

enum class Workload { kCoExtract, kNavSql, kCadCheckout };

struct Args {
  Workload workload = Workload::kCoExtract;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile; failed ops enter as +inf and so miss every
// latency limit.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

std::string Num(double v) {
  if (std::isnan(v)) v = 0;
  if (std::isinf(v)) v = v > 0 ? 1e300 : -1e300;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// The navigational statements, one per parent (paper Sect. 5.1).
const char* const kNavDeptQuery =
    "SELECT DNO, DNAME, LOC FROM DEPT WHERE LOC = 'ARC'";
std::string NavEmpQuery(int64_t dno) {
  return "SELECT ENO, ENAME, EDNO, SAL FROM EMP WHERE EDNO = " +
         std::to_string(dno);
}
std::string NavProjQuery(int64_t dno) {
  return "SELECT PNO, PNAME, PDNO FROM PROJ WHERE PDNO = " +
         std::to_string(dno);
}
std::string NavEmpSkillQuery(int64_t eno) {
  return "SELECT s.SNO, s.SNAME FROM EMPSKILLS es, SKILLS s WHERE "
         "es.ESENO = " + std::to_string(eno) + " AND es.ESSNO = s.SNO";
}
std::string NavProjSkillQuery(int64_t pno) {
  return "SELECT s.SNO, s.SNAME FROM PROJSKILLS ps, SKILLS s WHERE "
         "ps.PSPNO = " + std::to_string(pno) + " AND ps.PSSNO = s.SNO";
}

// Navigational extraction of deps_ARC: a query for the ARC departments,
// then per department its employees and projects, per employee and per
// project its skills. The rows are assembled into the same heterogeneous
// stream an XNF query delivers (tids, shared XSKILLS rows, connections),
// so both derivations are checked and cached the same way.
Result<QueryResult> NavExtract(Database* db, SpanRecorder* rec, int op,
                               std::vector<std::string>* texts) {
  enum { kDept, kEmp, kProj, kSkill, kEmployment, kOwnership, kEmpProp,
         kProjProp };
  QueryResult co;
  const char* names[] = {"XDEPT",      "XEMP",      "XPROJ",
                         "XSKILLS",    "EMPLOYMENT", "OWNERSHIP",
                         "EMPPROPERTY", "PROJPROPERTY"};
  co.outputs.resize(8);
  for (int i = 0; i < 8; ++i) {
    co.outputs[i].name = names[i];
    co.outputs[i].is_connection = i >= kEmployment;
  }
  co.outputs[kEmployment].partner_names = {"XDEPT", "XEMP"};
  co.outputs[kOwnership].partner_names = {"XDEPT", "XPROJ"};
  co.outputs[kEmpProp].partner_names = {"XEMP", "XSKILLS"};
  co.outputs[kProjProp].partner_names = {"XPROJ", "XSKILLS"};

  auto query = [&](const std::string& sql) -> Result<QueryResult> {
    if (texts != nullptr) texts->push_back(sql);
    ScopedSpan span(rec, "read.query", op);
    return db->Query(sql);
  };
  std::vector<xnfdb::StreamItem> connections;
  int64_t next_tid[4] = {0, 0, 0, 0};
  std::map<int64_t, int64_t> skill_tid;  // SNO -> tid: one row per skill
  auto add_row = [&](int output, Tuple values) {
    xnfdb::StreamItem item;
    item.kind = xnfdb::StreamItem::Kind::kRow;
    item.output = output;
    item.tid = next_tid[output]++;
    item.values = std::move(values);
    co.stream.push_back(std::move(item));
    return co.stream.back().tid;
  };
  auto connect = [&](int output, int64_t parent, int64_t child) {
    xnfdb::StreamItem item;
    item.kind = xnfdb::StreamItem::Kind::kConnection;
    item.output = output;
    item.tids = {parent, child};
    connections.push_back(std::move(item));
  };
  auto skills_of = [&](const std::string& sql, int rel,
                       int64_t parent) -> Status {
    XNFDB_ASSIGN_OR_RETURN(QueryResult skills, query(sql));
    if (co.outputs[kSkill].schema.size() == 0) {
      co.outputs[kSkill].schema = skills.outputs[0].schema;
    }
    for (Tuple& s : skills.rows()) {
      const int64_t sno = s[0].AsInt();
      auto it = skill_tid.find(sno);
      if (it == skill_tid.end()) {
        it = skill_tid.emplace(sno, add_row(kSkill, std::move(s))).first;
      }
      connect(rel, parent, it->second);
    }
    return Status::Ok();
  };

  XNFDB_ASSIGN_OR_RETURN(QueryResult depts, query(kNavDeptQuery));
  co.outputs[kDept].schema = depts.outputs[0].schema;
  for (Tuple& d : depts.rows()) {
    const int64_t dno = d[0].AsInt();
    const int64_t dept_tid = add_row(kDept, std::move(d));
    XNFDB_ASSIGN_OR_RETURN(QueryResult emps, query(NavEmpQuery(dno)));
    co.outputs[kEmp].schema = emps.outputs[0].schema;
    for (Tuple& e : emps.rows()) {
      const int64_t eno = e[0].AsInt();
      const int64_t emp_tid = add_row(kEmp, std::move(e));
      connect(kEmployment, dept_tid, emp_tid);
      XNFDB_RETURN_IF_ERROR(
          skills_of(NavEmpSkillQuery(eno), kEmpProp, emp_tid));
    }
    XNFDB_ASSIGN_OR_RETURN(QueryResult projs, query(NavProjQuery(dno)));
    co.outputs[kProj].schema = projs.outputs[0].schema;
    for (Tuple& p : projs.rows()) {
      const int64_t pno = p[0].AsInt();
      const int64_t proj_tid = add_row(kProj, std::move(p));
      connect(kOwnership, dept_tid, proj_tid);
      XNFDB_RETURN_IF_ERROR(
          skills_of(NavProjSkillQuery(pno), kProjProp, proj_tid));
    }
  }
  for (xnfdb::StreamItem& c : connections) co.stream.push_back(std::move(c));
  return co;
}

// The statements one navigational extraction issues over `data`, in order.
std::vector<std::string> NavStatements(const Dataset& data) {
  std::vector<std::string> texts = {kNavDeptQuery};
  for (size_t dno = 1; dno < data.dept_is_arc.size(); ++dno) {
    if (!data.dept_is_arc[dno]) continue;
    texts.push_back(NavEmpQuery(dno));
    for (const auto& [eno, e] : data.emps) {
      if (e.edno == static_cast<int64_t>(dno)) {
        texts.push_back(NavEmpSkillQuery(eno));
      }
    }
    texts.push_back(NavProjQuery(dno));
    for (const ProjRow& p : data.projs) {
      if (p.pdno == static_cast<int64_t>(dno)) {
        texts.push_back(NavProjSkillQuery(p.pno));
      }
    }
  }
  return texts;
}

// What one cad_checkout write changed, for the check on the next checkout.
struct WriteRecord {
  std::map<int64_t, double> salaries;  // ENO -> new SAL
  int64_t inserted_eno = -1;
  int64_t inserted_dno = -1;
  int64_t deleted_eno = -1;
};

// Everything one op reports.
struct OpRecord {
  bool ok = true;
  double read_ms = 0;
  bool traced = false;
  bool wrote = false;
  double write_ms = 0;
  int64_t tuples = 0;
  int64_t server_calls = 0;
};

// Ops attempted (a cad_checkout cycle that writes is two) and ops failed.
// A failed set-up or set-up cross-check counts as one failed op.
std::pair<int64_t, int64_t> Attempts(const std::vector<OpRecord>& ops,
                                     bool setup_ok) {
  int64_t attempted = setup_ok ? 0 : 1, failed = setup_ok ? 0 : 1;
  for (const OpRecord& op : ops) {
    attempted += op.wrote ? 2 : 1;
    if (!op.ok) ++failed;
  }
  return {std::max<int64_t>(attempted, 1), failed};
}

class Runner {
 public:
  explicit Runner(Args args) : args_(std::move(args)) {}

  int Run();

 private:
  // One set-up: generate, populate, warm up. Returns seconds, or a
  // negative value on failure (with error_ set).
  double SetUp(int rep);
  // One more set-up, timed the same way, of an untraced runner of its own;
  // the run's database is left as it is.
  double SideSetUp(int rep);
  // A read: obtains and checks one CO. Returns false on a wrong answer or
  // an error.
  bool Read(int op, SpanRecorder* rec, OpRecord* out);
  bool Write(int op, SpanRecorder* rec, OpRecord* out);
  bool CheckShape(const CoShape& got, const char* what);
  // Setup check: the XNF extraction and the navigational derivation
  // deliver the same CO, and the stored view checks out with its shape.
  bool CrossCheck();
  // Traced-op probes, made outside the read's timing.
  bool ProbeAfterRead(int op);
  bool ProbeBeforeRead(int op);
  void Fail(const std::string& what) {
    if (error_.empty()) error_ = what;
  }

  std::string DetailJson(const std::vector<OpRecord>& ops,
                         const std::vector<double>& setups, double wall_s);
  std::string EndToEndJson(const std::vector<OpRecord>& ops,
                           const std::vector<double>& setups, double wall_s);
  std::string PerLayerJson(const std::vector<OpRecord>& ops);

  Args args_;
  Dataset data_;
  CoShape expected_;
  std::unique_ptr<Database> db_;
  SpanRecorder rec_;
  std::string error_;
  bool setup_ok_ = true;  // every set-up and the set-up cross-check passed

  // The last read's delivered CO and its statements (co_extract, nav_sql).
  QueryResult last_co_;
  std::vector<std::string> last_texts_;
  // cad_checkout state.
  std::unique_ptr<xnfdb::XNFCache> cache_;
  WriteRecord last_write_;
  bool check_write_ = false;  // the next checkout must show last_write_
  bool prev_wrote_ = false;
  int64_t live_inserted_eno_ = -1;
  std::mt19937_64 edit_rng_;

  // Per-op counts from traced probes.
  std::vector<StatementCounts> read_counts_;
  std::vector<int64_t> swizzle_installs_;
  std::vector<double> stmts_per_change_;
};

bool Runner::CheckShape(const CoShape& got, const char* what) {
  if (got == expected_) return true;
  Fail(std::string(what) + ": got " + got.ToString() + ", expected " +
       expected_.ToString());
  return false;
}

double Runner::SetUp(int rep) {
  cache_.reset();
  db_.reset();
  const int64_t t0 = NowNs();
  DatasetParams params;
  params.seed = args_.seed;
  data_ = GenerateDataset(params);
  expected_ = ExpectedShape(data_);
  edit_rng_.seed(args_.seed * 0x9e3779b97f4a7c15ULL + 1);
  live_inserted_eno_ = -1;
  check_write_ = false;
  db_ = std::make_unique<Database>();
  Status populated = PopulateDatabase(db_.get(), data_);
  if (!populated.ok()) {
    Fail("populate: " + populated.ToString());
    return -1;
  }
  if (args_.trace && args_.workload != Workload::kCadCheckout) {
    // The first plan after the population's writes pays the lazy table
    // statistics; for a read-only workload this is its only such plan.
    ScopedSpan probe(&rec_, "probe.after_write", -1 - rep);
    const std::vector<std::string> texts =
        args_.workload == Workload::kNavSql
            ? NavStatements(data_)
            : std::vector<std::string>{kDepsArcQuery};
    for (const std::string& text : texts) {
      Status s = ProbePlan(db_.get(), text, &rec_, -1 - rep);
      if (!s.ok()) {
        Fail("plan probe: " + s.ToString());
        return -1;
      }
    }
  }
  // Warm-up: a few checked reads; cad_checkout also makes one write so
  // that the measured cycles start from the steady state (one inserted
  // employee alive) and the checkout after it is checked.
  OpRecord warm_up;
  bool ok = Read(-1, nullptr, &warm_up) && Read(-1, nullptr, &warm_up);
  if (ok && args_.workload == Workload::kCadCheckout) {
    ok = Write(-1, nullptr, &warm_up);
  }
  ok = ok && Read(-1, nullptr, &warm_up);
  prev_wrote_ = false;
  if (!ok) return -1;
  return static_cast<double>(NowNs() - t0) / 1e9;
}

bool Runner::Read(int op, SpanRecorder* rec, OpRecord* out) {
  const int64_t calls0 = db_->server_calls();
  const int64_t t0 = NowNs();
  ScopedSpan read(rec, "op.read", op);
  bool ok = true;
  Traversal traversal;
  switch (args_.workload) {
    case Workload::kCoExtract: {
      Result<QueryResult> r = [&] {
        ScopedSpan span(rec, "read.query", op);
        return db_->Query(kDepsArcQuery);
      }();
      if (!r.ok()) {
        Fail("co_extract query: " + r.status().ToString());
        ok = false;
        break;
      }
      last_co_ = std::move(r).value();
      break;
    }
    case Workload::kNavSql: {
      last_texts_.clear();
      Result<QueryResult> r = NavExtract(db_.get(), rec, op, &last_texts_);
      if (!r.ok()) {
        Fail("nav_sql extraction: " + r.status().ToString());
        ok = false;
        break;
      }
      last_co_ = std::move(r).value();
      break;
    }
    case Workload::kCadCheckout: {
      Result<std::unique_ptr<xnfdb::XNFCache>> c = [&] {
        ScopedSpan span(rec, "cache.checkout", op);
        return xnfdb::XNFCache::Evaluate(db_.get(), kDepsArcView);
      }();
      if (!c.ok()) {
        Fail("checkout: " + c.status().ToString());
        ok = false;
        break;
      }
      cache_ = std::move(c).value();
      ScopedSpan span(rec, "cache.traverse", op);
      Result<Traversal> t = Traverse(&cache_->workspace());
      if (!t.ok()) {
        Fail("traverse: " + t.status().ToString());
        ok = false;
        break;
      }
      traversal = t.value();
      span.SetCount(traversal.visits);
      break;
    }
  }
  read.End();
  out->read_ms = NsToMs(NowNs() - t0);
  out->server_calls = db_->server_calls() - calls0;
  if (!ok) return false;

  // The answer check, outside the read's timing.
  CoShape got;
  if (args_.workload == Workload::kCadCheckout) {
    got = ShapeOf(&cache_->workspace());
    if (traversal.visits != ExpectedVisits(expected_) ||
        traversal.sal_sum != expected_.sal_sum) {
      Fail("traversal visited " + std::to_string(traversal.visits) +
           " rows, SAL sum " + Num(traversal.sal_sum));
      return false;
    }
    out->tuples = got.Tuples();
  } else {
    got = ShapeOf(last_co_);
    out->tuples = static_cast<int64_t>(last_co_.stream.size());
  }
  if (!CheckShape(got, "deps_ARC shape")) return false;
  if (args_.workload == Workload::kCadCheckout && check_write_) {
    // The checkout after a write-back must show that write.
    check_write_ = false;
    xnfdb::ComponentTable* xemp = cache_->workspace().component("XEMP").value();
    const int sal = xemp->schema().FindColumn("SAL");
    const int edno = xemp->schema().FindColumn("EDNO");
    for (const auto& [eno, value] : last_write_.salaries) {
      xnfdb::CachedRow* row = xemp->FindByValue(0, Value(eno));
      if (row == nullptr || row->values[sal].AsDouble() != value) {
        Fail("salary update of ENO " + std::to_string(eno) + " not visible");
        return false;
      }
    }
    xnfdb::CachedRow* ins = xemp->FindByValue(0, Value(last_write_.inserted_eno));
    if (ins == nullptr || ins->values[edno].AsInt() != last_write_.inserted_dno) {
      Fail("inserted ENO " + std::to_string(last_write_.inserted_eno) +
           " not visible under its department");
      return false;
    }
    if (last_write_.deleted_eno >= 0 &&
        xemp->FindByValue(0, Value(last_write_.deleted_eno)) != nullptr) {
      Fail("deleted ENO " + std::to_string(last_write_.deleted_eno) +
           " still visible");
      return false;
    }
  }
  return true;
}

bool Runner::Write(int op, SpanRecorder* rec, OpRecord* out) {
  out->wrote = true;
  xnfdb::XNFCache& cache = *cache_;
  xnfdb::Workspace& ws = cache.workspace();
  WriteRecord w;
  const int64_t t0 = NowNs();
  ScopedSpan write(rec, "op.write", op);
  int64_t changes = 0;
  {
    ScopedSpan span(rec, "cache.edit", op);
    xnfdb::ComponentTable* xemp = ws.component("XEMP").value();
    xnfdb::ComponentTable* xdept = ws.component("XDEPT").value();
    const int sal = xemp->schema().FindColumn("SAL");
    // Salary raises for a few employees the generator made.
    while (static_cast<int>(w.salaries.size()) < kSalaryEdits) {
      xnfdb::CachedRow* row = xemp->row(edit_rng_() % xemp->size());
      const int64_t eno = row->values[0].AsInt();
      if (eno == live_inserted_eno_ || w.salaries.count(eno) > 0) continue;
      const double raised = row->values[sal].AsDouble() + 1 + eno % 7;
      Status s = cache.Update(row, "SAL", Value(raised));
      if (!s.ok()) {
        Fail("update: " + s.ToString());
        return false;
      }
      w.salaries[eno] = raised;
      ++changes;
    }
    // A new employee in an ARC department, connected to it.
    xnfdb::CachedRow* dept = xdept->row(edit_rng_() % xdept->size());
    w.inserted_eno = data_.next_eno++;
    w.inserted_dno = dept->values[0].AsInt();
    const int64_t new_sal = 30000 + static_cast<int64_t>(edit_rng_() % 70000);
    Result<xnfdb::CachedRow*> ins = cache.Insert(
        "XEMP", Tuple{Value(w.inserted_eno),
                      Value("emp" + std::to_string(w.inserted_eno)),
                      Value(w.inserted_dno),
                      Value(static_cast<double>(new_sal))});
    if (!ins.ok()) {
      Fail("insert: " + ins.status().ToString());
      return false;
    }
    Status connected = cache.Connect("EMPLOYMENT", dept, ins.value());
    if (!connected.ok()) {
      Fail("connect: " + connected.ToString());
      return false;
    }
    changes += 2;
    // The employee the previous write inserted leaves again, so the
    // database keeps its size.
    if (live_inserted_eno_ >= 0) {
      xnfdb::CachedRow* old = xemp->FindByValue(0, Value(live_inserted_eno_));
      if (old == nullptr) {
        Fail("inserted employee missing from the checkout");
        return false;
      }
      Status s = cache.Delete(old);
      if (!s.ok()) {
        Fail("delete: " + s.ToString());
        return false;
      }
      w.deleted_eno = live_inserted_eno_;
      ++changes;
    }
    // Model the write in the generator's ground truth.
    for (const auto& [eno, value] : w.salaries) {
      data_.emps[eno].sal = static_cast<int64_t>(value);
    }
    EmpRow e;
    e.eno = w.inserted_eno;
    e.edno = w.inserted_dno;
    e.sal = new_sal;
    data_.emps[e.eno] = e;
    if (w.deleted_eno >= 0) data_.emps.erase(w.deleted_eno);
  }
  Result<std::vector<std::string>> applied = [&] {
    if (rec == nullptr) return cache.WriteBack();
    // Traced: the planning pass on its own, then the whole apply (which
    // plans again before it executes).
    xnfdb::WriteBackPlanner planner(db_.get(), &cache.definition());
    {
      ScopedSpan span(rec, "cache.writeback_plan", op);
      Result<std::vector<std::string>> planned = planner.Plan(&ws);
      if (!planned.ok()) return planned;
    }
    ScopedSpan span(rec, "cache.writeback_apply", op);
    return planner.Apply(&ws);
  }();
  write.End();
  out->write_ms = NsToMs(NowNs() - t0);
  if (!applied.ok()) {
    Fail("write-back: " + applied.status().ToString());
    return false;
  }
  const int64_t stmts = static_cast<int64_t>(applied.value().size());
  if (stmts != changes) {
    Fail("write-back ran " + std::to_string(stmts) + " statements for " +
         std::to_string(changes) + " changes");
    return false;
  }
  stmts_per_change_.push_back(static_cast<double>(stmts) / changes);
  live_inserted_eno_ = w.inserted_eno;
  last_write_ = std::move(w);
  check_write_ = true;
  expected_ = ExpectedShape(data_);
  return true;
}

bool Runner::CrossCheck() {
  Result<QueryResult> xnf = db_->Query(kDepsArcQuery);
  Result<QueryResult> nav = NavExtract(db_.get(), nullptr, 0, nullptr);
  if (!xnf.ok() || !nav.ok()) {
    Fail("cross-check: " +
         (xnf.ok() ? nav.status() : xnf.status()).ToString());
    return false;
  }
  if (!CheckShape(ShapeOf(xnf.value()), "co_extract shape") ||
      !CheckShape(ShapeOf(nav.value()), "nav_sql shape")) {
    return false;
  }
  if (CanonicalCo(xnf.value()) != CanonicalCo(nav.value())) {
    Fail("co_extract and nav_sql deliver different deps_ARC rows");
    return false;
  }
  Result<std::unique_ptr<xnfdb::XNFCache>> c =
      xnfdb::XNFCache::Evaluate(db_.get(), kDepsArcView);
  if (!c.ok()) {
    Fail("cross-check checkout: " + c.status().ToString());
    return false;
  }
  return CheckShape(ShapeOf(&c.value()->workspace()), "DEPS_ARC checkout");
}

bool Runner::ProbeBeforeRead(int op) {
  // cad_checkout: probe before the checkout, so that after a write the
  // probe's plan is the first one and pays the statistics recompute.
  if (prev_wrote_) {
    ScopedSpan probe(&rec_, "probe.after_write", op);
    Status s = ProbePlan(db_.get(), kDepsArcView, &rec_, op);
    if (!s.ok()) {
      Fail("plan probe: " + s.ToString());
      return false;
    }
  }
  StatementCounts counts;
  QueryResult result;
  Status s = ProbeStatement(db_.get(), kDepsArcView, &rec_, op, &counts,
                            &result);
  if (!s.ok()) {
    Fail("statement probe: " + s.ToString());
    return false;
  }
  read_counts_.push_back(counts);
  // The checkout's own Workspace::Build runs inside XNFCache::Evaluate;
  // build once more over the probe's result to time it.
  ScopedSpan probe(&rec_, "probe.cache", op);
  int64_t installs = 0;
  Result<std::unique_ptr<xnfdb::Workspace>> built =
      ProbeBuild(result, &rec_, op, &installs);
  if (!built.ok()) {
    Fail("workspace build: " + built.status().ToString());
    return false;
  }
  swizzle_installs_.push_back(installs);
  return true;
}

bool Runner::ProbeAfterRead(int op) {
  StatementCounts counts;
  const std::vector<std::string> texts =
      args_.workload == Workload::kNavSql
          ? last_texts_
          : std::vector<std::string>{kDepsArcQuery};
  for (const std::string& text : texts) {
    Status s = ProbeStatement(db_.get(), text, &rec_, op, &counts);
    if (!s.ok()) {
      Fail("statement probe: " + s.ToString());
      return false;
    }
  }
  read_counts_.push_back(counts);
  Traversal t;
  int64_t installs = 0;
  Status s = ProbeCache(db_.get(), last_co_, &rec_, op, &t, &installs);
  if (!s.ok()) {
    Fail("cache probe: " + s.ToString());
    return false;
  }
  swizzle_installs_.push_back(installs);
  if (t.visits != ExpectedVisits(expected_) ||
      t.sal_sum != expected_.sal_sum) {
    Fail("probe traversal disagrees with the expected CO");
    return false;
  }
  return true;
}

double Runner::SideSetUp(int rep) {
  Args args = args_;
  args.trace = false;
  Runner side(std::move(args));
  const double s = side.SetUp(rep);
  if (s < 0) Fail("set-up " + std::to_string(rep) + ": " + side.error_);
  return s;
}

int Runner::Run() {
  std::vector<double> setups;
  const double first = SetUp(0);
  if (first >= 0) setups.push_back(first);
  setup_ok_ = first >= 0 && CrossCheck();

  // The other set-ups are spread evenly over the measured loop, so that
  // setup_s samples the whole run, as the reads do, and not only its first
  // second. Their time, with the side runner's teardown, is left out of
  // the loop's wall time.
  std::vector<OpRecord> ops;
  const int64_t start = NowNs();
  const int64_t run_ns = static_cast<int64_t>(args_.seconds * 1e9);
  const int64_t deadline = start + run_ns;
  int64_t paused_ns = 0;
  auto side_setup = [&] {
    const int64_t t0 = NowNs();
    const double s = SideSetUp(static_cast<int>(setups.size()));
    if (s >= 0) setups.push_back(s);
    setup_ok_ = setup_ok_ && s >= 0;
    paused_ns += NowNs() - t0;
  };
  for (int i = 0; setup_ok_ && (NowNs() < deadline || i < kMinOps); ++i) {
    if (static_cast<int>(setups.size()) < kSetups &&
        NowNs() - start >=
            static_cast<int64_t>(setups.size()) * run_ns / kSetups) {
      side_setup();
      if (!setup_ok_) break;
    }
    const bool traced = args_.trace && i % 2 == 1;
    SpanRecorder* rec = traced ? &rec_ : nullptr;
    OpRecord op;
    op.traced = traced;
    bool ok = true;
    if (traced && args_.workload == Workload::kCadCheckout) {
      ok = ProbeBeforeRead(i);
    }
    ok = ok && Read(i, rec, &op);
    if (ok && traced && args_.workload != Workload::kCadCheckout) {
      ok = ProbeAfterRead(i);
    }
    prev_wrote_ = false;
    if (ok && args_.workload == Workload::kCadCheckout &&
        i % kWriteEvery == kWriteEvery - 1) {
      ok = Write(i, rec, &op);
      prev_wrote_ = ok;
    }
    op.ok = ok;
    if (!ok) {
      // A failed op misses every latency limit.
      op.read_ms = std::numeric_limits<double>::infinity();
      if (op.wrote) op.write_ms = std::numeric_limits<double>::infinity();
    }
    ops.push_back(op);
    // After a failed cad_checkout op the model of the data may no longer
    // match the database, so no later answer could be checked: stop.
    if (!ok && args_.workload == Workload::kCadCheckout) break;
  }
  const double wall_s = static_cast<double>(NowNs() - start - paused_ns) / 1e9;
  while (setup_ok_ && static_cast<int>(setups.size()) < kSetups) side_setup();

  const auto [attempted, failed] = Attempts(ops, setup_ok_);
  const bool correct = failed == 0 && error_.empty();

  if (!args_.spans_path.empty() && args_.trace) {
    if (!rec_.WriteTsv(args_.spans_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   args_.spans_path.c_str());
    }
  }
  if (!error_.empty()) std::fprintf(stderr, "xnfbench: %s\n", error_.c_str());
  std::printf("%s\n", DetailJson(ops, setups, wall_s).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed),
              args_.trace ? PerLayerJson(ops).c_str()
                          : EndToEndJson(ops, setups, wall_s).c_str());
  std::fflush(stdout);
  return 0;
}

// Read latencies of the untraced ops (all of them in an untraced run).
std::vector<double> ReadMs(const std::vector<OpRecord>& ops, bool traced) {
  std::vector<double> v;
  for (const OpRecord& op : ops) {
    if (op.traced == traced) v.push_back(op.read_ms);
  }
  return v;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Metric(const std::string& name, double value,
                   const std::string& unit) {
  return Quote(name) + ": {\"value\": " + Num(value) +
         ", \"unit\": " + Quote(unit) + "}";
}

std::string Runner::EndToEndJson(const std::vector<OpRecord>& ops,
                                 const std::vector<double>& setups,
                                 double wall_s) {
  const std::vector<double> reads = ReadMs(ops, false);
  int64_t tuples = 0;
  std::vector<double> calls;
  for (const OpRecord& op : ops) {
    if (op.ok) tuples += op.tuples;
    calls.push_back(static_cast<double>(op.server_calls));
  }
  std::vector<std::string> m = {
      Metric("setup_s", Median(setups), "s"),
      Metric("read_ms.p50", Percentile(reads, 0.5), "ms"),
      Metric("read_ms.p90", Percentile(reads, 0.9), "ms"),
      Metric("tuples_per_s", wall_s > 0 ? tuples / wall_s : 0, "1/s"),
      Metric("server_calls_per_read", Median(calls), "count"),
      Metric("peak_rss_mb", PeakRssMb(), "MB"),
  };
  std::string out = "{";
  for (size_t i = 0; i < m.size(); ++i) out += (i ? ", " : "") + m[i];
  return out + "}";
}

std::string Runner::PerLayerJson(const std::vector<OpRecord>& ops) {
  const std::vector<Span>& spans = rec_.spans();
  const std::vector<int64_t> self = rec_.SelfTimesNs();
  auto is = [&](int i, const char* name) {
    return i >= 0 && std::strcmp(spans[i].name, name) == 0;
  };

  // Per probed statement (and per after-write probe): self ns per layer.
  std::map<int, std::map<std::string, int64_t>> statements, after_write;
  std::map<std::string, std::vector<double>> standalone_us;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    if (is(parent, "probe.statement")) {
      statements[parent][spans[i].name] += self[i];
    } else if (is(parent, "probe.after_write")) {
      after_write[parent][spans[i].name] += self[i];
    } else if (is(i, "cache.build") || is(i, "cache.writeback_plan") ||
               is(i, "cache.writeback_apply")) {
      standalone_us[spans[i].name].push_back(self[i] / 1e3);
    }
  }
  std::map<std::string, std::vector<double>> per_stmt_us;
  for (auto& [id, layers] : statements) {
    for (const char* layer :
         {"parser.parse", "semantics.build", "rewrite.xnf", "rewrite.nf",
          "xnf.compile", "optimizer.plan", "exec.drain", "exec.graph"}) {
      per_stmt_us[layer].push_back(layers[layer] / 1e3);
    }
    per_stmt_us["api.overhead"].push_back(
        (layers["api.query"] - layers["xnf.compile"] - layers["exec.graph"]) /
        1e3);
  }
  std::vector<double> plan_after_write;
  for (auto& [id, layers] : after_write) {
    plan_after_write.push_back(layers["optimizer.plan"] / 1e3);
  }
  std::vector<double> traverse_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (is(i, "cache.traverse") && spans[i].count > 0) {
      traverse_ns.push_back(static_cast<double>(self[i]) / spans[i].count);
    }
  }
  std::map<std::string, std::vector<double>> counts;
  for (const StatementCounts& c : read_counts_) {
    counts["rules_fired"].push_back(c.rules_fired);
    counts["spool_builds"].push_back(c.spool_builds);
    counts["rows_scanned"].push_back(c.rows_scanned);
    counts["join_probes"].push_back(c.join_probes);
    counts["index_lookups"].push_back(c.index_lookups);
    counts["spool_read_rows"].push_back(c.spool_read_rows);
    counts["scanned_per_output"].push_back(
        c.rows_output > 0 ? static_cast<double>(c.rows_scanned) / c.rows_output
                          : 0);
  }
  std::vector<double> installs(swizzle_installs_.begin(),
                               swizzle_installs_.end());
  const double plain = Median(ReadMs(ops, false));
  const double traced = Median(ReadMs(ops, true));

  std::vector<std::string> m = {
      Metric("parser.parse_us", Median(per_stmt_us["parser.parse"]), "us"),
      Metric("semantics.build_us", Median(per_stmt_us["semantics.build"]),
             "us"),
      Metric("rewrite.xnf_us", Median(per_stmt_us["rewrite.xnf"]), "us"),
      Metric("rewrite.nf_us", Median(per_stmt_us["rewrite.nf"]), "us"),
      Metric("rewrite.rules_fired", Median(counts["rules_fired"]), "count"),
      Metric("xnf.compile_us", Median(per_stmt_us["xnf.compile"]), "us"),
      Metric("api.overhead_us", Median(per_stmt_us["api.overhead"]), "us"),
      Metric("optimizer.plan_us", Median(per_stmt_us["optimizer.plan"]),
             "us"),
      Metric("optimizer.spool_builds", Median(counts["spool_builds"]),
             "count"),
      Metric("optimizer.plan_after_write_us", Median(plan_after_write), "us"),
      Metric("exec.drain_us", Median(per_stmt_us["exec.drain"]), "us"),
      Metric("exec.graph_us", Median(per_stmt_us["exec.graph"]), "us"),
      Metric("exec.rows_scanned", Median(counts["rows_scanned"]), "count"),
      Metric("exec.join_probes", Median(counts["join_probes"]), "count"),
      Metric("exec.index_lookups", Median(counts["index_lookups"]), "count"),
      Metric("exec.spool_read_rows", Median(counts["spool_read_rows"]),
             "count"),
      Metric("exec.scanned_per_output", Median(counts["scanned_per_output"]),
             "ratio"),
      Metric("cache.build_us", Median(standalone_us["cache.build"]), "us"),
      Metric("cache.swizzle_installs", Median(installs), "count"),
      Metric("cache.traverse_ns_per_tuple", Median(traverse_ns), "ns"),
      Metric("cache.writeback_plan_us",
             Median(standalone_us["cache.writeback_plan"]), "us"),
      Metric("cache.writeback_apply_us",
             Median(standalone_us["cache.writeback_apply"]), "us"),
      Metric("cache.writeback_stmts_per_change", Median(stmts_per_change_),
             "ratio"),
      Metric("trace.overhead_frac", plain > 0 ? traced / plain - 1 : 0,
             "ratio"),
  };
  std::string out = "{";
  for (size_t i = 0; i < m.size(); ++i) out += (i ? ", " : "") + m[i];
  return out + "}";
}

std::string KnobsJson(Database* db) {
  // Raw environment value of every XNFDB_* knob and the value the engine
  // resolved it to, as the engine reports it. Where the engine keeps the
  // resolution to itself (the morsel knobs, XNFDB_QUERY_PROFILES,
  // XNFDB_PLAN_FEEDBACK, XNFDB_QERROR_ALERT, XNFDB_LOG), resolved is null.
  const xnfdb::MatViewConfig mv = xnfdb::MatViewConfig::FromEnv();
  const xnfdb::GovernorOptions gov = xnfdb::GovernorOptions::FromEnv();
  const xnfdb::WatchdogOptions wd = xnfdb::WatchdogOptions::FromEnv();
  xnfdb::obs::FlightRecorder& events = xnfdb::obs::FlightRecorder::Default();
  const std::string null = "null";
  auto raw = [](const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr ? Quote(v) : std::string("null");
  };
  const std::vector<std::pair<const char*, std::string>> knobs = {
      {"XNFDB_MATVIEWS", mv.enabled ? "true" : "false"},
      {"XNFDB_MATVIEW_AUTO_CALLS", std::to_string(mv.auto_calls)},
      {"XNFDB_MATVIEW_AUTO_US", std::to_string(mv.auto_min_avg_us)},
      {"XNFDB_MATVIEW_MAX", std::to_string(mv.max_views)},
      {"XNFDB_MATVIEW_MAX_ROWS", std::to_string(mv.max_rows)},
      {"XNFDB_MAX_CONCURRENT_QUERIES", std::to_string(gov.max_concurrent)},
      {"XNFDB_QUERY_TIMEOUT_MS", std::to_string(gov.default_timeout_ms)},
      {"XNFDB_MAX_RESULT_ROWS", std::to_string(gov.default_max_result_rows)},
      {"XNFDB_MEM_BUDGET_BYTES",
       std::to_string(gov.default_mem_budget_bytes)},
      {"XNFDB_WATCHDOG_STALL_MS", std::to_string(wd.stall_ms)},
      {"XNFDB_WATCHDOG_POLL_MS", std::to_string(wd.poll_ms)},
      {"XNFDB_WATCHDOG_CANCEL", wd.auto_cancel ? "true" : "false"},
      {"XNFDB_EVENTS", events.enabled() ? "true" : "false"},
      {"XNFDB_EVENT_RING", std::to_string(events.capacity())},
      {"XNFDB_BATCH_SIZE", std::to_string(xnfdb::ResolveBatchSize(0))},
      {"XNFDB_MORSEL_WORKERS", null},
      {"XNFDB_MORSEL_ROWS", null},
      {"XNFDB_QUERY_PROFILES", null},
      {"XNFDB_PLAN_FEEDBACK", null},
      {"XNFDB_QERROR_ALERT", null},
      {"XNFDB_METRICS_SAMPLE_MS",
       db != nullptr ? std::to_string(db->sampler().options().interval_ms)
                     : null},
      {"XNFDB_METRICS_RING",
       db != nullptr ? std::to_string(db->sampler().options().ring_capacity)
                     : null},
      {"XNFDB_LOG_LEVEL",
       Quote(xnfdb::LogLevelName(xnfdb::Logger::Default().level()))},
      {"XNFDB_LOG", null},
      {"XNFDB_TRACE", xnfdb::obs::Tracer::EnvEnabled() ? "true" : "false"},
      {"XNFDB_CRASH_DIR", Quote(xnfdb::CrashReportDir())},
  };
  std::string out = "{";
  for (size_t i = 0; i < knobs.size(); ++i) {
    out += std::string(i ? ", " : "") + Quote(knobs[i].first) +
           ": {\"env\": " + raw(knobs[i].first) +
           ", \"resolved\": " + knobs[i].second + "}";
  }
  return out + "}";
}

std::string Runner::DetailJson(const std::vector<OpRecord>& ops,
                               const std::vector<double>& setups,
                               double wall_s) {
  const std::vector<double> reads = ReadMs(ops, false);
  const size_t window = std::max<size_t>(
      1, static_cast<size_t>(reads.size() * kWindowShare));
  std::vector<double> first(reads.begin(),
                            reads.begin() + std::min(window, reads.size()));
  std::vector<double> last(reads.end() - std::min(window, reads.size()),
                           reads.end());
  std::vector<double> writes;
  for (const OpRecord& op : ops) {
    if (op.wrote) writes.push_back(op.write_ms);
  }
  const auto [attempted, failed] = Attempts(ops, setup_ok_);
  std::ostringstream os;
  os << "{\"xnfbench\": {\"workload\": " << Quote(args_.workload_name)
     << ", \"seed\": " << args_.seed << ", \"seconds\": " << Num(args_.seconds)
     << ", \"trace\": " << (args_.trace ? 1 : 0)
     << ", \"build_type\": " << Quote(XNFBENCH_BUILD_TYPE)
     << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"ops\": " << ops.size() << ", \"untraced_reads\": " << reads.size()
     << ", \"writes\": " << writes.size() << ", \"failed_ops\": " << failed
     << ", \"ops_failed_frac\": "
     << Num(static_cast<double>(failed) / attempted)
     << ", \"wall_s\": " << Num(wall_s) << ", \"setup_s_samples\": [";
  for (size_t i = 0; i < setups.size(); ++i) {
    os << (i ? ", " : "") << Num(setups[i]);
  }
  os << "], \"read_ms.first_window_p50\": " << Num(Median(first))
     << ", \"read_ms.last_window_p50\": " << Num(Median(last))
     << ", \"window_reads\": " << first.size()
     << ", \"write_ms.p50\": " << Num(Percentile(writes, 0.5))
     << ", \"write_ms.p90\": " << Num(Percentile(writes, 0.9))
     << ", \"expected\": " << Quote(expected_.ToString())
     << ", \"error\": " << Quote(error_)
     << ", \"knobs\": " << KnobsJson(db_.get())
     << "}}";
  return os.str();
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload_name = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  if (args->workload_name == "co_extract") {
    args->workload = Workload::kCoExtract;
  } else if (args->workload_name == "nav_sql") {
    args->workload = Workload::kNavSql;
  } else if (args->workload_name == "cad_checkout") {
    args->workload = Workload::kCadCheckout;
  } else {
    return false;
  }
  return args->seconds > 0;
}

}  // namespace
}  // namespace xnfbench

int main(int argc, char** argv) {
  xnfbench::Args args;
  if (!xnfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: xnfbench --workload co_extract|nav_sql|cad_checkout "
                 "--seed N --seconds S --trace 0|1 [--spans FILE]\n");
    return 2;
  }
  // The matview store stays off: it would replay repeated statements
  // instead of running the engine. Every other knob keeps its default.
  setenv("XNFDB_MATVIEWS", "0", 1);
  return xnfbench::Runner(std::move(args)).Run();
}
