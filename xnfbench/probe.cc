#include "probe.h"

#include "cache/cursor.h"
#include "cache/writeback.h"
#include "exec/batch.h"
#include "optimizer/planner.h"
#include "parser/parser.h"
#include "rewrite/nf_rules.h"
#include "rewrite/xnf_rewrite.h"
#include "semantics/builder.h"
#include "xnf/compiler.h"

namespace xnfbench {

using xnfdb::CompiledQuery;
using xnfdb::Database;
using xnfdb::QueryResult;
using xnfdb::Result;
using xnfdb::Status;
using xnfdb::Workspace;

namespace {

// The definition text behind `text`: a stored view's body, or `text`.
std::string DefinitionOf(const Database& db, const std::string& text,
                         bool* is_view) {
  Result<const xnfdb::ViewDef*> view = db.catalog().GetView(text);
  *is_view = view.ok();
  return view.ok() ? view.value()->definition : text;
}

// Plans every output stream of `graph` the way ExecuteGraph does —
// component streams first, then connection streams — recording one
// optimizer.plan span per BoxIterator call and, when `drain`, pulls each
// operator tree to the end in one exec.drain span.
Status PlanAndDrain(const xnfdb::Catalog& catalog,
                    const xnfdb::qgm::QueryGraph& graph, SpanRecorder* rec,
                    int op, bool drain, xnfdb::ExecStats* stats) {
  xnfdb::PlanOptions options;
  options.batch_size = xnfdb::ResolveBatchSize(0);
  xnfdb::Planner planner(&catalog, &graph, options, stats);
  const xnfdb::qgm::Box* top = graph.box(graph.top_box_id());
  for (bool connections : {false, true}) {
    for (const xnfdb::qgm::TopOutput& out : top->outputs) {
      if (out.is_connection != connections) continue;
      xnfdb::OperatorPtr tree;
      {
        ScopedSpan span(rec, "optimizer.plan", op);
        XNFDB_ASSIGN_OR_RETURN(tree, planner.BoxIterator(out.box_id));
      }
      if (!drain) continue;
      tree->EnableProfile();  // as ExecuteGraph's default collect_profile
      ScopedSpan span(rec, "exec.drain", op);
      XNFDB_RETURN_IF_ERROR(tree->Open());
      xnfdb::TupleBatch batch(options.batch_size);
      while (true) {
        XNFDB_ASSIGN_OR_RETURN(bool more, tree->NextBatch(&batch));
        if (!more) break;
      }
      tree->Close();
    }
  }
  return Status::Ok();
}

// Pointers Workspace::Build installed: every child and parent adjacency
// entry of every row.
int64_t SwizzleInstalls(Workspace* ws) {
  int64_t installs = 0;
  for (size_t c = 0; c < ws->component_count(); ++c) {
    xnfdb::ComponentTable* comp = ws->component(c);
    for (size_t i = 0; i < comp->size(); ++i) {
      const xnfdb::CachedRow* row = comp->row(i);
      for (const auto& v : row->children) installs += v.size();
      for (const auto& v : row->parents) installs += v.size();
    }
  }
  return installs;
}

}  // namespace

Status ProbeStatement(Database* db, const std::string& text,
                      SpanRecorder* rec, int op, StatementCounts* counts,
                      QueryResult* result) {
  ScopedSpan statement(rec, "probe.statement", op);
  const xnfdb::Catalog& catalog = db->catalog();
  {
    ScopedSpan span(rec, "api.query", op);
    Result<QueryResult> r = db->Query(text);
    if (!r.ok()) return r.status();
    if (result != nullptr) *result = std::move(r).value();
  }
  CompiledQuery compiled;
  {
    ScopedSpan span(rec, "xnf.compile", op);
    XNFDB_ASSIGN_OR_RETURN(compiled,
                           xnfdb::CompileQueryString(catalog, text));
  }

  // The same pipeline, one layer at a time.
  bool is_view = false;
  const std::string definition = DefinitionOf(*db, text, &is_view);
  std::unique_ptr<xnfdb::ast::XnfQuery> xnf;
  std::unique_ptr<xnfdb::ast::SelectStmt> select;
  {
    ScopedSpan span(rec, "parser.parse", op);
    if (is_view) {
      XNFDB_ASSIGN_OR_RETURN(xnf, xnfdb::ParseXnfQuery(definition));
    } else {
      XNFDB_ASSIGN_OR_RETURN(xnfdb::ast::StatementPtr stmt,
                             xnfdb::ParseStatement(definition));
      if (stmt->kind == xnfdb::ast::Statement::Kind::kXnfQuery) {
        xnf = std::move(
            static_cast<xnfdb::ast::XnfStatement*>(stmt.get())->query);
      } else if (stmt->kind == xnfdb::ast::Statement::Kind::kSelect) {
        select = std::move(
            static_cast<xnfdb::ast::SelectStatement*>(stmt.get())->select);
      } else {
        return Status::InvalidArgument("probe: not a query: " + text);
      }
    }
  }
  std::unique_ptr<xnfdb::qgm::QueryGraph> graph;
  {
    ScopedSpan span(rec, "semantics.build", op);
    if (xnf != nullptr) {
      XNFDB_ASSIGN_OR_RETURN(graph, xnfdb::BuildXnf(catalog, *xnf));
    } else {
      XNFDB_ASSIGN_OR_RETURN(graph, xnfdb::BuildSelect(catalog, *select));
    }
  }
  {
    // CompileSelect skips this call; on a graph without an XNF box it is
    // the rewrite's own no-op check.
    ScopedSpan span(rec, "rewrite.xnf", op);
    XNFDB_RETURN_IF_ERROR(xnfdb::XnfSemanticRewrite(graph.get()));
  }
  {
    ScopedSpan span(rec, "rewrite.nf", op);
    xnfdb::RuleEngine engine(xnfdb::MakeNfRules(xnfdb::NfRewriteOptions{}));
    XNFDB_ASSIGN_OR_RETURN(xnfdb::RewriteStats stats,
                           engine.Run(graph.get()));
    counts->rules_fired += stats.TotalFirings();
  }

  xnfdb::ExecStats plan_stats;
  XNFDB_RETURN_IF_ERROR(PlanAndDrain(catalog, *compiled.graph, rec, op,
                                     /*drain=*/true, &plan_stats));
  counts->spool_builds += plan_stats.spool_builds;

  ScopedSpan span(rec, "exec.graph", op);
  XNFDB_ASSIGN_OR_RETURN(QueryResult executed,
                         xnfdb::ExecuteGraph(catalog, *compiled.graph));
  span.End();
  counts->rows_scanned += executed.stats.rows_scanned;
  counts->join_probes += executed.stats.join_probes;
  counts->index_lookups += executed.stats.index_lookups;
  counts->spool_read_rows += executed.stats.spool_read_rows;
  counts->rows_output += executed.stats.rows_output;
  return Status::Ok();
}

Status ProbePlan(Database* db, const std::string& text, SpanRecorder* rec,
                 int op) {
  XNFDB_ASSIGN_OR_RETURN(CompiledQuery compiled,
                         xnfdb::CompileQueryString(db->catalog(), text));
  xnfdb::ExecStats stats;
  return PlanAndDrain(db->catalog(), *compiled.graph, rec, op,
                      /*drain=*/false, &stats);
}

Result<Traversal> Traverse(Workspace* ws) {
  XNFDB_ASSIGN_OR_RETURN(xnfdb::ComponentTable * xdept,
                         ws->component("XDEPT"));
  XNFDB_ASSIGN_OR_RETURN(xnfdb::ComponentTable * xproj,
                         ws->component("XPROJ"));
  XNFDB_ASSIGN_OR_RETURN(xnfdb::ComponentTable * xemp, ws->component("XEMP"));
  XNFDB_ASSIGN_OR_RETURN(xnfdb::Relationship * employment,
                         ws->relationship("EMPLOYMENT"));
  XNFDB_ASSIGN_OR_RETURN(xnfdb::Relationship * empproperty,
                         ws->relationship("EMPPROPERTY"));
  XNFDB_ASSIGN_OR_RETURN(xnfdb::Relationship * projproperty,
                         ws->relationship("PROJPROPERTY"));
  const int sal = xemp->schema().FindColumn("SAL");
  if (sal < 0) return Status::Internal("XEMP has no SAL column");

  Traversal t;
  xnfdb::DependentCursor emps(ws, employment, nullptr);
  xnfdb::DependentCursor emp_skills(ws, empproperty, nullptr);
  xnfdb::IndependentCursor depts(xdept);
  while (depts.Next()) {
    ++t.visits;
    emps.Rebind(depts.row());
    while (emps.Next()) {
      ++t.visits;
      t.sal_sum += emps.row()->values[sal].AsDouble();
      emp_skills.Rebind(emps.row());
      while (emp_skills.Next()) ++t.visits;
    }
  }
  xnfdb::DependentCursor proj_skills(ws, projproperty, nullptr);
  xnfdb::IndependentCursor projs(xproj);
  while (projs.Next()) {
    ++t.visits;
    proj_skills.Rebind(projs.row());
    while (proj_skills.Next()) ++t.visits;
  }
  return t;
}

int64_t ExpectedVisits(const CoShape& s) {
  return s.xdept + s.employment + s.empproperty + s.xproj + s.projproperty;
}

CoShape ShapeOf(Workspace* ws) {
  CoShape s;
  auto rows = [&](const char* name) -> int64_t {
    Result<xnfdb::ComponentTable*> c = ws->component(name);
    return c.ok() ? static_cast<int64_t>(c.value()->LiveCount()) : -1;
  };
  auto connections = [&](const char* name) -> int64_t {
    Result<xnfdb::Relationship*> r = ws->relationship(name);
    if (!r.ok()) return -1;
    int64_t live = 0;
    for (size_t i = 0; i < r.value()->size(); ++i) {
      if (!r.value()->connection(i)->deleted) ++live;
    }
    return live;
  };
  s.xdept = rows("XDEPT");
  s.xemp = rows("XEMP");
  s.xproj = rows("XPROJ");
  s.xskills = rows("XSKILLS");
  s.employment = connections("EMPLOYMENT");
  s.ownership = connections("OWNERSHIP");
  s.empproperty = connections("EMPPROPERTY");
  s.projproperty = connections("PROJPROPERTY");
  Result<xnfdb::ComponentTable*> xemp = ws->component("XEMP");
  if (xemp.ok()) {
    const int sal = xemp.value()->schema().FindColumn("SAL");
    for (size_t i = 0; sal >= 0 && i < xemp.value()->size(); ++i) {
      const xnfdb::CachedRow* row = xemp.value()->row(i);
      if (!row->deleted) s.sal_sum += row->values[sal].AsDouble();
    }
  }
  return s;
}

Result<std::unique_ptr<Workspace>> ProbeBuild(const QueryResult& result,
                                              SpanRecorder* rec, int op,
                                              int64_t* installs) {
  ScopedSpan span(rec, "cache.build", op);
  XNFDB_ASSIGN_OR_RETURN(std::unique_ptr<Workspace> ws,
                         Workspace::Build(result));
  span.End();
  *installs = SwizzleInstalls(ws.get());
  return ws;
}

Status ProbeCache(Database* db, const QueryResult& result, SpanRecorder* rec,
                  int op, Traversal* traversal, int64_t* installs) {
  ScopedSpan probe(rec, "probe.cache", op);
  XNFDB_ASSIGN_OR_RETURN(std::unique_ptr<Workspace> ws,
                         ProbeBuild(result, rec, op, installs));
  {
    ScopedSpan span(rec, "cache.traverse", op);
    XNFDB_ASSIGN_OR_RETURN(*traversal, Traverse(ws.get()));
    span.SetCount(traversal->visits);
  }
  XNFDB_ASSIGN_OR_RETURN(std::unique_ptr<xnfdb::ast::XnfQuery> definition,
                         xnfdb::ParseXnfQuery(kDepsArcQuery));
  xnfdb::WriteBackPlanner planner(db, definition.get());
  {
    ScopedSpan span(rec, "cache.writeback_plan", op);
    XNFDB_ASSIGN_OR_RETURN(std::vector<std::string> planned,
                           planner.Plan(ws.get()));
    if (!planned.empty()) {
      return Status::Internal("write-back planned statements for an "
                              "unchanged workspace");
    }
  }
  ScopedSpan span(rec, "cache.writeback_apply", op);
  return planner.Apply(ws.get()).status();
}

}  // namespace xnfbench
