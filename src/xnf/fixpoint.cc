#include "xnf/fixpoint.h"

#include <map>
#include <vector>

#include "exec/expr_eval.h"
#include "optimizer/planner.h"

namespace xnfdb {

namespace {

using qgm::Box;
using qgm::BoxKind;
using qgm::QueryGraph;
using qgm::XnfComponent;

Result<const Box*> FindXnf(const QueryGraph& graph) {
  const Box* found = nullptr;
  for (size_t i = 0; i < graph.box_count(); ++i) {
    const Box* b = graph.box(static_cast<int>(i));
    if (graph.IsDead(b->id) || b->kind != BoxKind::kXnf) continue;
    if (found != nullptr) {
      return Status::Unsupported(
          "recursive XNF queries cannot use CO composition");
    }
    found = b;
  }
  if (found == nullptr) {
    return Status::InvalidArgument(
        "fixpoint evaluator requires a graph with an XNF box");
  }
  return found;
}

// Value-interned candidate rows of one component.
struct Candidates {
  RowSet rows;
  std::vector<bool> reachable;
};

// One candidate connection: partner row indexes, parent first.
struct CandidateConnection {
  std::vector<size_t> partners;
};

Result<std::vector<int>> ProjectionIndexes(const Box& box,
                                           const std::vector<std::string>& cols) {
  std::vector<int> out;
  if (cols.empty()) {
    for (size_t i = 0; i < box.HeadArity(); ++i) out.push_back(int(i));
    return out;
  }
  for (const std::string& name : cols) {
    int idx = -1;
    for (size_t i = 0; i < box.HeadArity(); ++i) {
      if (IdentEquals(box.HeadName(i), name)) {
        idx = static_cast<int>(i);
        break;
      }
    }
    if (idx < 0) {
      return Status::SemanticError("TAKE column '" + name +
                                   "' not found in component " + box.label);
    }
    out.push_back(idx);
  }
  return out;
}

}  // namespace

Result<QueryResult> ExecuteXnfFixpoint(const Catalog& catalog,
                                       const QueryGraph& graph,
                                       const ExecOptions& options) {
  XNFDB_ASSIGN_OR_RETURN(const Box* xnf, FindXnf(graph));
  QueryResult result;
  QueryContext* ctx = options.context.get();
  const int batch_size = ResolveBatchSize(options.batch_size);
  Planner planner(&catalog, &graph, options.plan, &result.stats);
  // Plans `box_id` and hands each row it produces to `keep`, governed by
  // the query's context.
  auto pull = [&](int box_id, const auto& keep) -> Status {
    XNFDB_ASSIGN_OR_RETURN(OperatorPtr op, planner.BoxIterator(box_id));
    if (ctx != nullptr) op->AttachContext(ctx);
    return DrainRows(op.get(), batch_size, nullptr, keep);
  };

  // 1. Intern candidates per component table as they are pulled. Every
  // pulled row is charged, duplicates included.
  std::map<std::string, Candidates> candidates;
  size_t total_candidates = 0;
  for (const XnfComponent& c : xnf->components) {
    if (c.is_relationship) continue;
    Candidates& cand = candidates[c.name];
    cand.rows.Reset(planner.EstimateCard(c.box_id));
    XNFDB_RETURN_IF_ERROR(pull(c.box_id, [&](const Tuple& row) -> Status {
      if (ctx != nullptr) {
        XNFDB_RETURN_IF_ERROR(ctx->ReserveBytes(ApproxTupleBytes(row)));
      }
      cand.rows.Intern(row);
      return Status::Ok();
    }));
    total_candidates += cand.rows.size();
    cand.reachable.assign(cand.rows.size(), c.is_root || !c.reachable);
    if (ctx != nullptr) XNFDB_RETURN_IF_ERROR(ctx->Check());
  }

  // 2. Resolve candidate connections per relationship as they are pulled;
  // every pulled row is charged, like any materialized input.
  std::map<std::string, std::vector<CandidateConnection>> connections;
  for (const XnfComponent& r : xnf->components) {
    if (!r.is_relationship) continue;
    std::vector<const Candidates*> partners;
    std::vector<size_t> arities;
    for (size_t pi = 0; pi <= r.children.size(); ++pi) {
      const std::string& name = pi == 0 ? r.parent : r.children[pi - 1];
      partners.push_back(&candidates[name]);
      arities.push_back(
          graph.box(xnf->FindComponent(name)->box_id)->HeadArity());
    }
    std::vector<CandidateConnection>& conns = connections[r.name];
    XNFDB_RETURN_IF_ERROR(pull(r.box_id, [&](const Tuple& t) -> Status {
      if (ctx != nullptr) {
        XNFDB_RETURN_IF_ERROR(ctx->ReserveBytes(ApproxTupleBytes(t)));
      }
      RowView row(t);
      CandidateConnection conn;
      size_t offset = 0;
      for (size_t pi = 0; pi < partners.size(); ++pi) {
        size_t idx = partners[pi]->rows.Find(row.subspan(offset, arities[pi]));
        offset += arities[pi];
        if (idx == RowSet::kNotFound) {
          return Status::Ok();  // partner row filtered out of its candidates
        }
        conn.partners.push_back(idx);
      }
      conns.push_back(std::move(conn));
      return Status::Ok();
    }));
    if (ctx != nullptr) XNFDB_RETURN_IF_ERROR(ctx->Check());
  }

  // 3. Least fixpoint of the reachability rule. Each productive iteration
  // marks at least one new candidate reachable, so the fixpoint must settle
  // within total_candidates + 1 passes — exceeding that bound means the
  // monotonicity invariant broke and the loop would spin forever.
  const size_t max_iterations = total_candidates + 1;
  size_t iterations = 0;
  bool changed = true;
  while (changed) {
    if (ctx != nullptr) XNFDB_RETURN_IF_ERROR(ctx->Check());
    if (++iterations > max_iterations) {
      return Status::Internal(
          "fixpoint failed to converge after " +
          std::to_string(iterations - 1) + " iterations over " +
          std::to_string(total_candidates) + " candidate rows");
    }
    changed = false;
    for (const XnfComponent& r : xnf->components) {
      if (!r.is_relationship) continue;
      Candidates& parent_cand = candidates[r.parent];
      for (const CandidateConnection& conn : connections[r.name]) {
        if (!parent_cand.reachable[conn.partners[0]]) continue;
        for (size_t ci = 0; ci < r.children.size(); ++ci) {
          Candidates& child_cand = candidates[r.children[ci]];
          if (!child_cand.reachable[conn.partners[1 + ci]]) {
            child_cand.reachable[conn.partners[1 + ci]] = true;
            changed = true;
          }
        }
      }
    }
  }

  // 4. Emit the heterogeneous stream, mirroring the rewrite path's shape:
  // one OutputBuffer per output, concatenated in output order.
  std::vector<OutputBuffer> buffers;
  std::map<std::string, std::vector<int>> take_cols;
  std::map<std::string, int> output_index;
  Tuple scratch;

  for (const XnfComponent& c : xnf->components) {
    if (c.is_relationship || !c.taken) continue;
    const Box* box = graph.box(c.box_id);
    XNFDB_ASSIGN_OR_RETURN(std::vector<int> cols,
                           ProjectionIndexes(*box, c.take_columns));
    OutputDesc desc;
    desc.name = c.name;
    for (int col : cols) {
      Column column;
      column.name = box->HeadName(col);
      Result<DataType> t = graph.HeadType(c.box_id, col);
      column.type = t.ok() ? t.value() : DataType::kNull;
      desc.schema.AddColumn(std::move(column));
    }
    const int out_idx = static_cast<int>(result.outputs.size());
    output_index[c.name] = out_idx;
    result.outputs.push_back(std::move(desc));
    buffers.emplace_back(out_idx);

    const Candidates& cand = candidates[c.name];
    for (size_t i = 0; i < cand.rows.size(); ++i) {
      if (!cand.reachable[i]) continue;
      if (!buffers[out_idx]
               .InternRow(ProjectCols(cand.rows.Row(i), cols, &scratch))
               .second) {
        continue;
      }
      if (ctx != nullptr) XNFDB_RETURN_IF_ERROR(ctx->ChargeOutputRows(1));
      ++result.stats.rows_output;
    }
    take_cols[c.name] = std::move(cols);
  }

  std::vector<TupleId> partner_tids;  // reused per connection
  for (const XnfComponent& r : xnf->components) {
    if (!r.is_relationship || !r.taken) continue;
    std::vector<std::string> partners;
    partners.push_back(r.parent);
    for (const std::string& c : r.children) partners.push_back(c);
    OutputDesc desc;
    desc.name = r.name;
    desc.is_connection = true;
    desc.partner_names = partners;
    const int out_idx = static_cast<int>(result.outputs.size());
    result.outputs.push_back(std::move(desc));
    buffers.emplace_back(out_idx);

    for (const CandidateConnection& conn : connections[r.name]) {
      // A connection exists in the CO iff all its partners do.
      bool all_reachable = true;
      partner_tids.clear();
      for (size_t pi = 0; pi < partners.size(); ++pi) {
        const Candidates& cand = candidates[partners[pi]];
        auto oit = output_index.find(partners[pi]);
        TupleId tid = -1;
        if (cand.reachable[conn.partners[pi]] && oit != output_index.end()) {
          tid = buffers[oit->second].FindRow(
              ProjectCols(cand.rows.Row(conn.partners[pi]),
                          take_cols[partners[pi]], &scratch));
        }
        if (tid < 0) {
          all_reachable = false;  // unreachable, or not taken/emitted
          break;
        }
        partner_tids.push_back(tid);
      }
      if (!all_reachable) continue;
      if (!buffers[out_idx].AddConnection(partner_tids)) continue;
      if (ctx != nullptr) XNFDB_RETURN_IF_ERROR(ctx->ChargeOutputRows(1));
      ++result.stats.rows_output;
    }
  }

  for (OutputBuffer& b : buffers) {
    for (StreamItem& item : b.items()) result.stream.push_back(std::move(item));
  }
  if (options.metrics != nullptr) result.stats.PublishTo(options.metrics);
  return result;
}

}  // namespace xnfdb
