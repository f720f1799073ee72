#include "exec/executor.h"

#include <algorithm>
#include <map>

#include "common/str_util.h"
#include "obs/phase.h"

namespace xnfdb {

int QueryResult::FindOutput(const std::string& name) const {
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (IdentEquals(outputs[i].name, name)) return static_cast<int>(i);
  }
  return -1;
}

std::vector<Tuple> QueryResult::RowsOf(int idx) const {
  std::vector<Tuple> rows;
  for (const StreamItem& item : stream) {
    if (item.output == idx && item.kind == StreamItem::Kind::kRow) {
      rows.push_back(item.values);
    }
  }
  return rows;
}

size_t QueryResult::RowCount(int idx) const {
  size_t n = 0;
  for (const StreamItem& item : stream) {
    if (item.output == idx && item.kind == StreamItem::Kind::kRow) ++n;
  }
  return n;
}

size_t QueryResult::ConnectionCount(int idx) const {
  size_t n = 0;
  for (const StreamItem& item : stream) {
    if (item.output == idx && item.kind == StreamItem::Kind::kConnection) ++n;
  }
  return n;
}

std::pair<TupleId, bool> OutputBuffer::InternRow(RowView row) {
  auto [tid, inserted] = index_.InsertUnique(
      HashRow(row), static_cast<uint32_t>(items_.size()),
      [&](uint32_t id) { return RowsEqual(items_[id].values, row); });
  if (inserted) AppendRow(row);
  return {static_cast<TupleId>(tid), inserted};
}

TupleId OutputBuffer::AppendRow(RowView row) {
  StreamItem& item = items_.emplace_back();
  item.kind = StreamItem::Kind::kRow;
  item.output = output_;
  item.tid = static_cast<TupleId>(items_.size() - 1);
  item.values.assign(row.begin(), row.end());
  return item.tid;
}

TupleId OutputBuffer::FindRow(RowView row) const {
  uint32_t id = index_.Find(HashRow(row), [&](uint32_t i) {
    return RowsEqual(items_[i].values, row);
  });
  return id == RowHashIndex::kNone ? -1 : static_cast<TupleId>(id);
}

bool OutputBuffer::AddConnection(std::span<const TupleId> tids) {
  size_t hash = 14695981039346656037ULL;  // FNV-1a over the tids
  for (TupleId t : tids) {
    hash ^= std::hash<TupleId>()(t);
    hash *= 1099511628211ULL;
  }
  const bool inserted =
      index_
          .InsertUnique(hash, static_cast<uint32_t>(items_.size()),
                        [&](uint32_t id) {
                          return std::equal(tids.begin(), tids.end(),
                                            items_[id].tids.begin(),
                                            items_[id].tids.end());
                        })
          .second;
  if (!inserted) return false;
  StreamItem& item = items_.emplace_back();
  item.kind = StreamItem::Kind::kConnection;
  item.output = output_;
  item.tids.assign(tids.begin(), tids.end());
  return true;
}

namespace {

// One operator's estimate and summed actuals. An output's slots are
// indexed by pre-order position, so morsel clones of one plan merge into
// the same slots.
struct FeedbackSlot {
  const char* op = nullptr;
  double est = -1.0;
  int64_t rows = 0;
  int64_t loops = 0;
};

// Folds one finished operator tree into the profile and the cardinality
// feedback in a single walk: `ops` aggregates by operator class (inclusive
// time is the node's own measurement; self time subtracts the children's
// inclusive time, clamped at zero), `slots` by pre-order position `*pos`.
// A morsel clone after the first passes its driver scan as `split`: the
// operators on the morsel path above it ran one loop of the pipeline
// between them, so they add their rows but no loops; operators off the
// path (build sides) ran once per clone and count each loop.
void FoldTree(Operator* op, const ScanOp* split, size_t* pos,
              std::map<std::string, obs::OpProfile>* ops,
              std::vector<FeedbackSlot>* slots) {
  const Operator::Actuals& a = op->actuals();
  const int64_t loops =
      split != nullptr && op->MorselDriver() == split ? 0 : a.loops;
  if (slots->size() <= *pos) slots->resize(*pos + 1);
  FeedbackSlot& slot = (*slots)[(*pos)++];
  if (slot.op == nullptr) {
    slot.op = op->Kind();
    slot.est = op->estimated_rows();
  }
  slot.rows += a.rows;
  slot.loops += loops;
  // `slot` is not touched past this point: the recursion may grow `slots`.
  int64_t child_ns = 0;
  for (Operator* c : op->Children()) {
    child_ns += c->actuals().ns;
    FoldTree(c, split, pos, ops, slots);
  }
  obs::OpProfile& p = (*ops)[op->Kind()];
  if (p.op.empty()) p.op = op->Kind();
  p.loops += loops;
  p.rows += a.rows;
  p.batches += a.batches;
  p.incl_us += a.ns / 1000;
  p.self_us += std::max<int64_t>(0, a.ns - child_ns) / 1000;
}

}  // namespace

Result<QueryResult> ExecuteGraph(const Catalog& catalog,
                                 const qgm::QueryGraph& graph,
                                 const ExecOptions& options) {
  if (graph.top_box_id() < 0) {
    return Status::Internal("graph has no Top box");
  }
  const qgm::Box* top = graph.box(graph.top_box_id());
  QueryResult result;
  // Morsel workers increment `run_stats`, never the result object, so the
  // result can be copied or moved freely: its stats are a consistent
  // snapshot taken after every worker joined.
  ExecStats run_stats;
  const int batch_size = ResolveBatchSize(options.batch_size);
  // Morsel workers clone plans and split actuals across them, so analyze
  // mode (which renders one annotated plan per output) stays serial.
  PlanOptions plan_options = options.plan;
  plan_options.morsel_workers =
      options.analyze ? 1 : ResolveMorselWorkers(plan_options.morsel_workers);
  const int morsel_workers = plan_options.morsel_workers;
  QueryContext* ctx = options.context.get();
  Planner planner(&catalog, &graph, plan_options, &run_stats);
  const bool collect_profile = options.collect_profile;
  // Plans one output's tree and instruments it for this run: governance,
  // analyze timing and profiling are the executor's, not the planner's.
  auto plan_output = [&](const qgm::TopOutput& out) -> Result<OperatorPtr> {
    XNFDB_ASSIGN_OR_RETURN(OperatorPtr op, planner.BoxIterator(out.box_id));
    if (ctx != nullptr) op->AttachContext(ctx);
    if (options.analyze) op->EnableAnalyze();
    if (collect_profile) op->EnableProfile();
    return op;
  };

  // Output descriptors.
  for (const qgm::TopOutput& out : top->outputs) {
    OutputDesc desc;
    desc.name = out.name;
    desc.is_connection = out.is_connection;
    if (!out.is_connection) {
      const qgm::Box* box = graph.box(out.box_id);
      std::vector<int> cols = out.cols;
      if (cols.empty()) {
        for (size_t i = 0; i < box->HeadArity(); ++i) {
          cols.push_back(static_cast<int>(i));
        }
      }
      for (int c : cols) {
        Column col;
        col.name = box->HeadName(c);
        Result<DataType> t = graph.HeadType(out.box_id, c);
        col.type = t.ok() ? t.value() : DataType::kNull;
        desc.schema.AddColumn(std::move(col));
      }
    } else {
      desc.partner_names = out.partner_names;
    }
    result.outputs.push_back(std::move(desc));
  }

  int n_outputs = static_cast<int>(top->outputs.size());
  const bool collect_counts = options.collect_dedup_counts;
  std::map<std::string, int> component_output;  // name -> output index
  std::vector<OutputBuffer> buffers;
  buffers.reserve(n_outputs);
  for (int i = 0; i < n_outputs; ++i) {
    buffers.emplace_back(i);
    if (!top->outputs[i].is_connection) {
      component_output[top->outputs[i].name] = i;
      if (collect_counts && top->outputs[i].xnf_component) {
        result.component_counts[i];  // pre-create: present when empty
      }
    } else if (collect_counts) {
      result.connection_counts[i];
    }
  }
  std::vector<std::string> plan_texts(n_outputs);

  // Always-on profile and cardinality-feedback accumulation: every
  // finished tree (each morsel clone too) folds here once, never per row.
  std::map<std::string, obs::OpProfile> profile_ops;
  std::map<int64_t, obs::WorkerProfile> profile_workers;  // by worker id
  std::vector<std::vector<FeedbackSlot>> feedback_slots(n_outputs);
  std::vector<std::string> shapes(n_outputs);
  auto capture_shape = [&](int oi, const qgm::TopOutput& out, Operator* op) {
    if (!collect_profile) return;
    shapes[oi] = out.name + "=" + PlanShapeText(op);
  };
  auto fold_tree = [&](int oi, Operator* root, const ScanOp* split) {
    if (!collect_profile) return;
    size_t pos = 0;
    FoldTree(root, split, &pos, &profile_ops, &feedback_slots[oi]);
  };

  // Renders the annotated plan tree of one finished output (analyze mode).
  auto capture_plan = [&](int oi, const qgm::TopOutput& out, Operator* op) {
    if (!options.analyze) return;
    std::string text = "output " + out.name +
                       (out.is_connection ? " [connection]" : "") + ":\n";
    op->Explain(1, &text);
    plan_texts[oi] = std::move(text);
  };

  // Appends one projected component row to the output buffer (interned
  // there for XNF object sharing). Rows are charged against the governor's
  // row budget here — after dedup, so the budget bounds what the client
  // actually receives.
  auto emit_component = [&](int oi, const qgm::TopOutput& out,
                            RowView projected) -> Status {
    if (out.xnf_component) {
      auto [tid, inserted] = buffers[oi].InternRow(projected);
      if (collect_counts) ++result.component_counts[oi][tid];
      if (!inserted) return Status::Ok();  // object sharing: emit once
    } else {
      buffers[oi].AppendRow(projected);
    }
    if (ctx != nullptr) XNFDB_RETURN_IF_ERROR(ctx->ChargeOutputRows(1));
    ++run_stats.rows_output;
    return Status::Ok();
  };

  // Morsel-parallel evaluation of one component output: one plan clone per
  // worker over a shared morsel dispenser on their driver scans. The
  // buckets are reassembled in morsel order, so the emitted stream (and
  // therefore every assigned tid) is identical to serial execution.
  auto run_morsel_output = [&](int oi, const qgm::TopOutput& out,
                               OperatorPtr first_plan) -> Status {
    std::vector<OperatorPtr> plans;
    plans.push_back(std::move(first_plan));
    for (int w = 1; w < morsel_workers; ++w) {
      XNFDB_ASSIGN_OR_RETURN(OperatorPtr clone, plan_output(out));
      plans.push_back(std::move(clone));
    }
    std::vector<RowStore> buckets;
    std::vector<obs::WorkerProfile> workers;
    XNFDB_RETURN_IF_ERROR(DrainMorsels(plans, batch_size,
                                       &run_stats.batches_emitted, out.cols,
                                       ctx, &buckets, &workers));
    for (const RowStore& bucket : buckets) {
      for (size_t r = 0; r < bucket.size(); ++r) {
        XNFDB_RETURN_IF_ERROR(emit_component(oi, out, bucket.Row(r)));
      }
    }
    for (size_t w = 0; w < plans.size(); ++w) {
      fold_tree(oi, plans[w].get(),
                w == 0 ? nullptr : plans[w]->MorselDriver());
      obs::WorkerProfile& wp = profile_workers[workers[w].worker];
      wp.worker = workers[w].worker;
      wp.rows += workers[w].rows;
      wp.morsels += workers[w].morsels;
      wp.wall_us += workers[w].wall_us;
    }
    return Status::Ok();
  };

  // Pass 1: component streams (tuple ids assigned; XNF components dedup).
  // A spool is built by whichever output opens it first; later readers
  // share it.
  for (int oi = 0; oi < n_outputs; ++oi) {
    const qgm::TopOutput& out = top->outputs[oi];
    if (out.is_connection) continue;
    obs::Span plan_span;
    if (options.tracer != nullptr) {
      plan_span = options.tracer->StartSpan("plan " + out.name);
    }
    OperatorPtr op;
    {
      // Null tracer: the per-output spans are opened separately.
      obs::PhaseScope phase(nullptr, options.metrics, "plan");
      XNFDB_ASSIGN_OR_RETURN(op, plan_output(out));
    }
    capture_shape(oi, out, op.get());
    plan_span.End();
    obs::Span exec_span;
    if (options.tracer != nullptr) {
      exec_span = options.tracer->StartSpan("execute " + out.name);
    }
    obs::PhaseScope phase(nullptr, options.metrics, "execute");
    // Intra-plan parallelism: only a streaming scan pipeline qualifies (a
    // pipeline breaker or non-scan source has no morsel driver).
    if (morsel_workers > 1 && op->MorselDriver() != nullptr) {
      XNFDB_RETURN_IF_ERROR(run_morsel_output(oi, out, std::move(op)));
      continue;
    }
    Tuple scratch;
    XNFDB_RETURN_IF_ERROR(DrainRows(
        op.get(), batch_size, &run_stats.batches_emitted,
        [&](const Tuple& row) -> Status {
          return emit_component(oi, out, ProjectCols(row, out.cols, &scratch));
        }));
    capture_plan(oi, out, op.get());
    fold_tree(oi, op.get(), nullptr);
  }

  // Pass 2: connection streams (tid maps are read-only now).
  for (int oi = 0; oi < n_outputs; ++oi) {
    const qgm::TopOutput& out = top->outputs[oi];
    if (!out.is_connection) continue;
    obs::Span exec_span;
    if (options.tracer != nullptr) {
      exec_span = options.tracer->StartSpan("execute " + out.name);
    }
    OperatorPtr op;
    {
      obs::PhaseScope phase(nullptr, options.metrics, "plan");
      XNFDB_ASSIGN_OR_RETURN(op, plan_output(out));
    }
    capture_shape(oi, out, op.get());
    obs::PhaseScope phase(nullptr, options.metrics, "execute");
    std::map<std::vector<TupleId>, int64_t>* counts =
        collect_counts ? &result.connection_counts[oi] : nullptr;
    std::vector<TupleId> partner_tids;  // reused per row
    Tuple key;                          // reused partner-key scratch
    XNFDB_RETURN_IF_ERROR(DrainRows(
        op.get(), batch_size, &run_stats.batches_emitted,
        [&](const Tuple& row) -> Status {
          partner_tids.clear();
          for (size_t pi = 0; pi < out.partner_names.size(); ++pi) {
            const std::string& partner = out.partner_names[pi];
            auto cit = component_output.find(partner);
            if (cit == component_output.end()) {
              return Status::Internal("connection partner '" + partner +
                                      "' is not an output component");
            }
            const TupleId tid = buffers[cit->second].FindRow(
                ProjectCols(row, out.partner_cols[pi], &key));
            if (tid < 0) {
              // The partner row did not appear in its component stream
              // (can happen only for non-reachable setups); drop the
              // connection to keep the answer closed.
              return Status::Ok();
            }
            partner_tids.push_back(tid);
          }
          if (counts != nullptr) ++(*counts)[partner_tids];
          if (!buffers[oi].AddConnection(partner_tids)) {
            return Status::Ok();  // duplicate connection
          }
          if (ctx != nullptr) {
            XNFDB_RETURN_IF_ERROR(ctx->ChargeOutputRows(1));
          }
          ++run_stats.rows_output;
          return Status::Ok();
        }));
    capture_plan(oi, out, op.get());
    fold_tree(oi, op.get(), nullptr);
  }

  // Workers have joined: the snapshot below is consistent.
  result.stats = run_stats;
  if (options.analyze) result.plan_texts = std::move(plan_texts);
  if (options.metrics != nullptr) run_stats.PublishTo(options.metrics);
  if (collect_profile) {
    result.profile.ops.reserve(profile_ops.size());
    for (auto& [kind, p] : profile_ops) result.profile.ops.push_back(std::move(p));
    result.profile.workers.reserve(profile_workers.size());
    for (auto& [id, wp] : profile_workers) {
      result.profile.workers.push_back(wp);
    }
    result.profile.rows_out = run_stats.rows_output;
    for (const std::string& s : shapes) {
      if (s.empty()) continue;
      if (!result.plan_shape.empty()) result.plan_shape += ";";
      result.plan_shape += s;
    }
    result.plan_hash = PlanShapeHash(result.plan_shape);
    for (int oi = 0; oi < n_outputs; ++oi) {
      for (const FeedbackSlot& slot : feedback_slots[oi]) {
        obs::OpFeedback f;
        f.output = top->outputs[oi].name;
        f.op = slot.op;
        f.est_rows = slot.est;
        f.actual_rows = slot.rows;
        f.loops = slot.loops;
        const double per_loop = static_cast<double>(slot.rows) /
                                static_cast<double>(std::max<int64_t>(
                                    slot.loops, 1));
        f.q_error = slot.est >= 0 ? obs::QError(slot.est, per_loop) : 0.0;
        result.feedback.push_back(std::move(f));
      }
    }
  }

  // Merge the per-output buffers into one stream, in output order (a
  // deterministic interleaving; the paper allows any, Sect. 5.1).
  obs::PhaseScope deliver_phase(options.tracer, options.metrics, "deliver");
  size_t total = 0;
  for (OutputBuffer& b : buffers) total += b.items().size();
  result.stream.reserve(total);
  for (OutputBuffer& b : buffers) {
    for (StreamItem& item : b.items()) result.stream.push_back(std::move(item));
  }
  return result;
}

}  // namespace xnfdb
