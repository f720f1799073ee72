#include "exec/operators.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <map>
#include <sstream>
#include <thread>

#include "obs/metrics.h"
#include "obs/statement_record.h"
#include "storage/sysview.h"

namespace xnfdb {

std::string ExecStats::ToString() const {
  std::ostringstream os;
  os << "scanned=" << rows_scanned << " index_lookups=" << index_lookups
     << " join_probes=" << join_probes << " exists_probes=" << exists_probes
     << " spool_builds=" << spool_builds
     << " spool_read_rows=" << spool_read_rows << " output=" << rows_output
     << " operators=" << operators_created
     << " batches=" << batches_emitted << " morsels=" << morsels_claimed;
  return os.str();
}

void ExecStats::PublishTo(obs::MetricsRegistry* registry) const {
  registry->GetCounter("exec.rows_scanned")->Increment(rows_scanned);
  registry->GetCounter("exec.index_lookups")->Increment(index_lookups);
  registry->GetCounter("exec.join_probes")->Increment(join_probes);
  registry->GetCounter("exec.exists_probes")->Increment(exists_probes);
  registry->GetCounter("exec.spool_builds")->Increment(spool_builds);
  registry->GetCounter("exec.spool_read_rows")->Increment(spool_read_rows);
  registry->GetCounter("exec.rows_output")->Increment(rows_output);
  registry->GetCounter("exec.operators_created")->Increment(operators_created);
  registry->GetCounter("exec.batches_emitted")->Increment(batches_emitted);
  registry->GetCounter("exec.morsels_claimed")->Increment(morsels_claimed);
}

// --- Operator lifecycle wrappers -------------------------------------------

namespace {

int64_t ElapsedNs(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Status Operator::Open() {
  ++actuals_.loops;
  if (ctx_ != nullptr) {
    ctx_->Tick();
    XNFDB_RETURN_IF_ERROR(ctx_->Check());
  }
  if (!analyze_ && !profile_) return OpenImpl();
  auto t0 = std::chrono::steady_clock::now();
  Status s = OpenImpl();
  actuals_.ns += ElapsedNs(t0);
  return s;
}

Result<bool> Operator::NextBatch(TupleBatch* out) {
  out->Clear();
  if (ctx_ != nullptr) {
    ctx_->Tick();
    Status s = ctx_->Check();
    if (!s.ok()) return Result<bool>(std::move(s));
  }
  if (!analyze_ && !profile_) {
    Result<bool> r = NextBatchImpl(out);
    if (r.ok() && r.value()) {
      actuals_.rows += static_cast<int64_t>(out->ActiveCount());
      ++actuals_.batches;
    }
    return r;
  }
  auto t0 = std::chrono::steady_clock::now();
  Result<bool> r = NextBatchImpl(out);
  actuals_.ns += ElapsedNs(t0);
  if (r.ok() && r.value()) {
    actuals_.rows += static_cast<int64_t>(out->ActiveCount());
    ++actuals_.batches;
  }
  return r;
}

void Operator::Close() {
  if (!analyze_ && !profile_) {
    CloseImpl();
    return;
  }
  auto t0 = std::chrono::steady_clock::now();
  CloseImpl();
  actuals_.ns += ElapsedNs(t0);
}

void Operator::EnableAnalyze() {
  analyze_ = true;
  for (Operator* c : Children()) c->EnableAnalyze();
}

void Operator::EnableProfile() {
  profile_ = true;
  for (Operator* c : Children()) c->EnableProfile();
}

void Operator::AttachContext(QueryContext* ctx) {
  ctx_ = ctx;
  for (Operator* c : Children()) c->AttachContext(ctx);
}

void Operator::SelfLine(int depth, const std::string& text,
                        std::string* out) const {
  std::ostringstream os;
  os << text;
  if (est_rows_ >= 0) {
    os << " (est rows=" << static_cast<int64_t>(est_rows_ + 0.5) << ")";
  }
  if (!analyze_) {
    ExplainLine(depth, os.str(), out);
    return;
  }
  os << " (actual rows=" << actuals_.rows << " loops=" << actuals_.loops;
  if (actuals_.batches > 0) os << " batches=" << actuals_.batches;
  os << " time=" << std::fixed << std::setprecision(3)
     << static_cast<double>(actuals_.ns) / 1e6 << "ms";
  if (est_rows_ >= 0) {
    const double per_loop = static_cast<double>(actuals_.rows) /
                            static_cast<double>(std::max<int64_t>(
                                actuals_.loops, 1));
    os << " q=" << std::fixed << std::setprecision(2)
       << obs::QError(est_rows_, per_loop);
  }
  os << ")";
  ExplainLine(depth, os.str(), out);
}

// --- plan shape --------------------------------------------------------------

void ScanOp::ShapeToken(std::string* out) const {
  *out += "scan:" + table_->name();
}

void VirtualScanOp::ShapeToken(std::string* out) const {
  *out += "virtual_scan:" + provider_->name();
}

void IndexScanOp::ShapeToken(std::string* out) const {
  *out += "index_scan:" + table_->name() + "." +
          table_->schema().column(column_).name;
}

void RangeScanOp::ShapeToken(std::string* out) const {
  *out += "range_scan:" + table_->name() + "." +
          table_->schema().column(column_).name;
}

std::string PlanShapeText(Operator* root) {
  std::string shape;
  root->ShapeToken(&shape);
  std::vector<Operator*> children = root->Children();
  if (!children.empty()) {
    shape += "(";
    for (size_t i = 0; i < children.size(); ++i) {
      if (i > 0) shape += ",";
      shape += PlanShapeText(children[i]);
    }
    shape += ")";
  }
  return shape;
}

uint64_t PlanShapeHash(const std::string& shape) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  for (char c : shape) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

namespace {

// True when every predicate in `preds` holds for `row`.
Result<bool> AllPass(const std::vector<const qgm::Expr*>& preds,
                     const Layout& layout, RowView row) {
  for (const qgm::Expr* p : preds) {
    XNFDB_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*p, layout, row));
    if (!ok) return false;
  }
  return true;
}

// Appends `left` ++ `right` to `out`, built in the new slot (reusing its
// capacity), and retracts it unless every predicate in `preds` holds.
Status AppendJoined(const Tuple& left, RowView right,
                    const std::vector<const qgm::Expr*>& preds,
                    const Layout& layout, TupleBatch* out) {
  Tuple& combined = out->AppendRow();
  combined.clear();
  combined.reserve(left.size() + right.size());
  combined.insert(combined.end(), left.begin(), left.end());
  combined.insert(combined.end(), right.begin(), right.end());
  XNFDB_ASSIGN_OR_RETURN(bool pass, AllPass(preds, layout, combined));
  if (!pass) out->DropLastRow();
  return Status::Ok();
}

// The flat offset of `e` in rows described by `layout` when `e` is a plain
// column reference into it.
std::optional<size_t> FlatColumn(const qgm::Expr& e, const Layout& layout) {
  if (e.kind != qgm::Expr::Kind::kColRef || !layout.Has(e.quant_id)) {
    return std::nullopt;
  }
  return layout.Offset(e.quant_id) + static_cast<size_t>(e.column);
}

// True when `row` holds a member of every filter's set.
bool KeyFiltersPass(const std::vector<KeyFilter>& filters,
                    const Tuple& row) {
  for (const KeyFilter& f : filters) {
    if (!f.Contains(row[f.column])) return false;
  }
  return true;
}

// The largest distinct count among `scans`: a set that reaches it can be
// taken by none of them.
size_t MaxDistinct(const std::vector<KeyFilterScan>& scans) {
  size_t bound = 0;
  for (const KeyFilterScan& s : scans) bound = std::max(bound, s.distinct);
  return bound;
}

// Hands the value set (`keys` indexed by `index`) to every scan in `scans`
// whose column has more distinct values than the set: a set with as many
// values as the column has is unlikely to drop enough rows to pay for
// testing every row. Returns whether any scan took it.
bool OfferKeyFilter(const std::vector<KeyFilterScan>& scans,
                    const RowStore& keys, const RowHashIndex& index) {
  bool taken = false;
  for (const KeyFilterScan& s : scans) {
    if (index.KeyCount() >= s.distinct) continue;
    s.scan->AddKeyFilter(KeyFilter{s.column, &keys, &index});
    taken = true;
  }
  return taken;
}

}  // namespace

Result<std::vector<Tuple>> DrainOperator(Operator* op, int batch_size) {
  std::vector<Tuple> rows;
  XNFDB_RETURN_IF_ERROR(
      DrainRows(op, batch_size, nullptr, [&](const Tuple& row) {
        rows.push_back(row);
        return Status::Ok();
      }));
  return rows;
}

Status DrainInto(Operator* op, QueryContext* ctx, RowStore* out) {
  out->Reset(op->estimated_rows());
  return DrainRows(
      op, kDefaultBatchSize, nullptr, [&](const Tuple& row) -> Status {
        if (!out->empty() && row.size() != out->width()) {
          return Status::Internal("materialized rows differ in width");
        }
        if (ctx != nullptr) {
          XNFDB_RETURN_IF_ERROR(ctx->ReserveBytes(ApproxTupleBytes(row)));
        }
        out->Append(row);
        return Status::Ok();
      });
}

namespace {

thread_local bool t_on_morsel_worker = false;

}  // namespace

bool OnMorselWorker() { return t_on_morsel_worker; }

MorselWorkerCount& MorselWorkers() {
  static MorselWorkerCount count;
  return count;
}

Status DrainMorsels(const std::vector<OperatorPtr>& plans, int batch_size,
                    StatCounter* batches, const std::vector<int>& cols,
                    QueryContext* ctx, std::vector<RowStore>* buckets,
                    std::vector<obs::WorkerProfile>* workers) {
  std::vector<ScanOp*> drivers;
  for (const OperatorPtr& plan : plans) {
    drivers.push_back(plan->MorselDriver());
  }
  auto morsels = std::make_shared<ScanMorsels>(
      drivers[0]->table()->rid_bound(), plans.size());
  for (ScanOp* d : drivers) d->ShareMorsels(morsels);
  buckets->assign(morsels->MorselCount(), RowStore());
  for (RowStore& b : *buckets) {
    b.Reset(static_cast<double>(morsels->rows_per_morsel));
  }
  if (workers != nullptr) workers->assign(plans.size(), obs::WorkerProfile());

  std::vector<Status> status(plans.size());
  auto run = [&](size_t w) {
    const bool was_worker = t_on_morsel_worker;
    t_on_morsel_worker = true;
    MorselWorkerCount& count = MorselWorkers();
    const int live = ++count.live;
    int peak = count.peak.load();
    while (live > peak && !count.peak.compare_exchange_weak(peak, live)) {}
    const auto t0 = std::chrono::steady_clock::now();
    int64_t rows = 0;
    Tuple scratch;
    status[w] = DrainRows(
        plans[w].get(), batch_size, batches, [&](const Tuple& row) -> Status {
          RowView projected = ProjectCols(row, cols, &scratch);
          // Bucketed rows are held until reassembly: memory, not output.
          if (ctx != nullptr) {
            XNFDB_RETURN_IF_ERROR(
                ctx->ReserveBytes(ApproxTupleBytes(projected)));
          }
          ++rows;
          // A batch never spans morsels (ScanOp guarantee), so the driver's
          // current morsel tags every row it just produced.
          (*buckets)[drivers[w]->current_morsel()].Append(projected);
          return Status::Ok();
        });
    t_on_morsel_worker = was_worker;
    --count.live;
    if (workers != nullptr) {
      obs::WorkerProfile& wp = (*workers)[w];
      wp.worker = static_cast<int64_t>(w);
      wp.rows = rows;
      wp.morsels = drivers[w]->claimed_morsels();
      wp.wall_us = ElapsedNs(t0) / 1000;
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(plans.size() - 1);
  for (size_t w = 1; w < plans.size(); ++w) threads.emplace_back(run, w);
  run(0);
  for (std::thread& t : threads) t.join();
  // All workers share one QueryContext, so a cancel/deadline/budget trip
  // surfaces in every worker; the caller then drops the partial buckets.
  for (const Status& s : status) XNFDB_RETURN_IF_ERROR(s);
  return Status::Ok();
}

// --- sources ---------------------------------------------------------------

bool ScanOp::ClaimMorsel() {
  uint64_t m = morsels_->next.fetch_add(1, std::memory_order_relaxed);
  Rid start = static_cast<Rid>(m) * morsels_->rows_per_morsel;
  if (start >= morsels_->bound) return false;
  rid_ = start;
  morsel_end_ = std::min(morsels_->bound, start + morsels_->rows_per_morsel);
  current_morsel_ = static_cast<int64_t>(m);
  ++claimed_;
  if (stats_ != nullptr) ++stats_->morsels_claimed;
  return true;
}

void ScanOp::KeyFilterScans(size_t column, bool build_side,
                            std::vector<KeyFilterScan>* out) {
  if (!build_side || column >= table_->schema().size()) return;
  const int c = static_cast<int>(column);
  out->push_back(KeyFilterScan{this, c, table_->GetColumnStats(c).distinct});
}

Result<bool> ScanOp::NextBatchImpl(TupleBatch* out) {
  int64_t scanned = 0;
  while (!out->Full()) {
    Rid end = morsels_ != nullptr ? morsel_end_ : table_->rid_bound();
    while (rid_ < end && !out->Full()) {
      Rid r = rid_++;
      if (!table_->IsLive(r)) continue;
      ++scanned;
      const Tuple& row = table_->Get(r);
      if (!filters_.empty() && !KeyFiltersPass(filters_, row)) {
        ++filtered_;
        continue;
      }
      out->AppendRow() = row;  // copy-assign reuses slot buffers
    }
    if (rid_ < end) break;  // batch filled mid-range
    if (morsels_ == nullptr) break;
    // A batch never spans morsels: downstream tags each emitted batch with
    // current_morsel() to reassemble deterministic output order.
    if (!out->Empty()) break;
    if (!ClaimMorsel()) break;
  }
  if (stats_ != nullptr && scanned > 0) stats_->rows_scanned += scanned;
  return !out->Empty();
}

Status VirtualScanOp::OpenImpl() {
  XNFDB_ASSIGN_OR_RETURN(rows_, provider_->Generate());
  pos_ = 0;
  return Status::Ok();
}

Result<bool> VirtualScanOp::NextBatchImpl(TupleBatch* out) {
  while (pos_ < rows_.size() && !out->Full()) {
    out->AppendRow() = rows_[pos_++];
    if (stats_ != nullptr) ++stats_->rows_scanned;
  }
  return !out->Empty();
}

Status IndexScanOp::OpenImpl() {
  const HashIndex* index = table_->GetIndex(column_);
  if (index == nullptr) {
    return Status::Internal("index scan without index on " + table_->name());
  }
  rids_ = index->Lookup(key_);
  pos_ = 0;
  if (stats_ != nullptr) ++stats_->index_lookups;
  return Status::Ok();
}

Result<bool> IndexScanOp::NextBatchImpl(TupleBatch* out) {
  if (rids_ == nullptr) return false;
  while (pos_ < rids_->size() && !out->Full()) {
    Rid r = (*rids_)[pos_++];
    if (!table_->IsLive(r)) continue;
    out->AppendRow() = table_->Get(r);
    if (stats_ != nullptr) ++stats_->rows_scanned;
  }
  return !out->Empty();
}

Status RangeScanOp::OpenImpl() {
  const OrderedIndex* index = table_->GetOrderedIndex(column_);
  if (index == nullptr) {
    return Status::Internal("range scan without ordered index on " +
                            table_->name());
  }
  rids_.clear();
  index->Range(lo_.has_value() ? &*lo_ : nullptr, lo_inclusive_,
               hi_.has_value() ? &*hi_ : nullptr, hi_inclusive_, &rids_);
  pos_ = 0;
  if (stats_ != nullptr) ++stats_->index_lookups;
  return Status::Ok();
}

Result<bool> RangeScanOp::NextBatchImpl(TupleBatch* out) {
  while (pos_ < rids_.size() && !out->Full()) {
    Rid r = rids_[pos_++];
    if (!table_->IsLive(r)) continue;
    out->AppendRow() = table_->Get(r);
    if (stats_ != nullptr) ++stats_->rows_scanned;
  }
  return !out->Empty();
}

Status SpoolReadOp::OpenImpl() {
  pos_ = 0;
  std::lock_guard<std::mutex> lock(spool_->mu);
  std::vector<OperatorPtr>& producers = spool_->producers;
  if (producers.empty()) return spool_->status;
  for (const OperatorPtr& p : producers) p->AttachContext(context());
  if (producers.size() == 1 || OnMorselWorker()) {
    spool_->status = DrainInto(producers[0].get(), context(), &spool_->rows);
  } else {
    // Reassembled in morsel order: the serial build's rows.
    std::vector<RowStore> buckets;
    spool_->status = DrainMorsels(producers, kDefaultBatchSize, nullptr, {},
                                  context(), &buckets);
    spool_->rows.Reset(producers[0]->estimated_rows());
    for (const RowStore& bucket : buckets) {
      for (size_t r = 0; r < bucket.size(); ++r) {
        spool_->rows.Append(bucket.Row(r));
      }
    }
  }
  producers.clear();
  if (!spool_->status.ok()) {
    spool_->rows.Reset(0);  // never served: release what was drained
  } else if (stats_ != nullptr) {
    ++stats_->spool_builds;
  }
  return spool_->status;
}

Result<bool> SpoolReadOp::NextBatchImpl(TupleBatch* out) {
  const RowStore& rows = spool_->rows;
  while (pos_ < rows.size() && !out->Full()) {
    rows.CopyRow(pos_++, &out->AppendRow());
  }
  if (!out->Empty() && stats_ != nullptr) {
    stats_->spool_read_rows += static_cast<int64_t>(out->ActiveCount());
  }
  return !out->Empty();
}

Result<bool> MatViewScanOp::NextBatchImpl(TupleBatch* out) {
  while (pos_ < rows_->size() && !out->Full()) {
    out->AppendRow() = (*rows_)[pos_++];
    if (stats_ != nullptr) ++stats_->spool_read_rows;
  }
  return !out->Empty();
}

// --- row transforms -----------------------------------------------------------

Result<bool> FilterOp::NextBatchImpl(TupleBatch* out) {
  XNFDB_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
  if (!more) return false;
  // Mark instead of copy: compact the selection vector in place.
  std::vector<uint32_t>& sel = out->sel();
  size_t kept = 0;
  for (size_t i = 0; i < sel.size(); ++i) {
    XNFDB_ASSIGN_OR_RETURN(bool pass,
                           AllPass(preds_, layout_, out->rows()[sel[i]]));
    if (pass) sel[kept++] = sel[i];
  }
  sel.resize(kept);
  return true;
}

Result<bool> ProjectOp::NextBatchImpl(TupleBatch* out) {
  in_.set_capacity(out->capacity());
  XNFDB_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&in_));
  if (!more) return false;
  for (size_t i = 0; i < in_.ActiveCount(); ++i) {
    const Tuple& input = in_.Active(i);
    Tuple& row = out->AppendRow();  // reuses the slot's vector capacity
    row.clear();
    row.reserve(exprs_.size());
    for (const qgm::Expr* e : exprs_) {
      XNFDB_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, layout_, input));
      row.push_back(std::move(v));
    }
  }
  return true;
}

void ProjectOp::KeyFilterScans(size_t column, bool build_side,
                               std::vector<KeyFilterScan>* out) {
  if (column >= exprs_.size()) return;
  if (std::optional<size_t> in = FlatColumn(*exprs_[column], layout_)) {
    child_->KeyFilterScans(*in, build_side, out);
  }
}

Result<bool> DistinctOp::FirstSighting(const Tuple& row) {
  if (!seen_.Intern(row).second) return false;
  if (context() != nullptr) {
    XNFDB_RETURN_IF_ERROR(context()->ReserveBytes(ApproxTupleBytes(row)));
  }
  return true;
}

Result<bool> DistinctOp::NextBatchImpl(TupleBatch* out) {
  XNFDB_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
  if (!more) return false;
  std::vector<uint32_t>& sel = out->sel();
  size_t kept = 0;
  for (size_t i = 0; i < sel.size(); ++i) {
    XNFDB_ASSIGN_OR_RETURN(bool first, FirstSighting(out->rows()[sel[i]]));
    if (first) sel[kept++] = sel[i];
  }
  sel.resize(kept);
  return true;
}

Status SortOp::OpenImpl() {
  // Blocking inputs are consumed whole, so they are pulled at the default
  // batch size whatever the query's batch size (as hash-join builds are).
  XNFDB_RETURN_IF_ERROR(DrainInto(child_.get(), context(), &rows_));
  order_.resize(rows_.size());
  for (size_t i = 0; i < order_.size(); ++i) {
    order_[i] = static_cast<uint32_t>(i);
  }
  std::stable_sort(order_.begin(), order_.end(),
                   [this](uint32_t a, uint32_t b) {
                     RowView ra = rows_.Row(a);
                     RowView rb = rows_.Row(b);
                     for (const auto& [col, desc] : keys_) {
                       const Value& va = ra[col];
                       const Value& vb = rb[col];
                       if (va < vb) return !desc;
                       if (vb < va) return desc;
                     }
                     return false;
                   });
  pos_ = 0;
  return Status::Ok();
}

Result<bool> SortOp::NextBatchImpl(TupleBatch* out) {
  while (pos_ < order_.size() && !out->Full()) {
    rows_.CopyRow(order_[pos_++], &out->AppendRow());
  }
  return !out->Empty();
}

Result<bool> LimitOp::NextBatchImpl(TupleBatch* out) {
  size_t owed = out->capacity();
  if (limit_ >= 0) {
    const int64_t left = (offset_ - skipped_) + (limit_ - emitted_);
    if (left <= 0) return false;
    owed = std::min(owed, static_cast<size_t>(left));
  }
  in_.set_capacity(owed);
  XNFDB_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&in_));
  if (!more) return false;
  for (size_t i = 0; i < in_.ActiveCount(); ++i) {
    if (skipped_ < offset_) {
      ++skipped_;
      continue;
    }
    if (limit_ >= 0 && emitted_ >= limit_) break;  // a join overshot `owed`
    out->AppendRow().swap(in_.Active(i));
    ++emitted_;
  }
  return true;
}

// --- joins ---------------------------------------------------------------------

Status HashJoinOp::OpenImpl() {
  // Resolve all-ColRef probe keys to flat column offsets once, so per-row
  // probing indexes directly instead of walking the expression tree.
  left_key_cols_.clear();
  left_keys_flat_ = !left_keys_.empty();
  for (const qgm::Expr* k : left_keys_) {
    std::optional<size_t> col = FlatColumn(*k, left_layout_);
    if (!col.has_value()) {
      left_keys_flat_ = false;
      break;
    }
    left_key_cols_.push_back(*col);
  }
  key_sets_.clear();
  if (auto* spool = dynamic_cast<SpoolReadOp*>(left_.get())) {
    XNFDB_RETURN_IF_ERROR(left_->Open());
    XNFDB_RETURN_IF_ERROR(FilterBuildSide(spool->rows()));
    XNFDB_RETURN_IF_ERROR(right_->Open());
    return Build();
  }
  XNFDB_RETURN_IF_ERROR(right_->Open());
  XNFDB_RETURN_IF_ERROR(Build());
  XNFDB_RETURN_IF_ERROR(FilterProbeSide());
  return left_->Open();
}

void HashJoinOp::KeyFilterScans(size_t column, bool build_side,
                                std::vector<KeyFilterScan>* out) {
  const size_t left_width = left_layout_.TotalWidth();
  if (column < left_width) {
    left_->KeyFilterScans(column, build_side, out);
  } else {
    right_->KeyFilterScans(column - left_width, true, out);
  }
}

Status HashJoinOp::AddKeyValue(size_t k, const Value& v) {
  if (v.is_null()) return Status::Ok();
  const RowView key(&v, 1);
  if (!key_sets_[k].Intern(key).second || context() == nullptr) {
    return Status::Ok();
  }
  return context()->ReserveBytes(ApproxTupleBytes(key));
}

Status HashJoinOp::FilterBuildSide(const RowStore& rows) {
  for (size_t k = 0; k < right_keys_.size(); ++k) {
    std::optional<size_t> col = FlatColumn(*right_keys_[k], right_layout_);
    if (!col.has_value()) continue;
    std::vector<KeyFilterScan> scans;
    right_->KeyFilterScans(*col, true, &scans);
    if (scans.empty()) continue;
    // Building stops once no scan could take the set.
    const size_t bound = MaxDistinct(scans);
    key_sets_.resize(left_keys_.size());  // once: scans point into it
    RowSet& set = key_sets_[k];
    set.Reset(static_cast<double>(std::min(rows.size(), bound)));
    for (size_t r = 0; r < rows.size() && set.size() < bound; ++r) {
      XNFDB_ASSIGN_OR_RETURN(
          Value v, EvalExpr(*left_keys_[k], left_layout_, rows.Row(r)));
      XNFDB_RETURN_IF_ERROR(AddKeyValue(k, v));
    }
    if (!OfferKeyFilter(scans, set.rows(), set.index())) set.Reset(0);
  }
  return Status::Ok();
}

Status HashJoinOp::FilterProbeSide() {
  for (size_t k = 0; k < left_keys_.size(); ++k) {
    std::optional<size_t> col = FlatColumn(*left_keys_[k], left_layout_);
    if (!col.has_value()) continue;
    std::vector<KeyFilterScan> scans;
    left_->KeyFilterScans(*col, false, &scans);
    if (scans.empty()) continue;
    if (left_keys_.size() == 1) {  // the build index is the key's value set
      OfferKeyFilter(scans, build_keys_, build_index_);
      continue;
    }
    const size_t bound = MaxDistinct(scans);
    key_sets_.resize(left_keys_.size());  // once: scans point into it
    RowSet& set = key_sets_[k];
    set.Reset(static_cast<double>(std::min(build_keys_.size(), bound)));
    for (size_t r = 0; r < build_keys_.size() && set.size() < bound; ++r) {
      XNFDB_RETURN_IF_ERROR(AddKeyValue(k, build_keys_.Row(r)[k]));
    }
    if (!OfferKeyFilter(scans, set.rows(), set.index())) set.Reset(0);
  }
  return Status::Ok();
}

Status HashJoinOp::Build() {
  const double est = right_->estimated_rows();
  build_rows_.Reset(est);
  build_keys_.Reset(est);
  build_index_.Clear();
  TupleBatch batch(BatchCapacityFor(est, kDefaultBatchSize));
  Tuple& key = probe_key_;  // scratch until the first probe
  while (true) {
    XNFDB_ASSIGN_OR_RETURN(bool more, right_->NextBatch(&batch));
    if (!more) break;
    for (size_t i = 0; i < batch.ActiveCount(); ++i) {
      const Tuple& row = batch.Active(i);
      key.clear();
      bool null_key = false;
      for (const qgm::Expr* k : right_keys_) {
        XNFDB_ASSIGN_OR_RETURN(Value v, EvalExpr(*k, right_layout_, row));
        if (v.is_null()) null_key = true;
        key.push_back(std::move(v));
      }
      if (null_key) continue;  // NULL keys never join
      if (context() != nullptr) {
        XNFDB_RETURN_IF_ERROR(context()->ReserveBytes(
            ApproxTupleBytes(row) + ApproxTupleBytes(key)));
      }
      const auto id = static_cast<uint32_t>(build_rows_.Append(row));
      build_keys_.Append(key);
      build_index_.Insert(HashRow(key), id, [&](uint32_t other) {
        return RowsEqual(build_keys_.Row(other), key);
      });
    }
  }
  return Status::Ok();
}

Result<uint32_t> HashJoinOp::FirstMatch(const Tuple& row) {
  probe_key_.clear();
  if (left_keys_flat_) {
    for (size_t col : left_key_cols_) {
      if (col >= row.size()) {
        return Status::Internal("join key column beyond combined row");
      }
      if (row[col].is_null()) return RowHashIndex::kNone;
      probe_key_.push_back(row[col]);
    }
  } else {
    bool null_key = false;
    for (const qgm::Expr* k : left_keys_) {
      XNFDB_ASSIGN_OR_RETURN(Value v, EvalExpr(*k, left_layout_, row));
      if (v.is_null()) null_key = true;
      probe_key_.push_back(std::move(v));
    }
    if (null_key) return RowHashIndex::kNone;
  }
  return build_index_.Find(HashRow(probe_key_), [&](uint32_t id) {
    return RowsEqual(build_keys_.Row(id), probe_key_);
  });
}

Status HashJoinOp::ProbeInto(const Tuple& left, TupleBatch* out) {
  XNFDB_ASSIGN_OR_RETURN(uint32_t m, FirstMatch(left));
  for (; m != RowHashIndex::kNone; m = build_index_.NextDuplicate(m)) {
    XNFDB_RETURN_IF_ERROR(AppendJoined(left, build_rows_.Row(m), residual_,
                                       combined_layout_, out));
  }
  return Status::Ok();
}

Result<bool> HashJoinOp::NextBatchImpl(TupleBatch* out) {
  left_batch_.set_capacity(out->capacity());
  XNFDB_ASSIGN_OR_RETURN(bool more, left_->NextBatch(&left_batch_));
  if (!more) return false;
  if (stats_ != nullptr) {
    stats_->join_probes += static_cast<int64_t>(left_batch_.ActiveCount());
  }
  for (size_t i = 0; i < left_batch_.ActiveCount(); ++i) {
    XNFDB_RETURN_IF_ERROR(ProbeInto(left_batch_.Active(i), out));
  }
  return true;
}

Status NLJoinOp::OpenImpl() {
  XNFDB_RETURN_IF_ERROR(left_->Open());
  // The inner side is consumed whole: pulled at the default batch size.
  XNFDB_RETURN_IF_ERROR(DrainInto(right_.get(), context(), &inner_));
  left_batch_.Clear();
  left_pos_ = 0;
  inner_pos_ = 0;
  probes_ = 0;
  return Status::Ok();
}

Result<bool> NLJoinOp::NextBatchImpl(TupleBatch* out) {
  while (!out->Full()) {
    if (left_pos_ >= left_batch_.ActiveCount()) {
      left_batch_.set_capacity(out->capacity());
      XNFDB_ASSIGN_OR_RETURN(bool more, left_->NextBatch(&left_batch_));
      left_pos_ = 0;
      inner_pos_ = 0;
      if (!more) return !out->Empty();
      continue;
    }
    const Tuple& left = left_batch_.Active(left_pos_);
    while (inner_pos_ < inner_.size() && !out->Full()) {
      // A selective predicate can keep one call probing for a long time
      // without emitting, so the loop checks the governor itself.
      if (context() != nullptr && (++probes_ % 1024) == 0) {
        XNFDB_RETURN_IF_ERROR(context()->Check());
      }
      if (stats_ != nullptr) ++stats_->join_probes;
      XNFDB_RETURN_IF_ERROR(AppendJoined(left, inner_.Row(inner_pos_++),
                                         preds_, combined_layout_, out));
    }
    if (inner_pos_ >= inner_.size()) {
      ++left_pos_;
      inner_pos_ = 0;
    }
  }
  return true;
}

// --- existential checks ----------------------------------------------------------

Status ExistsFilterOp::OpenImpl() {
  // Group rows and indexes are deferred to the first probe (EnsureRows,
  // EnsureIndex): when the probe side is empty, or a governor
  // deadline/cancel has already expired, no group is ever paid for. Safe
  // because every probe loop — a sequential one or a morsel worker's —
  // runs on this instance's single thread (morsel workers each own a full
  // plan clone).
  return child_->Open();
}

Status ExistsFilterOp::EnsureRows(GroupCheck* g) {
  if (g->op == nullptr) return Status::Ok();
  g->op->AttachContext(context());
  XNFDB_RETURN_IF_ERROR(DrainInto(g->op.get(), context(), &g->rows));
  g->op.reset();
  return Status::Ok();
}

Status ExistsFilterOp::EnsureIndex(GroupCheck* g) {
  if (g->index_built) return Status::Ok();
  // A budget termination must fire before the build cost is paid, and this
  // loop pulls from no child operator, so it checks the governor itself
  // (up front, then at batch-boundary granularity).
  if (context() != nullptr) {
    XNFDB_RETURN_IF_ERROR(context()->Check());
  }
  XNFDB_RETURN_IF_ERROR(EnsureRows(g));
  g->keys.Reset(static_cast<double>(g->rows.size()));
  g->key_rows.clear();
  g->index.Clear();
  Tuple& key = probe_key_;  // scratch: no probe is in flight during a build
  for (size_t i = 0; i < g->rows.size(); ++i) {
    if (context() != nullptr && i > 0 && (i % 1024) == 0) {
      XNFDB_RETURN_IF_ERROR(context()->Check());
    }
    key.clear();
    bool null_key = false;
    for (const qgm::Expr* k : g->equi_inner) {
      XNFDB_ASSIGN_OR_RETURN(Value v,
                             EvalExpr(*k, g->group_layout, g->rows.Row(i)));
      if (v.is_null()) null_key = true;
      key.push_back(std::move(v));
    }
    if (null_key) continue;
    if (context() != nullptr) {
      XNFDB_RETURN_IF_ERROR(context()->ReserveBytes(ApproxTupleBytes(key)));
    }
    const auto id = static_cast<uint32_t>(g->keys.Append(key));
    g->key_rows.push_back(static_cast<uint32_t>(i));
    g->index.Insert(HashRow(key), id, [&](uint32_t other) {
      return RowsEqual(g->keys.Row(other), key);
    });
  }
  g->index_built = true;
  return Status::Ok();
}

Result<bool> ExistsFilterOp::ResidualPasses(const GroupCheck& g,
                                            const Tuple& outer, RowView row) {
  if (g.residual.empty()) return true;
  combined_.clear();
  combined_.reserve(outer.size() + row.size());
  combined_.insert(combined_.end(), outer.begin(), outer.end());
  combined_.insert(combined_.end(), row.begin(), row.end());
  return AllPass(g.residual, g.combined_layout, combined_);
}

Result<bool> ExistsFilterOp::GroupMatches(GroupCheck* g, const Tuple& outer) {
  if (!g->equi_outer.empty() && !naive_) {
    XNFDB_RETURN_IF_ERROR(EnsureIndex(g));
    probe_key_.clear();
    for (const qgm::Expr* k : g->equi_outer) {
      XNFDB_ASSIGN_OR_RETURN(Value v, EvalExpr(*k, outer_layout_, outer));
      if (v.is_null()) return false;
      probe_key_.push_back(std::move(v));
    }
    uint32_t m = g->index.Find(HashRow(probe_key_), [&](uint32_t id) {
      return RowsEqual(g->keys.Row(id), probe_key_);
    });
    if (m == RowHashIndex::kNone) return false;
    if (g->residual.empty()) return true;
    for (; m != RowHashIndex::kNone; m = g->index.NextDuplicate(m)) {
      if (stats_ != nullptr) ++stats_->exists_probes;
      XNFDB_ASSIGN_OR_RETURN(
          bool pass, ResidualPasses(*g, outer, g->rows.Row(g->key_rows[m])));
      if (pass) return true;
    }
    return false;
  }
  // Naive path: scan every materialized group row (this is the per-outer-row
  // subquery execution the rewrite optimization eliminates).
  XNFDB_RETURN_IF_ERROR(EnsureRows(g));
  for (size_t r = 0; r < g->rows.size(); ++r) {
    if (stats_ != nullptr) ++stats_->exists_probes;
    RowView group_row = g->rows.Row(r);
    bool pass = true;
    // In naive mode, equi pairs are evaluated like ordinary predicates.
    for (size_t i = 0; i < g->equi_outer.size(); ++i) {
      XNFDB_ASSIGN_OR_RETURN(
          Value lv, EvalExpr(*g->equi_outer[i], outer_layout_, outer));
      XNFDB_ASSIGN_OR_RETURN(
          Value rv, EvalExpr(*g->equi_inner[i], g->group_layout, group_row));
      Value eq = Value::Compare(lv, rv, CompareOp::kEq);
      if (eq.is_null() || !eq.AsBool()) {
        pass = false;
        break;
      }
    }
    if (pass) {
      XNFDB_ASSIGN_OR_RETURN(pass, ResidualPasses(*g, outer, group_row));
    }
    if (pass) return true;
  }
  return false;
}

Result<bool> ExistsFilterOp::RowPasses(const Tuple& row) {
  if (disjunctive_) {
    bool pass = groups_.empty();
    for (GroupCheck& g : groups_) {
      XNFDB_ASSIGN_OR_RETURN(bool match, GroupMatches(&g, row));
      if (match != g.negated) {
        pass = true;
        break;
      }
    }
    return pass;
  }
  for (GroupCheck& g : groups_) {
    XNFDB_ASSIGN_OR_RETURN(bool match, GroupMatches(&g, row));
    if (match == g.negated) return false;
  }
  return true;
}

Result<bool> ExistsFilterOp::NextBatchImpl(TupleBatch* out) {
  XNFDB_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
  if (!more) return false;
  std::vector<uint32_t>& sel = out->sel();
  size_t kept = 0;
  for (size_t i = 0; i < sel.size(); ++i) {
    XNFDB_ASSIGN_OR_RETURN(bool pass, RowPasses(out->rows()[sel[i]]));
    if (pass) sel[kept++] = sel[i];
  }
  sel.resize(kept);
  return true;
}

// --- set operations ---------------------------------------------------------------

Status UnionOp::OpenImpl() {
  for (auto& c : children_) XNFDB_RETURN_IF_ERROR(c->Open());
  current_ = 0;
  return Status::Ok();
}

Result<bool> UnionOp::NextBatchImpl(TupleBatch* out) {
  while (current_ < children_.size()) {
    XNFDB_ASSIGN_OR_RETURN(bool more, children_[current_]->NextBatch(out));
    if (more) return true;
    ++current_;
  }
  return false;
}

// --- aggregation ------------------------------------------------------------------

namespace {

struct AggState {
  int64_t count = 0;
  Value sum;
  Value min;
  Value max;
  double dsum = 0;
  bool any = false;
};

}  // namespace

Status AggOp::OpenImpl() {
  XNFDB_RETURN_IF_ERROR(child_->Open());
  results_.clear();
  pos_ = 0;

  // group key -> (representative row, per-spec aggregate state)
  std::map<std::vector<std::string>, std::pair<Tuple, std::vector<AggState>>>
      groups;
  // Use an order-preserving map keyed by rendered values for determinism.
  // The input is consumed whole: pulled at the default batch size.
  TupleBatch batch(
      BatchCapacityFor(child_->estimated_rows(), kDefaultBatchSize));
  while (true) {
    XNFDB_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&batch));
    if (!more) break;
    for (size_t b = 0; b < batch.ActiveCount(); ++b) {
      const Tuple& row = batch.Active(b);
      std::vector<std::string> key;
      for (const qgm::Expr* gexpr : group_by_) {
        Result<Value> v = EvalExpr(*gexpr, layout_, row);
        if (!v.ok()) return v.status();
        key.push_back(v.value().ToString());
      }
      auto [it, inserted] =
          groups.try_emplace(std::move(key), row, std::vector<AggState>());
      if (inserted) {
        it->second.second.resize(specs_.size());
        // One representative row is retained per group.
        if (context() != nullptr) {
          Status s = context()->ReserveBytes(ApproxTupleBytes(row));
          if (!s.ok()) return s;
        }
      }
      std::vector<AggState>& states = it->second.second;
      for (size_t i = 0; i < specs_.size(); ++i) {
        const AggSpec& spec = specs_[i];
        if (!spec.is_agg) continue;
        AggState& st = states[i];
        Value v;
        if (spec.arg != nullptr) {
          Result<Value> r = EvalExpr(*spec.arg, layout_, row);
          if (!r.ok()) return r.status();
          v = r.value();
          if (v.is_null()) continue;  // aggregates skip NULLs
        }
        ++st.count;
        st.any = true;
        if (spec.arg != nullptr) {
          if (st.min.is_null() || v < st.min) st.min = v;
          if (st.max.is_null() || st.max < v) st.max = v;
          if (v.type() == DataType::kInt || v.type() == DataType::kDouble) {
            st.dsum += v.AsDouble();
            if (st.sum.is_null()) {
              st.sum = v;
            } else if (st.sum.type() == DataType::kInt &&
                       v.type() == DataType::kInt) {
              st.sum = Value(st.sum.AsInt() + v.AsInt());
            } else {
              st.sum = Value(st.sum.AsDouble() + v.AsDouble());
            }
          }
        }
      }
    }
  }

  // Global aggregation over an empty input still yields one row.
  if (groups.empty() && group_by_.empty() && !specs_.empty()) {
    bool all_aggs = true;
    for (const AggSpec& s : specs_) all_aggs &= s.is_agg;
    if (all_aggs) {
      groups[{}] = {Tuple(), std::vector<AggState>(specs_.size())};
    }
  }

  for (auto& [key, entry] : groups) {
    auto& [rep, states] = entry;
    Tuple out;
    out.reserve(specs_.size());
    for (size_t i = 0; i < specs_.size(); ++i) {
      const AggSpec& spec = specs_[i];
      if (!spec.is_agg) {
        Result<Value> v = EvalExpr(*spec.group_expr, layout_, rep);
        if (!v.ok()) return v.status();
        out.push_back(v.value());
        continue;
      }
      const AggState& st = states[i];
      if (spec.func == "COUNT") {
        out.push_back(Value(st.count));
      } else if (spec.func == "SUM") {
        out.push_back(st.sum);
      } else if (spec.func == "MIN") {
        out.push_back(st.min);
      } else if (spec.func == "MAX") {
        out.push_back(st.max);
      } else if (spec.func == "AVG") {
        out.push_back(st.count == 0 ? Value::Null()
                                    : Value(st.dsum / st.count));
      } else {
        return Status::Unsupported("aggregate function " + spec.func);
      }
    }
    results_.push_back(std::move(out));
  }
  return Status::Ok();
}

Result<bool> AggOp::NextBatchImpl(TupleBatch* out) {
  while (pos_ < results_.size() && !out->Full()) {
    out->AppendRow() = results_[pos_++];
  }
  return !out->Empty();
}


// --- EXPLAIN rendering ---------------------------------------------------------

void ExplainLine(int depth, const std::string& text, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(text);
  out->push_back('\n');
}

namespace {

std::string RenderExprs(const std::vector<const qgm::Expr*>& exprs) {
  std::string s;
  for (size_t i = 0; i < exprs.size(); ++i) {
    if (i > 0) s += " AND ";
    s += exprs[i]->ToString(nullptr);
  }
  return s;
}

}  // namespace

void ScanOp::ExplainImpl(int depth, std::string* out) const {
  std::string line = "Scan(" + table_->name() + ")";
  if (filtered_ > 0) {
    line += " key_filter(dropped=" + std::to_string(filtered_) + ")";
  }
  SelfLine(depth, line, out);
}

void VirtualScanOp::ExplainImpl(int depth, std::string* out) const {
  SelfLine(depth, "VirtualScan(" + provider_->name() + ")", out);
}

void IndexScanOp::ExplainImpl(int depth, std::string* out) const {
  SelfLine(depth,
              "IndexScan(" + table_->name() + "." +
                  table_->schema().column(column_).name + " = " +
                  key_.ToString() + ")",
              out);
}

void RangeScanOp::ExplainImpl(int depth, std::string* out) const {
  std::string range;
  if (lo_.has_value()) {
    range += lo_->ToString() + (lo_inclusive_ ? " <= " : " < ");
  }
  range += table_->name() + "." + table_->schema().column(column_).name;
  if (hi_.has_value()) {
    range += (hi_inclusive_ ? " <= " : " < ") + hi_->ToString();
  }
  SelfLine(depth, "RangeScan(" + range + ")", out);
}

void SpoolReadOp::ExplainImpl(int depth, std::string* out) const {
  std::lock_guard<std::mutex> lock(spool_->mu);
  SelfLine(depth,
           spool_->producers.empty() && spool_->status.ok()
               ? "SpoolRead(" + std::to_string(spool_->rows.size()) + " rows)"
               : std::string("SpoolRead(not built)"),
           out);
}

void MatViewScanOp::ExplainImpl(int depth, std::string* out) const {
  SelfLine(depth,
           "MatViewScan(matview=" + view_name_ + ", " +
               std::to_string(rows_->size()) + " rows)",
           out);
}

void FilterOp::ExplainImpl(int depth, std::string* out) const {
  SelfLine(depth, "Filter(" + RenderExprs(preds_) + ")", out);
  child_->Explain(depth + 1, out);
}

void ProjectOp::ExplainImpl(int depth, std::string* out) const {
  SelfLine(depth, "Project(" + std::to_string(exprs_.size()) + " cols)",
              out);
  child_->Explain(depth + 1, out);
}

void DistinctOp::ExplainImpl(int depth, std::string* out) const {
  SelfLine(depth, "Distinct", out);
  child_->Explain(depth + 1, out);
}

void SortOp::ExplainImpl(int depth, std::string* out) const {
  std::string keys;
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) keys += ", ";
    keys += "#" + std::to_string(keys_[i].first) +
            (keys_[i].second ? " DESC" : "");
  }
  SelfLine(depth, "Sort(" + keys + ")", out);
  child_->Explain(depth + 1, out);
}

void LimitOp::ExplainImpl(int depth, std::string* out) const {
  std::string line = "Limit(" + std::to_string(limit_);
  if (offset_ > 0) line += " offset " + std::to_string(offset_);
  line += ")";
  SelfLine(depth, line, out);
  child_->Explain(depth + 1, out);
}

void HashJoinOp::ExplainImpl(int depth, std::string* out) const {
  std::string keys;
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    if (i > 0) keys += ", ";
    keys += left_keys_[i]->ToString(nullptr) + " = " +
            right_keys_[i]->ToString(nullptr);
  }
  std::string line = "HashJoin(" + keys + ")";
  if (!residual_.empty()) line += " residual(" + RenderExprs(residual_) + ")";
  SelfLine(depth, line, out);
  left_->Explain(depth + 1, out);
  right_->Explain(depth + 1, out);
}

void NLJoinOp::ExplainImpl(int depth, std::string* out) const {
  SelfLine(depth, "NestedLoopJoin(" + RenderExprs(preds_) + ")", out);
  left_->Explain(depth + 1, out);
  right_->Explain(depth + 1, out);
}

void ExistsFilterOp::ExplainImpl(int depth, std::string* out) const {
  std::string line = "ExistsFilter(";
  line += std::to_string(groups_.size());
  line += disjunctive_ ? " group(s), ANY" : " group(s), ALL";
  if (naive_) line += ", naive";
  line += ")";
  SelfLine(depth, line, out);
  for (const GroupCheck& g : groups_) {
    ExplainLine(depth + 1,
                std::string(g.negated ? "anti-" : "") + "group " +
                    (g.op == nullptr ? "over " + std::to_string(g.rows.size()) +
                                           " materialized rows, "
                                     : std::string("not built, ")) +
                    std::to_string(g.equi_outer.size()) + " hash key(s)",
                out);
  }
  child_->Explain(depth + 1, out);
}

void UnionOp::ExplainImpl(int depth, std::string* out) const {
  SelfLine(depth, "Union", out);
  for (const OperatorPtr& c : children_) c->Explain(depth + 1, out);
}

void AggOp::ExplainImpl(int depth, std::string* out) const {
  std::string aggs;
  for (const AggSpec& spec : specs_) {
    if (!spec.is_agg) continue;
    if (!aggs.empty()) aggs += ", ";
    aggs += spec.func;
  }
  SelfLine(depth,
              "Aggregate(" + std::to_string(group_by_.size()) +
                  " group col(s); " + aggs + ")",
              out);
  child_->Explain(depth + 1, out);
}

}  // namespace xnfdb
