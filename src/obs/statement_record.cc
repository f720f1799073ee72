#include "obs/statement_record.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace xnfdb {
namespace obs {

namespace {

int64_t NowUnixUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

int64_t* ClassSlot(ClassTotals* totals, const std::string& op) {
  const char* cls = ClassifyOp(op);
  switch (cls[0]) {
    case 's': return &totals->scan_us;
    case 'j': return &totals->join_us;
    case 'f': return &totals->filter_us;
    default: return &totals->other_us;
  }
}

}  // namespace

std::string DigestHex(uint64_t digest) {
  static const char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = kHex[digest & 0xf];
    digest >>= 4;
  }
  return out;
}

std::string RewriteTrace::ToString() const {
  std::string out;
  char buf[256];
  int seq = 0;
  for (const RewriteEvent& e : events) {
    std::snprintf(buf, sizeof(buf),
                  "  #%-3d pass=%d %-24s %-8s rejected=%lld boxes=%d->%d "
                  "%lldus\n",
                  ++seq, e.pass, e.rule.c_str(),
                  e.fired ? "fired" : "no-match",
                  static_cast<long long>(e.rejected), e.boxes_before,
                  e.boxes_after, static_cast<long long>(e.wall_us));
    out += buf;
  }
  if (dropped > 0) {
    std::snprintf(buf, sizeof(buf), "  (+%lld events dropped)\n",
                  static_cast<long long>(dropped));
    out += buf;
  }
  return out;
}

const char* ClassifyOp(const std::string& op) {
  if (op == "scan" || op == "index_scan" || op == "range_scan" ||
      op == "virtual_scan" || op == "spool_read") {
    return "scan";
  }
  if (op == "hash_join" || op == "nl_join") return "join";
  if (op == "filter" || op == "exists") return "filter";
  return "other";
}

double QError(double est, double actual) {
  double e = std::max(est, 1.0);
  double a = std::max(actual, 1.0);
  return std::max(e / a, a / e);
}

StatementRecordStore::PlanChange StatementRecordStore::Record(
    StatementSample& s, OpFeedback* top_misestimate) {
  const int64_t now_us = s.planned ? NowUnixUs() : 0;
  PlanChange change;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(s.digest);
  if (it == entries_.end()) {
    if (entries_.size() >= capacity_) {
      ++dropped_;
      return change;
    }
    it = entries_.try_emplace(s.digest).first;
    it->second.rec.digest = s.digest;
    it->second.rec.text = s.text;
    it->second.rec.kind = s.kind;
  }
  Entry& e = it->second;
  StatementRecord& r = e.rec;

  ++r.calls;
  if (!s.ok) ++r.errors;
  r.rows += s.rows;
  r.total_us += s.elapsed_us;
  if (r.calls == 1 || s.elapsed_us < r.min_us) r.min_us = s.elapsed_us;
  if (s.elapsed_us > r.max_us) r.max_us = s.elapsed_us;
  e.latency.Observe(s.elapsed_us);

  if (s.compiled) r.trace = std::move(s.trace);

  if (s.profiled) {
    ++r.captures;
    for (const OpProfile& op : s.profile.ops) {
      *ClassSlot(&r.self, op.op) += op.self_us;
    }
    r.last_profile = std::move(s.profile);
  }

  if (s.planned) {
    ++r.executions;
    change.executions = r.executions;
    // Cardinality feedback: keep the max_ops_ worst q-errors seen so far,
    // replacing a prior entry for the same (output, op) slot with whichever
    // observation is worse.
    for (OpFeedback& f : s.feedback) {
      if (f.est_rows < 0) continue;  // no estimate to compare
      auto w = std::find_if(r.worst.begin(), r.worst.end(),
                            [&](const OpFeedback& o) {
                              return o.output == f.output && o.op == f.op;
                            });
      if (w == r.worst.end()) {
        r.worst.push_back(std::move(f));
      } else if (f.q_error > w->q_error) {
        *w = std::move(f);
      }
    }
    std::sort(r.worst.begin(), r.worst.end(),
              [](const OpFeedback& a, const OpFeedback& b) {
                return a.q_error > b.q_error;
              });
    if (r.worst.size() > max_ops_) r.worst.resize(max_ops_);

    // Plan history.
    if (e.has_plan && r.current_plan != s.plan_hash) {
      change.changed = true;
      change.matview = e.current_is_matview || s.plan_is_matview;
      change.from = r.current_plan;
      change.to = s.plan_hash;
    }
    r.current_plan = s.plan_hash;
    e.has_plan = true;
    e.current_is_matview = s.plan_is_matview;
    auto rec = std::find_if(
        r.plans.begin(), r.plans.end(),
        [&](const PlanRecord& p) { return p.plan_hash == s.plan_hash; });
    if (rec == r.plans.end()) {
      if (r.plans.size() >= max_plans_) {
        // Evict the plan least recently seen.
        r.plans.erase(std::min_element(
            r.plans.begin(), r.plans.end(),
            [](const PlanRecord& a, const PlanRecord& b) {
              return a.last_seen_us < b.last_seen_us;
            }));
      }
      PlanRecord fresh;
      fresh.plan_hash = s.plan_hash;
      fresh.shape = std::move(s.plan_shape);
      fresh.first_seen_us = now_us;
      r.plans.push_back(std::move(fresh));
      rec = r.plans.end() - 1;
    }
    rec->last_seen_us = now_us;
    ++rec->executions;
    rec->total_execute_us += s.execute_us;
  }

  if (top_misestimate != nullptr) {
    *top_misestimate = r.worst.empty() ? OpFeedback{} : r.worst.front();
  }
  return change;
}

bool StatementRecordStore::Stats(uint64_t digest, int64_t* calls,
                                 int64_t* avg_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(digest);
  if (it == entries_.end()) return false;
  const StatementRecord& r = it->second.rec;
  if (calls != nullptr) *calls = r.calls;
  if (avg_us != nullptr) *avg_us = r.avg_us();
  return true;
}

std::vector<StatementRecord> StatementRecordStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StatementRecord> out;
  out.reserve(entries_.size());
  for (const auto& [digest, e] : entries_) {
    out.push_back(e.rec);
    out.back().digest_hex = DigestHex(digest);
    out.back().latency = e.latency.Snapshot();
  }
  return out;
}

size_t StatementRecordStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

int64_t StatementRecordStore::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void StatementRecordStore::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  dropped_ = 0;
}

}  // namespace obs
}  // namespace xnfdb
