#include "api/governor.h"

#include <chrono>

#include "common/crash.h"
#include "obs/flight_recorder.h"

namespace xnfdb {

Governor::Governor(GovernorOptions options, obs::MetricsRegistry* metrics)
    : options_(options),
      admitted_(metrics->GetCounter("governor.admitted")),
      queued_total_(metrics->GetCounter("governor.queued")),
      rejected_(metrics->GetCounter("governor.rejected")),
      completed_(metrics->GetCounter("governor.completed")),
      cancelled_(metrics->GetCounter("governor.cancelled")),
      timed_out_(metrics->GetCounter("governor.timed_out")),
      budget_exceeded_(metrics->GetCounter("governor.budget_exceeded")),
      failed_(metrics->GetCounter("governor.failed")),
      running_gauge_(metrics->GetGauge("governor.running")),
      queue_depth_gauge_(metrics->GetGauge("governor.queue_depth")),
      queue_wait_us_(metrics->GetHistogram("governor.queue_wait.us")) {}

void Governor::SetOptions(const GovernorOptions& options) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    options_ = options;
  }
  cv_.notify_all();  // waiters re-evaluate against the new capacity
}

GovernorOptions Governor::options() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_;
}

Result<int64_t> Governor::Admit(const std::string& text,
                                std::shared_ptr<QueryContext> ctx) {
  const int64_t t0 = QueryContext::NowUs();
  std::unique_lock<std::mutex> lock(mu_);
  const int64_t id = next_id_++;
  Entry& entry = entries_[id];
  entry.text = text;
  entry.ctx = ctx;

  bool was_queued = false;
  while (options_.max_concurrent > 0 && running_ >= options_.max_concurrent) {
    if (!was_queued) {
      if (queued_ >= options_.max_queue) {
        entries_.erase(id);
        rejected_->Increment();
        // Under sustained overload running/queued sit at their caps, so
        // these events are byte-identical and coalesce in the recorder.
        obs::FlightRecorder::Default().Record(
            "governor", "warn", "admission rejected",
            "running=" + std::to_string(running_) +
                " queued=" + std::to_string(queued_));
        return Status::ResourceExhausted(
            "admission rejected: " + std::to_string(running_) +
            " queries running (cap " + std::to_string(options_.max_concurrent) +
            "), " + std::to_string(queued_) + " queued (cap " +
            std::to_string(options_.max_queue) + ")");
      }
      was_queued = true;
      ++queued_;
      queued_total_->Increment();
      queue_depth_gauge_->Set(queued_);
    }
    if (ctx->cancelled()) {
      --queued_;
      queue_depth_gauge_->Set(queued_);
      entries_.erase(id);
      cancelled_->Increment();
      return Status::Cancelled("query killed while queued for admission");
    }
    const int64_t deadline_us = ctx->limits().deadline_us;
    if (deadline_us != 0) {
      if (QueryContext::NowUs() > deadline_us) {
        --queued_;
        queue_depth_gauge_->Set(queued_);
        entries_.erase(id);
        timed_out_->Increment();
        return Status::DeadlineExceeded(
            "deadline expired after " +
            std::to_string(QueryContext::NowUs() - t0) +
            "us queued for admission");
      }
      cv_.wait_until(lock,
                     std::chrono::steady_clock::time_point(
                         std::chrono::microseconds(deadline_us)));
    } else {
      cv_.wait(lock);
    }
  }
  if (was_queued) {
    --queued_;
    queue_depth_gauge_->Set(queued_);
  }
  entry.running = true;
  ++running_;
  running_gauge_->Set(running_);
  admitted_->Increment();
  const int64_t wait_us = QueryContext::NowUs() - t0;
  queue_wait_us_->Observe(wait_us);
  ctx->set_queue_wait_us(wait_us);  // profile capture reads it at query end
  if (was_queued) {
    obs::FlightRecorder::Default().Record("governor", "info",
                                          "admitted after queue wait",
                                          "id=" + std::to_string(id));
  }
  RefreshCrashContextLocked();
  return id;
}

void Governor::Release(int64_t id, const Status& status) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end()) return;
    if (it->second.running) {
      --running_;
      running_gauge_->Set(running_);
    }
    entries_.erase(it);
    RefreshCrashContextLocked();
  }
  switch (status.code()) {
    case StatusCode::kOk:
      completed_->Increment();
      break;
    case StatusCode::kCancelled:
      cancelled_->Increment();
      break;
    case StatusCode::kDeadlineExceeded:
      timed_out_->Increment();
      break;
    case StatusCode::kResourceExhausted:
      budget_exceeded_->Increment();
      break;
    default:
      failed_->Increment();
      break;
  }
  cv_.notify_all();
}

Status Governor::Cancel(int64_t id) {
  std::shared_ptr<QueryContext> ctx;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end()) {
      return Status::NotFound("no live query with id " + std::to_string(id));
    }
    ctx = it->second.ctx;
  }
  ctx->Cancel();
  cv_.notify_all();  // a queued victim observes the flag and unwinds
  obs::FlightRecorder::Default().Record("governor", "warn", "query killed",
                                        "id=" + std::to_string(id));
  return Status::Ok();
}

std::string Governor::FormatLiveLocked() const {
  std::string out;
  for (const auto& [id, entry] : entries_) {
    out += "id=" + std::to_string(id);
    out += entry.running ? " state=running" : " state=queued";
    if (entry.ctx != nullptr) {
      out += " elapsed_us=" + std::to_string(entry.ctx->elapsed_us());
      out += " rows_out=" + std::to_string(entry.ctx->rows_produced());
      out += " bytes_reserved=" + std::to_string(entry.ctx->bytes_reserved());
      out += " ticks=" + std::to_string(entry.ctx->progress_ticks());
    }
    out += " text=" + entry.text + "\n";
  }
  return out;
}

void Governor::RefreshCrashContextLocked() const {
  if (!CrashHandlerInstalled()) return;
  SetCrashContextQueries(FormatLiveLocked());
}

std::vector<Governor::QueryInfo> Governor::Snapshot() const {
  std::vector<QueryInfo> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    QueryInfo info;
    info.id = id;
    info.state = entry.running ? "running" : "queued";
    info.text = entry.text;
    if (entry.ctx != nullptr) {
      info.elapsed_us = entry.ctx->elapsed_us();
      info.rows_out = entry.ctx->rows_produced();
      info.bytes_reserved = entry.ctx->bytes_reserved();
      info.progress_ticks = entry.ctx->progress_ticks();
      info.queue_wait_us = entry.ctx->queue_wait_us();
    }
    out.push_back(std::move(info));
  }
  return out;
}

int64_t Governor::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

int64_t Governor::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

namespace {

// SYS$QUERIES: one row per live (queued or running) query.
class QueriesProvider : public VirtualTableProvider {
 public:
  explicit QueriesProvider(const Governor* governor)
      : name_("SYS$QUERIES"),
        schema_(Schema(std::vector<Column>{{"ID", DataType::kInt},
                                           {"STATE", DataType::kString},
                                           {"TEXT", DataType::kString},
                                           {"ELAPSED_US", DataType::kInt},
                                           {"ROWS_OUT", DataType::kInt},
                                           {"BYTES_RESERVED", DataType::kInt},
                                           {"PROGRESS_TICKS", DataType::kInt},
                                           {"QUEUE_WAIT_US",
                                            DataType::kInt}})),
        governor_(governor) {}

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }

  Result<std::vector<Tuple>> Generate() const override {
    std::vector<Tuple> rows;
    for (const Governor::QueryInfo& q : governor_->Snapshot()) {
      rows.push_back(Tuple{Value(q.id), Value(q.state), Value(q.text),
                           Value(q.elapsed_us), Value(q.rows_out),
                           Value(q.bytes_reserved), Value(q.progress_ticks),
                           Value(q.queue_wait_us)});
    }
    return rows;
  }

  double EstimatedRows() const override { return 8.0; }

 private:
  std::string name_;
  Schema schema_;
  const Governor* governor_;
};

}  // namespace

std::unique_ptr<VirtualTableProvider> MakeQueriesProvider(
    const Governor* governor) {
  return std::make_unique<QueriesProvider>(governor);
}

}  // namespace xnfdb
