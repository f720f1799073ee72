#include "obs/trace.h"

#include <functional>
#include <sstream>
#include <thread>

#include "obs/metrics.h"

namespace xnfdb {
namespace obs {

namespace {

// Per-thread stack of open spans, shared across tracers (entries carry the
// owning tracer). RAII spans close in LIFO order; out-of-order closes of
// moved spans are handled by erasing the matching entry wherever it is.
struct OpenEntry {
  const Tracer* tracer;
  int64_t id;
};
thread_local std::vector<OpenEntry> open_spans;

uint64_t ThisThreadId() {
  return static_cast<uint64_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()));
}

}  // namespace

Span::Span(Tracer* tracer, std::string name) {
  if (tracer == nullptr || !tracer->enabled()) return;
  tracer_ = tracer;
  name_ = std::move(name);
  start_us_ = tracer->NowUs();
  id_ = tracer->OpenSpan(&parent_id_);
}

Span::Span(Span&& other) noexcept
    : tracer_(other.tracer_),
      name_(std::move(other.name_)),
      id_(other.id_),
      parent_id_(other.parent_id_),
      start_us_(other.start_us_) {
  other.tracer_ = nullptr;
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    End();
    tracer_ = other.tracer_;
    name_ = std::move(other.name_);
    id_ = other.id_;
    parent_id_ = other.parent_id_;
    start_us_ = other.start_us_;
    other.tracer_ = nullptr;
  }
  return *this;
}

void Span::End() {
  if (tracer_ == nullptr) return;
  SpanRecord record;
  record.name = std::move(name_);
  record.id = id_;
  record.parent_id = parent_id_;
  record.start_us = start_us_;
  record.dur_us = tracer_->NowUs() - start_us_;
  record.thread_id = ThisThreadId();
  // Pop this span from the open stack (normally the top).
  for (size_t i = open_spans.size(); i > 0; --i) {
    if (open_spans[i - 1].tracer == tracer_ && open_spans[i - 1].id == id_) {
      open_spans.erase(open_spans.begin() + static_cast<ptrdiff_t>(i - 1));
      break;
    }
  }
  tracer_->CloseSpan(std::move(record));
  tracer_ = nullptr;
}

int64_t Tracer::NowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int64_t Tracer::OpenSpan(int64_t* parent_out) {
  *parent_out = 0;
  for (size_t i = open_spans.size(); i > 0; --i) {
    if (open_spans[i - 1].tracer == this) {
      *parent_out = open_spans[i - 1].id;
      break;
    }
  }
  int64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  open_spans.push_back(OpenEntry{this, id});
  return id;
}

void Tracer::CloseSpan(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(record));
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

std::string Tracer::ChromeTraceJson() const {
  std::vector<SpanRecord> spans = Spans();
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (i > 0) out << ",";
    out << "{\"name\":\"" << JsonEscape(s.name) << "\",\"ph\":\"X\""
        << ",\"ts\":" << s.start_us << ",\"dur\":" << s.dur_us
        << ",\"pid\":1,\"tid\":" << (s.thread_id % 1000000)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent_id
        << "}}";
  }
  out << "]}";
  return out.str();
}

}  // namespace obs
}  // namespace xnfdb
