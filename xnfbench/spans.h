// In-memory span recording for the traced run.
//
// A span is one timed call into an xnfdb layer, made from the benchmark's
// own code: name, start, end, the span that was open when it began
// (parent), the benchmark op it belongs to, and optionally a count of the
// work it did (rows visited), so that ratios are taken where the work
// happens. Spans stay in memory while the run measures and are written out
// when it ends. A layer's self time is its span's duration minus the part
// of that interval its child spans cover.

#ifndef XNFBENCH_SPANS_H_
#define XNFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace xnfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;  // a string literal
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;    // index of the enclosing span, or -1
  int32_t op;        // benchmark op id
  int64_t count;     // work done inside the span; 0 when not counted
};

class SpanRecorder {
 public:
  // Opens a span under the innermost open one; returns its index.
  int Begin(const char* name, int op);
  // Closes span `id`, which must be the innermost open span.
  void End(int id);
  void SetCount(int id, int64_t count) { spans_[id].count = count; }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span, in recording order.
  std::vector<int64_t> SelfTimesNs() const;

  // Writes one line per span: name, start and end (ns, relative to the
  // first span), parent index, op id, count, self time.
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Opens a span for the lifetime of the scope; a null recorder records
// nothing, so untraced code paths pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, int op)
      : rec_(rec), id_(rec != nullptr ? rec->Begin(name, op) : -1) {}
  ~ScopedSpan() { End(); }
  void End() {
    if (rec_ != nullptr && id_ >= 0) rec_->End(id_);
    id_ = -1;
  }
  void SetCount(int64_t count) {
    if (rec_ != nullptr && id_ >= 0) rec_->SetCount(id_, count);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace xnfbench

#endif  // XNFBENCH_SPANS_H_
