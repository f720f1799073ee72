#include "spans.h"

#include <cstdio>

namespace xnfbench {

int SpanRecorder::Begin(const char* name, int op) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(
      Span{name, NowNs(), 0, open_.empty() ? -1 : open_.back(), op, 0});
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  spans_[id].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<int64_t> SpanRecorder::SelfTimesNs() const {
  // Children nest strictly inside their parent and never overlap each
  // other (one thread, stack discipline), so the covered part of a parent
  // is the sum of its children's durations.
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
  }
  return self;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> self = SelfTimesNs();
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "name\tstart_ns\tend_ns\tparent\top\tcount\tself_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\t%lld\t%lld\t%d\t%d\t%lld\t%lld\n", s.name,
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0), s.parent, s.op,
                 static_cast<long long>(s.count),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace xnfbench
