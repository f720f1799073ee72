// Process-wide metrics: named counters, gauges and fixed-bucket latency
// histograms behind one registry.
//
// Design goals, in order:
//  * increments are lock-free (relaxed atomics) — instrumenting a hot loop
//    (cursor fetches, operator Next calls) must not serialize it;
//  * handles are stable — `GetCounter` returns a pointer that stays valid
//    for the life of the registry, so call sites can cache it in a
//    function-local static and skip the name lookup entirely;
//  * one snapshot captures the whole system — `ToJson` / `ToPrometheusText`
//    render every metric registered by any subsystem (executor, CO cache,
//    env I/O, server-call model), which is what `Database::MetricsJson`
//    exposes and what `scripts/bench.sh` embeds into BENCH_*.json.
//
// Naming scheme: lowercase dot-separated `<subsystem>.<metric>`, e.g.
// `exec.rows_scanned`, `cache.cursor.fetches`, `env.syncs`,
// `phase.parse.us`, `server.calls`. Dots become underscores in the
// Prometheus exposition.

#ifndef XNFDB_OBS_METRICS_H_
#define XNFDB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace xnfdb {
namespace obs {

// Monotonically increasing 64-bit counter.
// Escapes `s` for use inside a JSON string literal (metrics and trace
// exposition, log lines).
std::string JsonEscape(const std::string& s);

class Counter {
 public:
  void Increment(int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Last-value gauge.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Point-in-time copy of one histogram, mergeable across histograms with the
// same bounds (e.g. per-worker or per-bench snapshots).
struct HistogramSnapshot {
  std::vector<int64_t> bounds;   // inclusive upper bounds, ascending
  std::vector<int64_t> buckets;  // bounds.size() + 1 (last = overflow)
  int64_t count = 0;
  int64_t sum = 0;

  // Adds `other` into this snapshot. Bounds must match.
  void Merge(const HistogramSnapshot& other);
  // The q-quantile (q in [0,1]), linearly interpolated within the covering
  // bucket (observations are assumed uniform across a bucket); quantiles
  // landing in the overflow bucket report the largest bound + 1. 0 when
  // empty.
  int64_t Quantile(double q) const;
};

// Fixed-bucket histogram. Buckets are inclusive upper bounds; one implicit
// overflow bucket catches everything above the last bound. Observations and
// bucketing are lock-free; the binary search is over an immutable bounds
// vector.
class Histogram {
 public:
  explicit Histogram(std::vector<int64_t> bounds);

  // Default latency buckets, in microseconds: 1µs .. ~10s, quasi-log scale.
  static const std::vector<int64_t>& DefaultLatencyBoundsUs();

  void Observe(int64_t value);

  const std::vector<int64_t>& bounds() const { return bounds_; }
  HistogramSnapshot Snapshot() const;
  void Reset();

 private:
  std::vector<int64_t> bounds_;
  std::vector<std::atomic<int64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

// Full-registry snapshot: plain values, detached from the live atomics.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  std::string ToJson() const;
  std::string ToPrometheusText() const;
};

// The registry. Registration takes a mutex; returned handles increment
// lock-free. Handles stay valid for the registry's lifetime (metrics are
// never unregistered; Reset zeroes values in place).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry every subsystem reports into by default.
  static MetricsRegistry& Default();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  // `bounds` applies only when the histogram does not exist yet; empty
  // selects DefaultLatencyBoundsUs().
  Histogram* GetHistogram(const std::string& name,
                          std::vector<int64_t> bounds = {});

  MetricsSnapshot Snapshot() const;
  std::string ToJson() const { return Snapshot().ToJson(); }
  std::string ToPrometheusText() const {
    return Snapshot().ToPrometheusText();
  }

  // Zeroes every registered metric (handles stay valid).
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace xnfdb

#endif  // XNFDB_OBS_METRICS_H_
