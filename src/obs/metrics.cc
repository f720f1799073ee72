#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace xnfdb {
namespace obs {

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (bounds.empty()) {
    *this = other;
    return;
  }
  if (other.bounds != bounds || other.buckets.size() != buckets.size()) {
    return;  // incompatible shapes: merging would misattribute counts
  }
  for (size_t i = 0; i < buckets.size(); ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum += other.sum;
}

int64_t HistogramSnapshot::Quantile(double q) const {
  if (count <= 0) return 0;
  double target = q * static_cast<double>(count);
  if (target < 1.0) target = 1.0;
  int64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    int64_t before = cumulative;
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) >= target) {
      if (i >= bounds.size()) {
        // Overflow bucket: no upper bound to interpolate against.
        return bounds.empty() ? 0 : bounds.back() + 1;
      }
      // Interpolate linearly within the covering bucket (lo, hi]: assume
      // observations are uniform across it, so the quantile sits at the
      // target rank's fraction of the bucket width — not snapped to the
      // bucket's upper bound.
      int64_t lo = i == 0 ? 0 : bounds[i - 1];
      int64_t hi = bounds[i];
      double frac = (target - static_cast<double>(before)) /
                    static_cast<double>(buckets[i]);
      return lo + static_cast<int64_t>(
                      frac * static_cast<double>(hi - lo) + 0.5);
    }
  }
  return bounds.empty() ? 0 : bounds.back() + 1;
}

Histogram::Histogram(std::vector<int64_t> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

const std::vector<int64_t>& Histogram::DefaultLatencyBoundsUs() {
  static const std::vector<int64_t> kBounds = {
      1,      2,      5,      10,      20,      50,      100,     200,
      500,    1000,   2000,   5000,    10000,   20000,   50000,   100000,
      200000, 500000, 1000000, 2000000, 5000000, 10000000};
  return kBounds;
}

void Histogram::Observe(int64_t value) {
  size_t i = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.buckets.reserve(buckets_.size());
  for (const auto& b : buckets_) {
    snap.buckets.push_back(b.load(std::memory_order_relaxed));
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

namespace {


std::string PromName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    out += (c == '.' || c == '-') ? '_' : c;
  }
  return out;
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out << ",";
    first = false;
    out << "\"" << JsonEscape(name) << "\":" << v;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out << ",";
    first = false;
    out << "\"" << JsonEscape(name) << "\":" << v;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out << ",";
    first = false;
    out << "\"" << JsonEscape(name) << "\":{\"count\":" << h.count
        << ",\"sum\":" << h.sum << ",\"p50\":" << h.Quantile(0.5)
        << ",\"p99\":" << h.Quantile(0.99) << ",\"buckets\":[";
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out << ",";
      out << "{\"le\":";
      if (i < h.bounds.size()) {
        out << h.bounds[i];
      } else {
        out << "\"+Inf\"";
      }
      out << ",\"count\":" << h.buckets[i] << "}";
    }
    out << "]}";
  }
  out << "}}";
  return out.str();
}

std::string MetricsSnapshot::ToPrometheusText() const {
  std::ostringstream out;
  for (const auto& [name, v] : counters) {
    std::string p = PromName(name);
    out << "# TYPE " << p << " counter\n" << p << " " << v << "\n";
  }
  for (const auto& [name, v] : gauges) {
    std::string p = PromName(name);
    out << "# TYPE " << p << " gauge\n" << p << " " << v << "\n";
  }
  for (const auto& [name, h] : histograms) {
    std::string p = PromName(name);
    out << "# TYPE " << p << " histogram\n";
    int64_t cumulative = 0;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      cumulative += h.buckets[i];
      out << p << "_bucket{le=\"";
      if (i < h.bounds.size()) {
        out << h.bounds[i];
      } else {
        out << "+Inf";
      }
      out << "\"} " << cumulative << "\n";
    }
    out << p << "_sum " << h.sum << "\n" << p << "_count " << h.count << "\n";
  }
  return out.str();
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never dies
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<int64_t> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    if (bounds.empty()) bounds = Histogram::DefaultLatencyBoundsUs();
    slot = std::make_unique<Histogram>(std::move(bounds));
  }
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = h->Snapshot();
  }
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) c->Reset();
  for (const auto& [name, g] : gauges_) g->Reset();
  for (const auto& [name, h] : histograms_) h->Reset();
}

}  // namespace obs
}  // namespace xnfdb
