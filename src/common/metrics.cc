#include "common/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <thread>

namespace dslog {
namespace metrics {

namespace {

// Stable JSON string escaping (metric names are ASCII identifiers today,
// but a stray quote must not corrupt the document).
std::string JsonQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
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
  out += '"';
  return out;
}

std::string I64(int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

}  // namespace

size_t Counter::ShardIndex() noexcept {
  // One shard per thread for the process lifetime; the counter of new
  // thread ids spreads threads across shards without hashing the opaque
  // std::thread::id each Add.
  static std::atomic<size_t> next_shard{0};
  thread_local const size_t shard =
      next_shard.fetch_add(1, std::memory_order_relaxed) %
      static_cast<size_t>(kCounterShards);
  return shard;
}

int64_t HistogramSnapshot::Quantile(double q) const {
  if (count <= 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample, 1-based; walk buckets until reached.
  int64_t rank = static_cast<int64_t>(q * static_cast<double>(count - 1)) + 1;
  int64_t seen = 0;
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    seen += buckets[static_cast<size_t>(b)];
    if (seen >= rank) return Histogram::BucketLowerBound(b);
  }
  return Histogram::BucketLowerBound(Histogram::kBuckets - 1);
}

namespace {

template <typename Vec>
const typename Vec::value_type* FindByName(const Vec& v,
                                           std::string_view name) {
  for (const auto& e : v)
    if (e.name == name) return &e;
  return nullptr;
}

}  // namespace

const CounterSnapshot* RegistrySnapshot::FindCounter(
    std::string_view name) const {
  return FindByName(counters, name);
}

const CounterSnapshot* RegistrySnapshot::FindGauge(
    std::string_view name) const {
  return FindByName(gauges, name);
}

const HistogramSnapshot* RegistrySnapshot::FindHistogram(
    std::string_view name) const {
  return FindByName(histograms, name);
}

int64_t RegistrySnapshot::CounterValue(std::string_view name) const {
  const CounterSnapshot* c = FindCounter(name);
  return c != nullptr ? c->value : 0;
}

std::string RegistrySnapshot::ToJson() const {
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& c : counters) {
    if (!first) out += ", ";
    first = false;
    out += JsonQuote(c.name) + ": " + I64(c.value);
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& g : gauges) {
    if (!first) out += ", ";
    first = false;
    out += JsonQuote(g.name) + ": " + I64(g.value);
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& h : histograms) {
    if (!first) out += ", ";
    first = false;
    out += JsonQuote(h.name) + ": {\"count\": " + I64(h.count) +
           ", \"sum\": " + I64(h.sum) + ", \"max\": " + I64(h.max) +
           ", \"p50\": " + I64(h.Quantile(0.5)) +
           ", \"p95\": " + I64(h.Quantile(0.95)) +
           ", \"p99\": " + I64(h.Quantile(0.99)) + ", \"buckets\": [";
    bool first_bucket = true;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      int64_t n = h.buckets[static_cast<size_t>(b)];
      if (n == 0) continue;
      if (!first_bucket) out += ", ";
      first_bucket = false;
      out.append("[").append(I64(Histogram::BucketLowerBound(b)));
      out.append(", ").append(I64(n)).append("]");
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string RegistrySnapshot::ToText() const {
  std::string out;
  for (const auto& c : counters)
    out += "counter   " + c.name + " = " + I64(c.value) + "\n";
  for (const auto& g : gauges)
    out += "gauge     " + g.name + " = " + I64(g.value) + "\n";
  for (const auto& h : histograms) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "histogram %s: count=%" PRId64 " sum=%" PRId64
                  " mean=%.1f p50=%" PRId64 " p95=%" PRId64 " max=%" PRId64
                  "\n",
                  h.name.c_str(), h.count, h.sum, h.Mean(), h.Quantile(0.5),
                  h.Quantile(0.95), h.max);
    out += buf;
  }
  return out;
}

Registry& Registry::Global() {
  // Leaked on purpose: metric references handed out to static locals in
  // instrumented code must outlive every destructor.
  static Registry* g = new Registry();
  return *g;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

RegistrySnapshot Registry::Snapshot() const {
  RegistrySnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_)
    snap.counters.push_back({name, c->Value()});
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_)
    snap.gauges.push_back({name, g->Value()});
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.count = h->count();
    hs.sum = h->sum();
    hs.max = h->max();
    for (int b = 0; b < Histogram::kBuckets; ++b)
      hs.buckets[static_cast<size_t>(b)] = h->bucket(b);
    snap.histograms.push_back(std::move(hs));
  }
  return snap;  // maps iterate name-sorted, so snapshots are too
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

}  // namespace metrics
}  // namespace dslog
