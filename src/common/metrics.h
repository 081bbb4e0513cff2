// Process-wide metrics registry: named counters, gauges, and log2-bucket
// histograms behind one global lookup, exported as text or JSON and
// stamped into every BENCH_*.json document (bench/bench_util.cc). This is
// the always-on half of the observability layer (common/trace.h is the
// opt-in half): instruments record at *coarse* granularity — per query,
// per hop, per pool task, per segment resolution — never inside a join
// inner loop, so the steady-state cost is a handful of relaxed atomic
// increments per query.
//
// Write-side contract:
//   - Counter::Add is a relaxed fetch_add on one of a small set of
//     cache-line-padded shards picked by thread, so concurrent writers
//     (server workers, batch entries) do not bounce one cache line.
//   - Histogram::Record is a relaxed increment of one log2 bucket plus
//     relaxed sum/count updates.
//   - Lookup (Registry::counter("name")) takes a mutex; call sites cache
//     the returned reference in a function-local static so steady state
//     never touches the registry lock.
//
// Read-side contract: Snapshot() loads every cell with relaxed ordering.
// Totals are eventually consistent — a snapshot racing writers may miss
// in-flight increments but never tears a single counter (64-bit atomics).
// Exact, invariant-preserving statistics (e.g. LogStoreStats) keep their
// own per-shard synchronized counters and only mirror into the registry.

#ifndef DSLOG_COMMON_METRICS_H_
#define DSLOG_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dslog {
namespace metrics {

/// Shards per counter. Sized for the fixed query pool (thread id hashes
/// pick a shard); more shards buy nothing once writers stop contending.
inline constexpr int kCounterShards = 8;

/// Monotonic (under Reset) sharded counter.
class Counter {
 public:
  void Add(int64_t delta) noexcept {
    shards_[ShardIndex()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() noexcept { Add(1); }

  /// Relaxed sum over the shards (eventually consistent under writers).
  int64_t Value() const noexcept {
    int64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  void Reset() noexcept {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  static size_t ShardIndex() noexcept;

  struct alignas(64) Shard {
    std::atomic<int64_t> v{0};
  };
  std::array<Shard, kCounterShards> shards_;
};

/// Last-writer-wins instantaneous value (queue depths, cache bytes).
class Gauge {
 public:
  void Set(int64_t value) noexcept {
    v_.store(value, std::memory_order_relaxed);
  }
  void Add(int64_t delta) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void Reset() noexcept { Set(0); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Log2-bucket histogram over non-negative int64 values: bucket b counts
/// values v with bit_width(v) == b (bucket 0 counts v <= 0), so bucket b
/// covers [2^(b-1), 2^b - 1]. 64 buckets cover the whole int64 range —
/// fine-grained enough for latency-in-µs and queue-depth distributions.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(int64_t value) noexcept {
    buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value > 0 ? value : 0, std::memory_order_relaxed);
    // Racy max: good enough for an observability high-water mark.
    int64_t prev = max_.load(std::memory_order_relaxed);
    while (value > prev &&
           !max_.compare_exchange_weak(prev, value,
                                       std::memory_order_relaxed)) {
    }
  }

  static int BucketFor(int64_t value) noexcept {
    if (value <= 0) return 0;
    int b = 0;
    uint64_t v = static_cast<uint64_t>(value);
    while (v != 0) {
      v >>= 1;
      ++b;
    }
    return b;  // bit_width, in [1, 63] for positive values
  }

  /// Inclusive lower bound of bucket `b` (0 for the zero bucket).
  static int64_t BucketLowerBound(int b) noexcept {
    return b <= 0 ? 0 : int64_t{1} << (b - 1);
  }

  void Reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

  int64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  int64_t sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  int64_t max() const noexcept { return max_.load(std::memory_order_relaxed); }
  int64_t bucket(int b) const noexcept {
    return buckets_[static_cast<size_t>(b)].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<int64_t>, kBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> max_{0};
};

// ------------------------------------------------------------- snapshots --

struct CounterSnapshot {
  std::string name;
  int64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  int64_t count = 0;
  int64_t sum = 0;
  int64_t max = 0;
  std::array<int64_t, Histogram::kBuckets> buckets{};

  /// Value at quantile q in [0, 1], resolved to the lower bound of the
  /// bucket containing that rank (a conservative estimate).
  int64_t Quantile(double q) const;
  double Mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
};

/// Point-in-time copy of the whole registry (relaxed loads; see header
/// comment for the consistency contract). Name-sorted for stable output.
struct RegistrySnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<CounterSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  const CounterSnapshot* FindCounter(std::string_view name) const;
  const CounterSnapshot* FindGauge(std::string_view name) const;
  const HistogramSnapshot* FindHistogram(std::string_view name) const;
  /// Counter value by name, 0 when absent (the common delta idiom).
  int64_t CounterValue(std::string_view name) const;

  /// One JSON object: {"counters": {...}, "gauges": {...}, "histograms":
  /// {"name": {"count": c, "sum": s, "max": m, "p50": ..., "p95": ...,
  /// "buckets": [[lower_bound, count], ...nonzero only]}}.
  std::string ToJson() const;
  /// Human-readable multi-line dump (one metric per line).
  std::string ToText() const;
};

// -------------------------------------------------------------- registry --

/// Name -> metric map. Metrics are created on first lookup and never
/// removed, so references returned by counter()/gauge()/histogram() stay
/// valid for the process lifetime (cache them in static locals).
class Registry {
 public:
  static Registry& Global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  RegistrySnapshot Snapshot() const;

  /// Zeroes every registered metric (bench harnesses call this between
  /// sweep rows). Concurrent writers keep writing — the zero is relaxed
  /// per cell, like any other update.
  void Reset();

 private:
  mutable std::mutex mu_;  // guards the maps, never the metric cells
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace metrics
}  // namespace dslog

#endif  // DSLOG_COMMON_METRICS_H_
