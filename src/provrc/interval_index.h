// Sorted interval index: rows ordered by interval lo with an implicit
// binary tree of subtree max-hi bounds, so a probe enumerates exactly the
// overlapping rows in O(log n + hits) instead of scanning the table. This
// is the per-table index behind the indexed θ-join kernels (§V.B step 1):
// the sort is paid once per table and shared by every query against it,
// not once per join.
//
// Beyond the tree probe, the sorted columns support two vectorized access
// paths (common/simd.h) a probe can be served by:
//   kIndexProbe  — the pruned tree descent: O(log n + hits), the win when
//                  few rows overlap.
//   kSortedSweep — binary-search the lo-prefix with lo <= probe.hi, then a
//                  SIMD filter of that prefix on hi >= probe.lo.
//   kFullScan    — one SIMD overlap filter over all n sorted entries; no
//                  search, no tree, peak throughput when most rows hit.
// All three emit the same rows in the same (ascending-position, i.e.
// nondecreasing-lo) order, so results built from them are bit-identical —
// the θ-join planner (query/join_planner.h) may pick per probe freely.
//
// The index stores row *ids*, not bytes: it works identically over an
// owned CompressedTable arena and over a CompressedTableView borrowed from
// an mmap'd LogStore segment (the caller owns keeping the columns alive).

#ifndef DSLOG_PROVRC_INTERVAL_INDEX_H_
#define DSLOG_PROVRC_INTERVAL_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/simd.h"
#include "provrc/interval.h"

namespace dslog {

/// How a probe enumerates the index (see the header comment). The planner
/// chooses one per probe; every path yields identical emissions.
enum class AccessPath : uint8_t {
  kIndexProbe = 0,
  kSortedSweep = 1,
  kFullScan = 2,
};

/// Summary statistics of one interval column (the θ-join probe column).
/// Computed exactly at index build time, persisted per segment in the
/// LogStore footer, and consumed by the join planner's cost model.
struct IntervalColumnStats {
  int64_t row_count = -1;  // -1 = unknown
  int64_t min_lo = 0;
  int64_t max_lo = 0;
  int64_t max_hi = -1;
  int64_t sum_width = -1;  // sum over rows of (hi - lo + 1); -1 = unknown

  bool valid() const { return row_count >= 0 && sum_width >= 0; }
  double avg_width() const {
    return row_count > 0 ? static_cast<double>(sum_width) /
                               static_cast<double>(row_count)
                         : 0.0;
  }
};

class IntervalIndex {
 public:
  IntervalIndex() = default;

  /// Builds over `n` intervals read from strided columns: interval r is
  /// [lo[r * stride], hi[r * stride]]. Pass stride = 1 for a dense array.
  IntervalIndex(const int64_t* lo, const int64_t* hi, int64_t n,
                int64_t stride);

  int64_t size() const { return static_cast<int64_t>(lo_.size()); }
  bool empty() const { return lo_.empty(); }

  /// Exact stats of the indexed column (valid() is false when empty).
  const IntervalColumnStats& stats() const { return stats_; }

  // Sorted columns (ascending lo) and the row id at each sorted position —
  // the arrays the sweep/scan filters and the planner read directly.
  const int64_t* sorted_lo() const { return lo_.data(); }
  const int64_t* sorted_hi() const { return hi_.data(); }
  const int64_t* row_ids() const { return row_.data(); }

  /// Approximate resident bytes (decode-cache charge accounting).
  int64_t bytes() const {
    return static_cast<int64_t>(
        sizeof(*this) + (lo_.capacity() + hi_.capacity() + row_.capacity() +
                         tree_.capacity()) *
                            sizeof(int64_t));
  }

  /// Calls fn(row_id) for every indexed interval intersecting `probe`, in
  /// nondecreasing-lo order. Each overlapping row is emitted exactly once.
  /// (The tree-probe path; equivalent to ForEachOverlapping with
  /// AccessPath::kIndexProbe.)
  template <typename Fn>
  void ForEachOverlapping(const Interval& probe, Fn&& fn) const {
    if (lo_.empty() || probe.hi < lo_.front()) return;
    Visit(1, 0, leaf_count_, probe, fn);
  }

  /// Path-dispatched overlap enumeration: identical emissions to the
  /// two-argument overload for every path. The sweep/scan paths compact
  /// candidate positions into `*scratch` (resized as needed, reused across
  /// calls) with the SIMD filters before invoking fn.
  template <typename Fn>
  void ForEachOverlapping(const Interval& probe, AccessPath path,
                          std::vector<int32_t>* scratch, Fn&& fn) const {
    if (lo_.empty() || probe.hi < lo_.front()) return;
    switch (path) {
      case AccessPath::kIndexProbe:
        Visit(1, 0, leaf_count_, probe, fn);
        return;
      case AccessPath::kSortedSweep: {
        // Prefix with lo <= probe.hi by binary search, then one SIMD
        // filter of that prefix on the remaining hi >= probe.lo test.
        const size_t prefix = static_cast<size_t>(
            std::upper_bound(lo_.begin(), lo_.end(), probe.hi) - lo_.begin());
        if (scratch->size() < prefix) scratch->resize(prefix);
        const size_t hits =
            simd::FilterHiGe(hi_.data(), prefix, probe.lo, scratch->data());
        for (size_t c = 0; c < hits; ++c)
          fn(row_[static_cast<size_t>((*scratch)[c])]);
        return;
      }
      case AccessPath::kFullScan: {
        if (scratch->size() < lo_.size()) scratch->resize(lo_.size());
        const size_t hits =
            simd::FilterOverlapping(lo_.data(), hi_.data(), lo_.size(),
                                    probe.lo, probe.hi, scratch->data());
        for (size_t c = 0; c < hits; ++c)
          fn(row_[static_cast<size_t>((*scratch)[c])]);
        return;
      }
    }
  }

 private:
  // Recursive descent over the implicit tree. Node `node` covers sorted
  // positions [begin, begin + width); width is a power of two. Prunes a
  // subtree when its smallest lo already exceeds probe.hi (sorted order)
  // or its largest hi falls short of probe.lo (the tree bound). A leaf
  // that survives both prunes is an overlap by construction.
  template <typename Fn>
  void Visit(size_t node, size_t begin, size_t width, const Interval& probe,
             Fn&& fn) const {
    if (begin >= lo_.size() || lo_[begin] > probe.hi) return;
    if (tree_[node] < probe.lo) return;
    if (width == 1) {
      fn(row_[begin]);
      return;
    }
    const size_t half = width / 2;
    Visit(2 * node, begin, half, probe, fn);
    Visit(2 * node + 1, begin + half, half, probe, fn);
  }

  std::vector<int64_t> lo_;   // sorted nondecreasing
  std::vector<int64_t> hi_;   // aligned with lo_
  std::vector<int64_t> row_;  // original row id per sorted position
  /// Heap-ordered max-hi per node; leaves padded with INT64_MIN.
  std::vector<int64_t> tree_;
  size_t leaf_count_ = 0;  // power-of-two leaf span of the tree
  IntervalColumnStats stats_;
};

}  // namespace dslog

#endif  // DSLOG_PROVRC_INTERVAL_INDEX_H_
