// Closed integer intervals — the unit of ProvRC's multi-attribute range
// encoding (ICDE'24 §IV). All intervals are inclusive on both ends.

#ifndef DSLOG_PROVRC_INTERVAL_H_
#define DSLOG_PROVRC_INTERVAL_H_

#include <algorithm>
#include <cstdint>
#include <string>

namespace dslog {

/// [lo, hi], both inclusive. A single index i is the degenerate [i, i].
struct Interval {
  int64_t lo = 0;
  int64_t hi = 0;

  static Interval Point(int64_t v) { return {v, v}; }

  bool operator==(const Interval& o) const = default;

  int64_t width() const { return hi - lo + 1; }
  bool valid() const { return lo <= hi; }
  bool Contains(int64_t v) const { return v >= lo && v <= hi; }

  bool Intersects(const Interval& o) const { return lo <= o.hi && o.lo <= hi; }

  /// Intersection; invalid (lo > hi) when disjoint.
  Interval Intersect(const Interval& o) const {
    return {std::max(lo, o.lo), std::min(hi, o.hi)};
  }

  /// True when `o` starts exactly one past this interval's end.
  bool AdjacentBefore(const Interval& o) const { return o.lo == hi + 1; }

  /// Minkowski-style shift by a delta interval: {a + d : a in this, d in d}.
  Interval ShiftBy(const Interval& d) const { return {lo + d.lo, hi + d.hi}; }

  std::string ToString() const {
    if (lo == hi) return std::to_string(lo);
    return std::string("[")
        .append(std::to_string(lo))
        .append(",")
        .append(std::to_string(hi))
        .append("]");
  }
};

/// Three-way lexicographic comparison used by the range-encoding sorts.
inline int CompareIntervals(const Interval& a, const Interval& b) {
  if (a.lo != b.lo) return a.lo < b.lo ? -1 : 1;
  if (a.hi != b.hi) return a.hi < b.hi ? -1 : 1;
  return 0;
}

}  // namespace dslog

#endif  // DSLOG_PROVRC_INTERVAL_H_
