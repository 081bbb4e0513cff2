// BoxTable: a union of axis-aligned integer boxes (one interval per
// attribute). Queries (Q'), θ-join intermediates (T), and query results are
// all box tables (ICDE'24 §V). Includes the projection/merge row-reduction
// optimization of §V.B.3.

#ifndef DSLOG_QUERY_BOX_H_
#define DSLOG_QUERY_BOX_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "provrc/interval.h"

namespace dslog {

/// Union of k-dimensional boxes over array indices.
class BoxTable {
 public:
  BoxTable() = default;
  explicit BoxTable(int ndim) : ndim_(ndim) {}

  int ndim() const { return ndim_; }
  int64_t num_boxes() const {
    return ndim_ == 0 ? 0 : static_cast<int64_t>(flat_.size()) / ndim_;
  }
  bool empty() const { return flat_.empty(); }

  void AddBox(std::span<const Interval> box) {
    flat_.insert(flat_.end(), box.begin(), box.end());
  }

  std::span<const Interval> Box(int64_t i) const {
    return {flat_.data() + i * ndim_, static_cast<size_t>(ndim_)};
  }
  std::span<Interval> MutableBox(int64_t i) {
    return {flat_.data() + i * ndim_, static_cast<size_t>(ndim_)};
  }

  /// Builds a degenerate-box table from explicit cell indices (flattened
  /// tuples of length ndim), then range-encodes it.
  static BoxTable FromCells(int ndim, const std::vector<int64_t>& cells);

  /// Builds a single-box table.
  static BoxTable FromBox(std::vector<Interval> box);

  /// Coalesces adjacent boxes attribute-by-attribute (the same greedy
  /// multi-attribute range encoding ProvRC uses: RangeEncodeBoxes over
  /// every attribute, last first) and drops exact duplicates. Each pass
  /// orders the boxes by the other attributes, then the target, and unions
  /// target intervals that overlap or touch.
  void Merge();

  /// Expands to explicit sorted, deduplicated cell tuples. Intended for
  /// result checking and small final answers.
  std::vector<int64_t> ExpandToCells() const;

  /// Number of distinct cells covered (computed via expansion; test helper).
  int64_t NumDistinctCells() const {
    return static_cast<int64_t>(ExpandToCells().size()) / std::max(1, ndim_);
  }

  std::string DebugString(int64_t max_boxes = 20) const;

 private:
  int ndim_ = 0;
  std::vector<Interval> flat_;
};

}  // namespace dslog

#endif  // DSLOG_QUERY_BOX_H_
