#include "provrc/interval_index.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace dslog {

IntervalIndex::IntervalIndex(const int64_t* lo, const int64_t* hi, int64_t n,
                             int64_t stride) {
  if (n <= 0) return;
  const size_t count = static_cast<size_t>(n);
  // Gather into flat items first so the sort runs over contiguous memory
  // instead of strided arena loads through an indirection.
  struct Item {
    int64_t lo;
    int64_t hi;
    int64_t row;
  };
  std::vector<Item> items(count);
  for (size_t i = 0; i < count; ++i)
    items[i] = {lo[static_cast<int64_t>(i) * stride],
                hi[static_cast<int64_t>(i) * stride],
                static_cast<int64_t>(i)};
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& b) { return a.lo < b.lo; });

  lo_.resize(count);
  hi_.resize(count);
  row_.resize(count);
  for (size_t i = 0; i < count; ++i) {
    lo_[i] = items[i].lo;
    hi_[i] = items[i].hi;
    row_[i] = items[i].row;
  }

  leaf_count_ = std::bit_ceil(count);
  tree_.assign(2 * leaf_count_, std::numeric_limits<int64_t>::min());
  for (size_t i = 0; i < count; ++i) tree_[leaf_count_ + i] = hi_[i];
  for (size_t node = leaf_count_ - 1; node >= 1; --node)
    tree_[node] = std::max(tree_[2 * node], tree_[2 * node + 1]);
}

}  // namespace dslog
