#include "query/box.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "provrc/range_encode.h"

namespace dslog {

BoxTable BoxTable::FromCells(int ndim, const std::vector<int64_t>& cells) {
  DSLOG_CHECK(ndim > 0);
  DSLOG_CHECK(cells.size() % static_cast<size_t>(ndim) == 0);
  BoxTable t(ndim);
  t.flat_.reserve(cells.size());
  for (size_t i = 0; i < cells.size(); ++i)
    t.flat_.push_back(Interval::Point(cells[i]));
  t.Merge();
  return t;
}

BoxTable BoxTable::FromBox(std::vector<Interval> box) {
  BoxTable t(static_cast<int>(box.size()));
  t.flat_ = std::move(box);
  return t;
}

void BoxTable::Merge() { RangeEncodeBoxes(&flat_, ndim_, 0); }

std::vector<int64_t> BoxTable::ExpandToCells() const {
  std::set<std::vector<int64_t>> cells;
  std::vector<int64_t> point(static_cast<size_t>(ndim_));
  for (int64_t b = 0; b < num_boxes(); ++b) {
    auto box = Box(b);
    for (size_t k = 0; k < box.size(); ++k) point[k] = box[k].lo;
    while (true) {
      cells.insert(point);
      int k = ndim_;
      bool done = true;
      while (k > 0) {
        --k;
        if (point[static_cast<size_t>(k)] < box[static_cast<size_t>(k)].hi) {
          ++point[static_cast<size_t>(k)];
          for (int j = k + 1; j < ndim_; ++j)
            point[static_cast<size_t>(j)] = box[static_cast<size_t>(j)].lo;
          done = false;
          break;
        }
      }
      if (done) break;
    }
  }
  std::vector<int64_t> out;
  out.reserve(cells.size() * static_cast<size_t>(ndim_));
  for (const auto& c : cells) out.insert(out.end(), c.begin(), c.end());
  return out;
}

std::string BoxTable::DebugString(int64_t max_boxes) const {
  std::ostringstream os;
  os << "BoxTable(ndim=" << ndim_ << ", boxes=" << num_boxes() << ")\n";
  int64_t n = std::min(num_boxes(), max_boxes);
  for (int64_t i = 0; i < n; ++i) {
    os << "  (";
    auto box = Box(i);
    for (size_t k = 0; k < box.size(); ++k) {
      if (k) os << ", ";
      os << box[k].ToString();
    }
    os << ")\n";
  }
  if (num_boxes() > max_boxes) os << "  ...\n";
  return os.str();
}

}  // namespace dslog
