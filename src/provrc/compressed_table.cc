#include "provrc/compressed_table.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "provrc/serialize.h"

namespace dslog {

namespace {

// Enumerates the Cartesian product of `intervals` invoking fn(point vector).
template <typename Fn>
void ForEachPoint(const std::vector<Interval>& intervals, Fn&& fn) {
  std::vector<int64_t> point(intervals.size());
  for (size_t i = 0; i < intervals.size(); ++i) point[i] = intervals[i].lo;
  while (true) {
    fn(point);
    size_t k = intervals.size();
    while (k > 0) {
      --k;
      if (point[k] < intervals[k].hi) {
        ++point[k];
        for (size_t j = k + 1; j < intervals.size(); ++j)
          point[j] = intervals[j].lo;
        break;
      }
      if (k == 0) return;
    }
    if (intervals.empty()) return;
  }
}

// The attribute a uniformly drawn point probe is expected to hit least:
// attribute k costs Σ_rows extent_k / shape_k, the expected number of rows
// whose interval on k contains the probe. An index returns every row that
// overlaps the probe on its own attribute and the kernels test the rest,
// so the cheapest attribute scans least. Strict < keeps the lowest
// attribute on ties. `iv(r, k)` is row r's interval on attribute k.
template <typename IntervalFn>
int32_t LeastHitAttr(int32_t ndim, const int64_t* shape, int64_t num_rows,
                     IntervalFn&& iv) {
  if (ndim <= 1) return 0;
  std::vector<double> extent(static_cast<size_t>(ndim), 0.0);
  for (int64_t r = 0; r < num_rows; ++r)
    for (int32_t k = 0; k < ndim; ++k)
      extent[static_cast<size_t>(k)] += static_cast<double>(iv(r, k).width());
  const auto cost = [&](int32_t k) {
    return extent[static_cast<size_t>(k)] /
           static_cast<double>(std::max<int64_t>(shape[k], 1));
  };
  int32_t best = 0;
  for (int32_t k = 1; k < ndim; ++k)
    if (cost(k) < cost(best)) best = k;
  return best;
}

}  // namespace

IntervalIndex CompressedTableView::BuildBackwardIndex() const {
  const int32_t attr =
      LeastHitAttr(out_ndim, out_shape, num_rows,
                   [this](int64_t r, int32_t k) { return out_iv(r, k); });
  return IntervalIndex(lo + attr, hi + attr, num_rows, stride(), attr);
}

IntervalIndex CompressedTableView::BuildForwardIndex() const {
  const int32_t attr = LeastHitAttr(
      in_ndim, in_shape, num_rows,
      [this](int64_t r, int32_t i) { return implied_in_iv(r, i); });
  std::vector<int64_t> implied_lo(static_cast<size_t>(num_rows));
  std::vector<int64_t> implied_hi(static_cast<size_t>(num_rows));
  for (int64_t r = 0; r < num_rows; ++r) {
    const Interval iv = implied_in_iv(r, attr);
    implied_lo[static_cast<size_t>(r)] = iv.lo;
    implied_hi[static_cast<size_t>(r)] = iv.hi;
  }
  return IntervalIndex(implied_lo.data(), implied_hi.data(), num_rows, 1,
                       attr);
}

CompressedTable::CompressedTable(const CompressedTable& o)
    : out_shape_(o.out_shape_),
      in_shape_(o.in_shape_),
      num_rows_(o.num_rows_),
      lo_(o.lo_),
      hi_(o.hi_),
      ref_(o.ref_) {
  std::lock_guard<std::mutex> lock(o.index_mu_);
  backward_index_ = o.backward_index_;  // immutable once built; safe to share
  forward_index_ = o.forward_index_;
  digest_ = o.digest_;
}

CompressedTable& CompressedTable::operator=(const CompressedTable& o) {
  if (this == &o) return *this;
  out_shape_ = o.out_shape_;
  in_shape_ = o.in_shape_;
  num_rows_ = o.num_rows_;
  lo_ = o.lo_;
  hi_ = o.hi_;
  ref_ = o.ref_;
  std::scoped_lock lock(index_mu_, o.index_mu_);
  backward_index_ = o.backward_index_;
  forward_index_ = o.forward_index_;
  digest_ = o.digest_;
  return *this;
}

CompressedTable::CompressedTable(CompressedTable&& o) noexcept
    : out_shape_(std::move(o.out_shape_)),
      in_shape_(std::move(o.in_shape_)),
      num_rows_(o.num_rows_),
      lo_(std::move(o.lo_)),
      hi_(std::move(o.hi_)),
      ref_(std::move(o.ref_)) {
  std::lock_guard<std::mutex> lock(o.index_mu_);
  backward_index_ = std::move(o.backward_index_);
  forward_index_ = std::move(o.forward_index_);
  digest_ = std::exchange(o.digest_, std::nullopt);
  o.num_rows_ = 0;
}

CompressedTable& CompressedTable::operator=(CompressedTable&& o) noexcept {
  if (this == &o) return *this;
  out_shape_ = std::move(o.out_shape_);
  in_shape_ = std::move(o.in_shape_);
  num_rows_ = o.num_rows_;
  lo_ = std::move(o.lo_);
  hi_ = std::move(o.hi_);
  ref_ = std::move(o.ref_);
  std::scoped_lock lock(index_mu_, o.index_mu_);
  backward_index_ = std::move(o.backward_index_);
  forward_index_ = std::move(o.forward_index_);
  digest_ = std::exchange(o.digest_, std::nullopt);
  o.num_rows_ = 0;
  return *this;
}

void CompressedTable::InvalidateCaches() {
  std::lock_guard<std::mutex> lock(index_mu_);
  backward_index_.reset();
  forward_index_.reset();
  digest_.reset();
}

void CompressedTable::set_out_iv(int64_t r, int32_t k, Interval iv) {
  const size_t at = static_cast<size_t>(r * stride() + k);
  lo_[at] = iv.lo;
  hi_[at] = iv.hi;
  InvalidateCaches();
}

void CompressedTable::set_in_iv(int64_t r, int32_t i, Interval iv) {
  const size_t at = static_cast<size_t>(r * stride() + out_ndim() + i);
  lo_[at] = iv.lo;
  hi_[at] = iv.hi;
  InvalidateCaches();
}

CompressedRow CompressedTable::Row(int64_t r) const {
  CompressedRow row;
  row.out.reserve(static_cast<size_t>(out_ndim()));
  for (int k = 0; k < out_ndim(); ++k) row.out.push_back(out_iv(r, k));
  row.in.reserve(static_cast<size_t>(in_ndim()));
  for (int i = 0; i < in_ndim(); ++i) row.in.push_back(in_cell(r, i));
  return row;
}

void CompressedTable::Reserve(int64_t rows) {
  lo_.reserve(static_cast<size_t>(rows * stride()));
  hi_.reserve(static_cast<size_t>(rows * stride()));
  ref_.reserve(static_cast<size_t>(rows * in_ndim()));
}

void CompressedTable::AddRow(std::span<const Interval> out,
                             std::span<const InputCell> in) {
  DSLOG_DCHECK(static_cast<int>(out.size()) == out_ndim());
  DSLOG_DCHECK(static_cast<int>(in.size()) == in_ndim());
  for (const Interval& iv : out) {
    lo_.push_back(iv.lo);
    hi_.push_back(iv.hi);
  }
  for (const InputCell& cell : in) {
    lo_.push_back(cell.iv.lo);
    hi_.push_back(cell.iv.hi);
    ref_.push_back(cell.is_relative() ? cell.ref : -1);
  }
  ++num_rows_;
  InvalidateCaches();
}

void CompressedTable::AppendRowRaw(const Interval* out, const Interval* in,
                                   const int32_t* refs) {
  for (int k = 0; k < out_ndim(); ++k) {
    lo_.push_back(out[k].lo);
    hi_.push_back(out[k].hi);
  }
  for (int i = 0; i < in_ndim(); ++i) {
    lo_.push_back(in[i].lo);
    hi_.push_back(in[i].hi);
    ref_.push_back(refs[i]);
  }
  ++num_rows_;
  // No cache invalidation: the encoder and the decoders append to a fresh
  // table before any query or appender can have built its index or digest,
  // and AddRow (the general path) resets both anyway.
}

CompressedTableView CompressedTable::view() const {
  CompressedTableView v;
  v.lo = lo_.data();
  v.hi = hi_.data();
  v.ref = ref_.data();
  v.out_shape = out_shape_.data();
  v.in_shape = in_shape_.data();
  v.out_ndim = static_cast<int32_t>(out_ndim());
  v.in_ndim = static_cast<int32_t>(in_ndim());
  v.num_rows = num_rows_;
  return v;
}

std::shared_ptr<const IntervalIndex> CompressedTable::BackwardIndex() const {
  std::lock_guard<std::mutex> lock(index_mu_);
  if (!backward_index_)
    backward_index_ =
        std::make_shared<const IntervalIndex>(view().BuildBackwardIndex());
  return backward_index_;
}

std::shared_ptr<const IntervalIndex> CompressedTable::ForwardIndex() const {
  std::lock_guard<std::mutex> lock(index_mu_);
  if (!forward_index_)
    forward_index_ =
        std::make_shared<const IntervalIndex>(view().BuildForwardIndex());
  return forward_index_;
}

ColumnarDigest CompressedTable::columnar_digest() const {
  std::lock_guard<std::mutex> lock(index_mu_);
  if (!digest_) {
    const std::string image = SerializeCompressedTableColumnar(*this);
    digest_ = ColumnarDigest{image.size(), Hash64(image)};
  }
  return *digest_;
}

LineageRelation CompressedTable::Decompress() const {
  LineageRelation rel(out_ndim(), in_ndim());
  rel.set_shapes(out_shape_, in_shape_);
  const int l = out_ndim();
  const int m = in_ndim();
  std::vector<Interval> out_ivs(static_cast<size_t>(l));
  std::vector<Interval> in_ivs(static_cast<size_t>(m));
  for (int64_t r = 0; r < num_rows_; ++r) {
    for (int k = 0; k < l; ++k) out_ivs[static_cast<size_t>(k)] = out_iv(r, k);
    ForEachPoint(out_ivs, [&](const std::vector<int64_t>& out_point) {
      // Resolve per-output-point input intervals (de-relativize).
      for (int i = 0; i < m; ++i) {
        const Interval iv = in_iv(r, i);
        const int32_t rf = in_ref(r, i);
        if (rf >= 0) {
          const int64_t b = out_point[static_cast<size_t>(rf)];
          in_ivs[static_cast<size_t>(i)] = {b + iv.lo, b + iv.hi};
        } else {
          in_ivs[static_cast<size_t>(i)] = iv;
        }
      }
      ForEachPoint(in_ivs, [&](const std::vector<int64_t>& ip) {
        rel.Add(out_point, ip);
      });
    });
  }
  return rel;
}

int64_t CompressedTable::NumPairsRepresented() const {
  int64_t total = 0;
  const int64_t w = stride();
  for (int64_t r = 0; r < num_rows_; ++r) {
    int64_t cells = 1;
    for (int64_t k = 0; k < w; ++k) {
      const size_t at = static_cast<size_t>(r * w + k);
      cells *= hi_[at] - lo_[at] + 1;
    }
    total += cells;
  }
  return total;
}

std::string CompressedTable::DebugString(int64_t max_rows) const {
  std::ostringstream os;
  os << "CompressedTable(out=" << out_ndim() << "d, in=" << in_ndim()
     << "d, rows=" << num_rows() << ")\n";
  int64_t n = std::min<int64_t>(num_rows(), max_rows);
  for (int64_t r = 0; r < n; ++r) {
    os << "  (";
    for (int k = 0; k < out_ndim(); ++k) {
      if (k) os << ", ";
      os << out_iv(r, k).ToString();
    }
    os << " | ";
    for (int i = 0; i < in_ndim(); ++i) {
      if (i) os << ", ";
      const int32_t rf = in_ref(r, i);
      if (rf >= 0)
        os << "b" << rf << "+" << in_iv(r, i).ToString();
      else
        os << in_iv(r, i).ToString();
    }
    os << ")\n";
  }
  if (num_rows() > max_rows) os << "  ...\n";
  return os.str();
}

}  // namespace dslog
