#include "query/theta_join.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/check.h"

namespace dslog {

namespace {

// Adds a kernel's local counts to the caller's sink, once at return. Keeps
// the profiling contract visible in the code: the per-candidate callbacks
// touch only the kernel's local JoinCounters (registers).
void FlushTo(const JoinCounters& local, JoinCounters* counters) {
  if (counters == nullptr) return;
  counters->probes += local.probes;
  counters->rows_scanned += local.rows_scanned;
  counters->rows_emitted += local.rows_emitted;
}

// Backward kernel over the columns: each query box probes the index and
// joins the overlapping rows it enumerates.
BoxTable BackwardKernel(const BoxTable& query, const CompressedTableView& t,
                        const IntervalIndex& index, JoinCounters* counters) {
  const int32_t l = t.out_ndim;
  const int32_t m = t.in_ndim;
  const int64_t w = t.stride();
  BoxTable result(m);
  std::vector<int64_t> t_lo(static_cast<size_t>(l)), t_hi(static_cast<size_t>(l));
  std::vector<Interval> out_box(static_cast<size_t>(m));
  const size_t probe_attr = static_cast<size_t>(index.attr());
  JoinCounters local;

  for (int64_t qb = 0; qb < query.num_boxes(); ++qb) {
    const auto q = query.Box(qb);
    index.ForEachOverlapping(q[probe_attr], [&](int64_t r) {
      ++local.rows_scanned;
      const int64_t* row_lo = t.lo + r * w;
      const int64_t* row_hi = t.hi + r * w;
      // Step 1: joint intersection over the output attributes (the index's
      // attribute overlaps by construction of the probe). Branchless: every
      // attribute folds into `hit`, no early exit in the loop body.
      bool hit = true;
      for (int32_t k = 0; k < l; ++k) {
        const int64_t lo = std::max(q[static_cast<size_t>(k)].lo, row_lo[k]);
        const int64_t hi = std::min(q[static_cast<size_t>(k)].hi, row_hi[k]);
        t_lo[static_cast<size_t>(k)] = lo;
        t_hi[static_cast<size_t>(k)] = hi;
        hit &= lo <= hi;
      }
      if (!hit) return;
      // Step 2: de-relativize (rel_back): a = b + delta over the
      // intersected output interval t. Absolute cells (ref < 0) shift by
      // a zero base — one arithmetic select per bound, no per-kind branch.
      const int32_t* refs = t.ref + r * m;
      for (int32_t i = 0; i < m; ++i) {
        const int32_t rf = refs[i];
        const int64_t base_lo = rf >= 0 ? t_lo[static_cast<size_t>(rf)] : 0;
        const int64_t base_hi = rf >= 0 ? t_hi[static_cast<size_t>(rf)] : 0;
        out_box[static_cast<size_t>(i)] = {base_lo + row_lo[l + i],
                                           base_hi + row_hi[l + i]};
      }
      result.AddBox(out_box);
    });
  }
  local.probes = query.num_boxes();
  local.rows_emitted = result.num_boxes();
  FlushTo(local, counters);
  return result;
}

// Forward kernel over the columns, probing `index` (built
// over the rows' implied absolute intervals on one input attribute).
BoxTable ForwardKernel(const BoxTable& query, const CompressedTableView& t,
                       const IntervalIndex& index, JoinCounters* counters) {
  const int32_t l = t.out_ndim;
  const int32_t m = t.in_ndim;
  const int64_t w = t.stride();
  BoxTable result(l);
  std::vector<Interval> ti(static_cast<size_t>(m));
  std::vector<Interval> out_box(static_cast<size_t>(l));
  const size_t probe_attr = static_cast<size_t>(index.attr());
  JoinCounters local;

  for (int64_t qb = 0; qb < query.num_boxes(); ++qb) {
    const auto q = query.Box(qb);
    index.ForEachOverlapping(q[probe_attr], [&](int64_t r) {
      ++local.rows_scanned;
      const int64_t* row_lo = t.lo + r * w;
      const int64_t* row_hi = t.hi + r * w;
      const int32_t* refs = t.ref + r * m;
      // Range join on the implied absolute input intervals.
      bool hit = true;
      for (int32_t i = 0; i < m; ++i) {
        const int32_t rf = refs[i];
        const int64_t base_lo = rf >= 0 ? row_lo[rf] : 0;
        const int64_t base_hi = rf >= 0 ? row_hi[rf] : 0;
        const int64_t lo =
            std::max(q[static_cast<size_t>(i)].lo, base_lo + row_lo[l + i]);
        const int64_t hi =
            std::min(q[static_cast<size_t>(i)].hi, base_hi + row_hi[l + i]);
        ti[static_cast<size_t>(i)] = {lo, hi};
        hit &= lo <= hi;
      }
      if (!hit) return;
      // De-relativize forward (clamped rel_for): each relative input
      // constrains its referenced output attribute to
      // [t.lo - d.hi, t.hi - d.lo], intersected with the row's bound.
      for (int32_t j = 0; j < l; ++j)
        out_box[static_cast<size_t>(j)] = {row_lo[j], row_hi[j]};
      bool feasible = true;
      for (int32_t i = 0; i < m; ++i) {
        const int32_t rf = refs[i];
        if (rf < 0) continue;
        const Interval& t_i = ti[static_cast<size_t>(i)];
        Interval& target = out_box[static_cast<size_t>(rf)];
        target.lo = std::max(target.lo, t_i.lo - row_hi[l + i]);
        target.hi = std::min(target.hi, t_i.hi - row_lo[l + i]);
        feasible &= target.lo <= target.hi;
      }
      if (!feasible) return;
      result.AddBox(out_box);
    });
  }
  local.probes = query.num_boxes();
  local.rows_emitted = result.num_boxes();
  FlushTo(local, counters);
  return result;
}

}  // namespace

BoxTable BackwardThetaJoin(const BoxTable& query,
                           const CompressedTableView& table,
                           const IntervalIndex* index,
                           JoinCounters* counters) {
  DSLOG_CHECK(query.ndim() == table.out_ndim)
      << "backward query arity mismatch";
  if (index != nullptr) return BackwardKernel(query, table, *index, counters);
  return BackwardKernel(query, table, table.BuildBackwardIndex(), counters);
}

BoxTable BackwardThetaJoin(const BoxTable& query, const CompressedTable& table,
                           JoinCounters* counters) {
  std::shared_ptr<const IntervalIndex> index = table.BackwardIndex();
  return BackwardThetaJoin(query, table.view(), index.get(), counters);
}

BoxTable ForwardThetaJoin(const BoxTable& query,
                          const CompressedTableView& table,
                          const IntervalIndex* index, JoinCounters* counters) {
  DSLOG_CHECK(query.ndim() == table.in_ndim) << "forward query arity mismatch";
  if (index != nullptr) return ForwardKernel(query, table, *index, counters);
  return ForwardKernel(query, table, table.BuildForwardIndex(), counters);
}

BoxTable ForwardThetaJoin(const BoxTable& query, const CompressedTable& table,
                          JoinCounters* counters) {
  std::shared_ptr<const IntervalIndex> index = table.ForwardIndex();
  return ForwardThetaJoin(query, table.view(), index.get(), counters);
}

}  // namespace dslog
