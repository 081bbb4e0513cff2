#include "query/theta_join.h"

#include <algorithm>

#include "common/check.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"

namespace dslog {

namespace {

// Plain-integer accumulator a kernel fills and flushes once at return.
// Keeps the profiling contract visible in the code: the per-candidate
// callbacks touch only these locals (registers), and the one FlushTo call
// per kernel invocation is the only place atomics appear.
struct LocalJoinCounters {
  int64_t probes = 0;
  int64_t rows_scanned = 0;
  int64_t rows_emitted = 0;

  void FlushTo(JoinCounters* counters) const {
    if (counters == nullptr) return;
    counters->probes.fetch_add(probes, std::memory_order_relaxed);
    counters->rows_scanned.fetch_add(rows_scanned, std::memory_order_relaxed);
    counters->rows_emitted.fetch_add(rows_emitted, std::memory_order_relaxed);
  }
};

// Pairwise tree reduction of per-worker output arenas on the shared pool.
// Round k combines fixed index pairs (2p, 2p+1) — an odd tail rides to the
// next round untouched — so the combine order (and therefore the exact
// output, merged or not) depends only on the part count, never on thread
// scheduling. Without merging, the reduction is pure concatenation in part
// order; with merging, every combine re-canonicalizes, keeping each
// intermediate table small instead of paying one big Merge at the end.
BoxTable TreeMergeParts(std::vector<BoxTable> parts, int result_ndim,
                        bool merge_result, int num_threads) {
  if (parts.empty()) return BoxTable(result_ndim);
  if (parts.size() == 1) return std::move(parts.front());
  // The reduction only runs for parallel joins, so two clock reads + a few
  // relaxed adds per call are amortized into the combine work.
  static metrics::Counter& merges =
      metrics::Registry::Global().counter("dslog.join.tree_merges");
  static metrics::Histogram& merge_us =
      metrics::Registry::Global().histogram("dslog.join.tree_merge_us");
  trace::Span span("TreeMergeParts", "join");
  span.Arg("parts", static_cast<int64_t>(parts.size()));
  WallTimer timer;
  while (parts.size() > 1) {
    const size_t pairs = parts.size() / 2;
    std::vector<BoxTable> next(parts.size() - pairs);
    ThreadPool::Shared().ParallelFor(
        static_cast<int64_t>(pairs),
        [&](int64_t p) {
          const size_t at = static_cast<size_t>(p);
          BoxTable combined = std::move(parts[2 * at]);
          combined.Append(parts[2 * at + 1]);
          if (merge_result) combined.Merge();
          next[at] = std::move(combined);
        },
        num_threads);
    if (parts.size() % 2 == 1) next.back() = std::move(parts.back());
    parts = std::move(next);
  }
  merges.Increment();
  merge_us.Record(static_cast<int64_t>(timer.ElapsedSeconds() * 1e6));
  return std::move(parts.front());
}

// Partitioned θ-join driver: splits the query boxes into `num_threads`
// contiguous slices, runs `join` (the single-threaded join closed over the
// stored table and its shared index) per slice into a private arena on the
// shared pool, then tree-reduces the arenas. Set-equivalent to
// join(query); with merge_result each worker canonicalizes its own arena
// before the merging reduction (no single-threaded epilogue remains).
template <typename JoinFn>
BoxTable PartitionedJoin(const BoxTable& query, int result_ndim,
                         int num_threads, bool merge_result, JoinFn&& join) {
  const int64_t nq = query.num_boxes();
  const int64_t chunks = std::min<int64_t>(num_threads, nq);
  if (chunks <= 1) {
    BoxTable result = join(query);
    if (merge_result) result.Merge();
    return result;
  }
  std::vector<BoxTable> parts(static_cast<size_t>(chunks));
  ThreadPool::Shared().ParallelFor(
      chunks,
      [&](int64_t c) {
        BoxTable part = join(query.Slice(c * nq / chunks, (c + 1) * nq / chunks));
        if (merge_result) part.Merge();
        parts[static_cast<size_t>(c)] = std::move(part);
      },
      num_threads);
  return TreeMergeParts(std::move(parts), result_ndim, merge_result,
                        num_threads);
}

// Single-threaded backward kernel over the columns: each query box probes
// the index and joins the overlapping rows it enumerates.
BoxTable BackwardKernel(const BoxTable& query, const CompressedTableView& t,
                        const IntervalIndex& index, JoinCounters* counters) {
  const int32_t l = t.out_ndim;
  const int32_t m = t.in_ndim;
  const int64_t w = t.stride();
  BoxTable result(m);
  std::vector<int64_t> t_lo(static_cast<size_t>(l)), t_hi(static_cast<size_t>(l));
  std::vector<Interval> out_box(static_cast<size_t>(m));
  LocalJoinCounters local;

  for (int64_t qb = 0; qb < query.num_boxes(); ++qb) {
    const auto q = query.Box(qb);
    index.ForEachOverlapping(q[0], [&](int64_t r) {
      ++local.rows_scanned;
      const int64_t* row_lo = t.lo + r * w;
      const int64_t* row_hi = t.hi + r * w;
      // Step 1: joint intersection over the output attributes (attribute 0
      // overlaps by construction of the index probe). Branchless: every
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
  local.FlushTo(counters);
  return result;
}

// Single-threaded forward kernel over the columns, probing `index` (built
// over the rows' implied absolute input-attribute-0 intervals).
BoxTable ForwardKernel(const BoxTable& query, const CompressedTableView& t,
                       const IntervalIndex& index, JoinCounters* counters) {
  const int32_t l = t.out_ndim;
  const int32_t m = t.in_ndim;
  const int64_t w = t.stride();
  BoxTable result(l);
  std::vector<Interval> ti(static_cast<size_t>(m));
  std::vector<Interval> out_box(static_cast<size_t>(l));
  LocalJoinCounters local;

  for (int64_t qb = 0; qb < query.num_boxes(); ++qb) {
    const auto q = query.Box(qb);
    index.ForEachOverlapping(q[0], [&](int64_t r) {
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
  local.FlushTo(counters);
  return result;
}

}  // namespace

BoxTable BackwardThetaJoin(const BoxTable& query,
                           const CompressedTableView& table,
                           const IntervalIndex* index, int num_threads,
                           bool merge_result, JoinCounters* counters) {
  DSLOG_CHECK(query.ndim() == table.out_ndim)
      << "backward query arity mismatch";
  IntervalIndex ephemeral;
  if (index == nullptr) {
    ephemeral = table.BuildBackwardIndex();
    index = &ephemeral;
  }
  if (num_threads > 1) {
    return PartitionedJoin(query, table.in_ndim, num_threads, merge_result,
                           [&table, index, counters](const BoxTable& q) {
                             return BackwardKernel(q, table, *index, counters);
                           });
  }
  BoxTable result = BackwardKernel(query, table, *index, counters);
  if (merge_result) result.Merge();
  return result;
}

BoxTable BackwardThetaJoin(const BoxTable& query, const CompressedTable& table,
                           int num_threads, bool merge_result,
                           JoinCounters* counters) {
  std::shared_ptr<const IntervalIndex> index = table.BackwardIndex();
  return BackwardThetaJoin(query, table.view(), index.get(), num_threads,
                           merge_result, counters);
}

BoxTable ForwardThetaJoin(const BoxTable& query,
                          const CompressedTableView& table, int num_threads,
                          bool merge_result, JoinCounters* counters) {
  DSLOG_CHECK(query.ndim() == table.in_ndim) << "forward query arity mismatch";
  // Implied absolute input-attribute-0 intervals drive the probe; they
  // depend on de-relativization, so the index is per call (its build cost
  // matches the sort the old sweep paid every call).
  const int32_t l = table.out_ndim;
  const int64_t w = table.stride();
  std::vector<int64_t> lo0(static_cast<size_t>(table.num_rows));
  std::vector<int64_t> hi0(static_cast<size_t>(table.num_rows));
  for (int64_t r = 0; r < table.num_rows; ++r) {
    const int64_t* row_lo = table.lo + r * w;
    const int64_t* row_hi = table.hi + r * w;
    const int32_t rf = table.ref[r * table.in_ndim];
    const int64_t base_lo = rf >= 0 ? row_lo[rf] : 0;
    const int64_t base_hi = rf >= 0 ? row_hi[rf] : 0;
    lo0[static_cast<size_t>(r)] = base_lo + row_lo[l];
    hi0[static_cast<size_t>(r)] = base_hi + row_hi[l];
  }
  IntervalIndex index(lo0.data(), hi0.data(), table.num_rows, 1);
  if (num_threads > 1) {
    return PartitionedJoin(query, table.out_ndim, num_threads, merge_result,
                           [&table, &index, counters](const BoxTable& q) {
                             return ForwardKernel(q, table, index, counters);
                           });
  }
  BoxTable result = ForwardKernel(query, table, index, counters);
  if (merge_result) result.Merge();
  return result;
}

BoxTable ForwardThetaJoin(const BoxTable& query, const CompressedTable& table,
                          int num_threads, bool merge_result,
                          JoinCounters* counters) {
  return ForwardThetaJoin(query, table.view(), num_threads, merge_result,
                          counters);
}

ForwardTable ForwardTable::FromBackward(const CompressedTableView& table) {
  ForwardTable fwd;
  fwd.out_shape_.assign(table.out_shape, table.out_shape + table.out_ndim);
  fwd.in_shape_.assign(table.in_shape, table.in_shape + table.in_ndim);
  const int32_t l = table.out_ndim;
  const int32_t m = table.in_ndim;
  const int64_t n = table.num_rows;
  const int64_t w = table.stride();
  fwd.num_rows_ = n;
  fwd.in_lo_.resize(static_cast<size_t>(n * m));
  fwd.in_hi_.resize(static_cast<size_t>(n * m));
  fwd.out_lo_.resize(static_cast<size_t>(n * l));
  fwd.out_hi_.resize(static_cast<size_t>(n * l));
  fwd.ref_start_.assign(static_cast<size_t>(n * l) + 1, 0);

  // Pass 1: columns and per-(row, output attr) constraint counts.
  for (int64_t r = 0; r < n; ++r) {
    const int64_t* row_lo = table.lo + r * w;
    const int64_t* row_hi = table.hi + r * w;
    const int32_t* refs = table.ref + r * m;
    for (int32_t j = 0; j < l; ++j) {
      fwd.out_lo_[static_cast<size_t>(r * l + j)] = row_lo[j];
      fwd.out_hi_[static_cast<size_t>(r * l + j)] = row_hi[j];
    }
    for (int32_t i = 0; i < m; ++i) {
      const int32_t rf = refs[i];
      const int64_t base_lo = rf >= 0 ? row_lo[rf] : 0;
      const int64_t base_hi = rf >= 0 ? row_hi[rf] : 0;
      fwd.in_lo_[static_cast<size_t>(r * m + i)] = base_lo + row_lo[l + i];
      fwd.in_hi_[static_cast<size_t>(r * m + i)] = base_hi + row_hi[l + i];
      if (rf >= 0) ++fwd.ref_start_[static_cast<size_t>(r * l + rf) + 1];
    }
  }
  // Prefix-sum the counts into CSR offsets, then pass 2 fills the slots.
  for (size_t c = 1; c < fwd.ref_start_.size(); ++c)
    fwd.ref_start_[c] += fwd.ref_start_[c - 1];
  const int32_t total = fwd.ref_start_.back();
  fwd.ref_in_.resize(static_cast<size_t>(total));
  fwd.ref_dlo_.resize(static_cast<size_t>(total));
  fwd.ref_dhi_.resize(static_cast<size_t>(total));
  std::vector<int32_t> cursor(fwd.ref_start_.begin(), fwd.ref_start_.end() - 1);
  for (int64_t r = 0; r < n; ++r) {
    const int64_t* row_lo = table.lo + r * w;
    const int64_t* row_hi = table.hi + r * w;
    const int32_t* refs = table.ref + r * m;
    for (int32_t i = 0; i < m; ++i) {
      const int32_t rf = refs[i];
      if (rf < 0) continue;
      int32_t& slot = cursor[static_cast<size_t>(r * l + rf)];
      fwd.ref_in_[static_cast<size_t>(slot)] = i;
      fwd.ref_dlo_[static_cast<size_t>(slot)] = row_lo[l + i];
      fwd.ref_dhi_[static_cast<size_t>(slot)] = row_hi[l + i];
      ++slot;
    }
  }
  fwd.in0_index_ = IntervalIndex(fwd.in_lo_.data(), fwd.in_hi_.data(), n,
                                 static_cast<int64_t>(m));
  return fwd;
}

BoxTable ForwardTable::Join(const BoxTable& query, int num_threads,
                            bool merge_result, JoinCounters* counters) const {
  DSLOG_CHECK(query.ndim() == in_ndim()) << "forward query arity mismatch";
  if (num_threads > 1 || merge_result) {
    return PartitionedJoin(
        query, out_ndim(), num_threads, merge_result,
        [this, counters](const BoxTable& q) {
          return Join(q, 1, false, counters);
        });
  }
  const int32_t l = static_cast<int32_t>(out_ndim());
  const int32_t m = static_cast<int32_t>(in_ndim());
  BoxTable result(l);
  std::vector<Interval> ti(static_cast<size_t>(m));
  std::vector<Interval> out_box(static_cast<size_t>(l));
  LocalJoinCounters local;

  for (int64_t qb = 0; qb < query.num_boxes(); ++qb) {
    const auto q = query.Box(qb);
    in0_index_.ForEachOverlapping(q[0], [&](int64_t r) {
      ++local.rows_scanned;
      const int64_t* row_in_lo = in_lo_.data() + r * m;
      const int64_t* row_in_hi = in_hi_.data() + r * m;
      bool hit = true;
      for (int32_t i = 0; i < m; ++i) {
        const int64_t lo = std::max(q[static_cast<size_t>(i)].lo, row_in_lo[i]);
        const int64_t hi = std::min(q[static_cast<size_t>(i)].hi, row_in_hi[i]);
        ti[static_cast<size_t>(i)] = {lo, hi};
        hit &= lo <= hi;
      }
      if (!hit) return;
      bool feasible = true;
      for (int32_t j = 0; j < l && feasible; ++j) {
        const size_t c = static_cast<size_t>(r * l + j);
        Interval v = {out_lo_[c], out_hi_[c]};
        for (int32_t s = ref_start_[c]; s < ref_start_[c + 1]; ++s) {
          const Interval& t_i = ti[static_cast<size_t>(ref_in_[static_cast<size_t>(s)])];
          v.lo = std::max(v.lo, t_i.lo - ref_dhi_[static_cast<size_t>(s)]);
          v.hi = std::min(v.hi, t_i.hi - ref_dlo_[static_cast<size_t>(s)]);
          if (v.lo > v.hi) break;
        }
        feasible = v.lo <= v.hi;
        out_box[static_cast<size_t>(j)] = v;
      }
      if (!feasible) return;
      result.AddBox(out_box);
    });
  }
  local.probes = query.num_boxes();
  local.rows_emitted = result.num_boxes();
  local.FlushTo(counters);
  return result;
}

}  // namespace dslog
