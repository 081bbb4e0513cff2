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

// Canonicalizes a join result. With counters (a profiled query) the merge
// is timed into merge_us and traced as a BoxTable.Merge span; without them
// it reads no clock and opens no span.
void MergeResult(BoxTable* result, JoinCounters* counters) {
  if (counters == nullptr) {
    result->Merge();
    return;
  }
  trace::Span span("BoxTable.Merge", "join");
  span.Arg("boxes_in", result->num_boxes());
  WallTimer timer;
  result->Merge();
  counters->merge_us.fetch_add(
      static_cast<int64_t>(timer.ElapsedSeconds() * 1e6),
      std::memory_order_relaxed);
  span.Arg("boxes_out", result->num_boxes());
}

// Pairwise tree reduction of per-worker output arenas on the shared pool.
// Round k combines fixed index pairs (2p, 2p+1) — an odd tail rides to the
// next round untouched — so the combine order (and therefore the exact
// output, merged or not) depends only on the part count, never on thread
// scheduling. Without merging, the reduction is pure concatenation in part
// order; with merging, every combine re-canonicalizes, keeping each
// intermediate table small instead of paying one big Merge at the end.
BoxTable TreeMergeParts(std::vector<BoxTable> parts, int result_ndim,
                        bool merge_result, int num_threads,
                        JoinCounters* counters) {
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
          if (merge_result) MergeResult(&combined, counters);
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

// θ-join driver: with one thread (or one query box) runs `join` (the
// single-threaded join closed over the stored table and its index)
// directly. Otherwise splits the query boxes into `num_threads` contiguous
// slices, runs `join` per slice into a private arena on the shared pool,
// then tree-reduces the arenas. Set-equivalent to join(query); with
// merge_result each worker canonicalizes its own arena before the merging
// reduction (no single-threaded epilogue remains).
template <typename JoinFn>
BoxTable PartitionedJoin(const BoxTable& query, int result_ndim,
                         int num_threads, bool merge_result,
                         JoinCounters* counters, JoinFn&& join) {
  const int64_t nq = query.num_boxes();
  const int64_t chunks = std::min<int64_t>(num_threads, nq);
  if (chunks <= 1) {
    BoxTable result = join(query);
    if (merge_result) MergeResult(&result, counters);
    return result;
  }
  std::vector<BoxTable> parts(static_cast<size_t>(chunks));
  ThreadPool::Shared().ParallelFor(
      chunks,
      [&](int64_t c) {
        BoxTable part = join(query.Slice(c * nq / chunks, (c + 1) * nq / chunks));
        if (merge_result) MergeResult(&part, counters);
        parts[static_cast<size_t>(c)] = std::move(part);
      },
      num_threads);
  return TreeMergeParts(std::move(parts), result_ndim, merge_result,
                        num_threads, counters);
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
  const size_t probe_attr = static_cast<size_t>(index.attr());
  LocalJoinCounters local;

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
  local.FlushTo(counters);
  return result;
}

// Single-threaded forward kernel over the columns, probing `index` (built
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
  LocalJoinCounters local;

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
  return PartitionedJoin(query, table.in_ndim, num_threads, merge_result,
                         counters,
                         [&table, index, counters](const BoxTable& q) {
                           return BackwardKernel(q, table, *index, counters);
                         });
}

BoxTable BackwardThetaJoin(const BoxTable& query, const CompressedTable& table,
                           int num_threads, bool merge_result,
                           JoinCounters* counters) {
  std::shared_ptr<const IntervalIndex> index = table.BackwardIndex();
  return BackwardThetaJoin(query, table.view(), index.get(), num_threads,
                           merge_result, counters);
}

BoxTable ForwardThetaJoin(const BoxTable& query,
                          const CompressedTableView& table,
                          const IntervalIndex* index, int num_threads,
                          bool merge_result, JoinCounters* counters) {
  DSLOG_CHECK(query.ndim() == table.in_ndim) << "forward query arity mismatch";
  IntervalIndex ephemeral;
  if (index == nullptr) {
    ephemeral = table.BuildForwardIndex();
    index = &ephemeral;
  }
  return PartitionedJoin(query, table.out_ndim, num_threads, merge_result,
                         counters,
                         [&table, index, counters](const BoxTable& q) {
                           return ForwardKernel(q, table, *index, counters);
                         });
}

BoxTable ForwardThetaJoin(const BoxTable& query, const CompressedTable& table,
                          int num_threads, bool merge_result,
                          JoinCounters* counters) {
  std::shared_ptr<const IntervalIndex> index = table.ForwardIndex();
  return ForwardThetaJoin(query, table.view(), index.get(), num_threads,
                          merge_result, counters);
}

}  // namespace dslog
