// The in-situ θ-join (ICDE'24 §V.B): a range join over interval cells plus
// de-relativization of relative attributes — evaluated directly on the
// compressed table, with no decompression.
//
// All kernels scan the flat columnar layout through a CompressedTableView,
// so they run identically over an owned table and over bytes borrowed from
// an mmap'd v2 LogStore segment (true in-situ). The backward join is
// index-backed: a per-table sorted interval index over output attribute 0
// (provrc/interval_index.h) prunes candidate rows to the probe's overlap
// set instead of scanning — pass the table's cached index, or let the
// kernel build an ephemeral one (equivalent to the old per-query sweep).
//
// Backward joins take a query over the table's *output* attributes (which
// are absolute) and return the linked input cells via rel_back.
// Forward joins take a query over *input* attributes; they run either
// directly against the backward representation or against a materialized
// ForwardTable (the §IV.C alternative representation), using the clamped
// rel_for de-relativization. (The published rel_for formula is garbled; see
// docs/ARCHITECTURE.md for the derivation used here, which property tests
// validate against the uncompressed ground truth.)
//
// Every join takes a JoinPath: how each probe enumerates the interval
// index — pruned tree probe, SIMD sorted sweep, or SIMD full scan
// (provrc/interval_index.h). The default kAuto asks the cost-based planner
// (query/join_planner.h) per probe, using the hop's interval-column stats
// (LogStore footers carry them per segment; otherwise the index's own
// exact stats). All paths emit candidates in the same order, so the result
// is bit-identical whatever the planner (or a forced path) picks.

#ifndef DSLOG_QUERY_THETA_JOIN_H_
#define DSLOG_QUERY_THETA_JOIN_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "provrc/compressed_table.h"
#include "provrc/interval_index.h"
#include "query/box.h"
#include "query/join_planner.h"

namespace dslog {

/// Instrumentation sink for one join call (query profiling). The contract
/// that keeps profiling out of the hot path: kernels count into plain
/// local integers and flush them here ONCE per kernel invocation — with a
/// partitioned join, once per partition — so the per-candidate inner loop
/// never touches an atomic, profiled or not. With `counters == nullptr`
/// (the default everywhere) the kernels also skip the planner's
/// cost-estimate bookkeeping entirely. Planner estimates accumulate as
/// fixed-point x1000 integers so the sink needs no atomic<double>.
struct JoinCounters {
  /// Query boxes evaluated (index probes issued).
  std::atomic<int64_t> probes{0};
  /// Candidate rows enumerated by the interval index across all probes.
  std::atomic<int64_t> rows_scanned{0};
  /// Boxes emitted by the kernels, before any Merge canonicalization.
  std::atomic<int64_t> rows_emitted{0};
  /// Probes resolved to each concrete AccessPath (index by AccessPath).
  std::atomic<int64_t> path_probes[3] = {};
  /// Planner-expected candidate rows, x1000 (sum over probes).
  std::atomic<int64_t> est_rows_x1000{0};
  /// Planner per-path cost model output in ns x1000 (index by AccessPath).
  std::atomic<int64_t> est_cost_ns_x1000[3] = {};

  int64_t path_probes_total() const {
    return path_probes[0].load(std::memory_order_relaxed) +
           path_probes[1].load(std::memory_order_relaxed) +
           path_probes[2].load(std::memory_order_relaxed);
  }
  double est_rows() const {
    return static_cast<double>(
               est_rows_x1000.load(std::memory_order_relaxed)) /
           1000.0;
  }
  double est_cost_ns(int path) const {
    return static_cast<double>(
               est_cost_ns_x1000[path].load(std::memory_order_relaxed)) /
           1000.0;
  }
};

// All joins accept a `num_threads` knob: when >= 2 the query-box table is
// partitioned into contiguous slices, each evaluated into its own private
// output arena on the shared ThreadPool (sharing one table index), and the
// arenas are combined pairwise tree-wise on the pool — workers never write
// a shared result. The output is set-equivalent to the single-threaded
// join, and for a fixed (query, num_threads) it is bit-identical across
// runs: partition bounds and the pairwise combine order are fixed by
// index, not by thread scheduling.
//
// All joins also accept `merge_result`: when true each worker Merge()s its
// own arena and every pairwise combine re-Merges, so the canonicalization
// that used to run single-threaded over the full concatenation is spread
// across the pool (this is the parallel epilogue ProvQuery uses). false
// reproduces the raw concatenation exactly (the caller may Merge itself).

/// Backward θ-join: query boxes over output attributes -> input-cell boxes.
/// `index` is the table's out-attr-0 interval index; pass nullptr to have
/// the kernel build an ephemeral one for this call. `stats` are the probe
/// column's stats for the planner (e.g. from the segment's footer
/// entry); nullptr or invalid stats fall back to the index's own.
BoxTable BackwardThetaJoin(const BoxTable& query,
                           const CompressedTableView& table,
                           const IntervalIndex* index = nullptr,
                           int num_threads = 1, bool merge_result = false,
                           JoinPath join_path = JoinPath::kAuto,
                           const IntervalColumnStats* stats = nullptr,
                           JoinCounters* counters = nullptr);

/// Convenience overload over an owned table: uses (and lazily builds) the
/// table's cached index.
BoxTable BackwardThetaJoin(const BoxTable& query, const CompressedTable& table,
                           int num_threads = 1, bool merge_result = false,
                           JoinPath join_path = JoinPath::kAuto,
                           JoinCounters* counters = nullptr);

/// Forward θ-join evaluated directly on the backward representation:
/// query boxes over input attributes -> output-cell boxes. The probe
/// column (implied absolute input attribute 0) depends on per-row
/// de-relativization, so the index is built per call — the planner always
/// uses that index's exact stats (footer stats describe the *output*
/// column and do not apply here).
BoxTable ForwardThetaJoin(const BoxTable& query,
                          const CompressedTableView& table,
                          int num_threads = 1, bool merge_result = false,
                          JoinPath join_path = JoinPath::kAuto,
                          JoinCounters* counters = nullptr);

BoxTable ForwardThetaJoin(const BoxTable& query, const CompressedTable& table,
                          int num_threads = 1, bool merge_result = false,
                          JoinPath join_path = JoinPath::kAuto,
                          JoinCounters* counters = nullptr);

/// Materialized forward representation (inputs absolute, outputs possibly
/// relative with clamping bounds) as described in §IV.C / Table III.
/// Stored as flat columns: absolute input intervals and output bounds in
/// lo/hi arenas, relative constraints in a CSR side table keyed by
/// (row, output attribute), plus a prebuilt interval index over input
/// attribute 0 so every forward hop probes instead of scanning.
class ForwardTable {
 public:
  static ForwardTable FromBackward(const CompressedTable& table) {
    return FromBackward(table.view());
  }
  static ForwardTable FromBackward(const CompressedTableView& table);

  int in_ndim() const { return static_cast<int>(in_shape_.size()); }
  int out_ndim() const { return static_cast<int>(out_shape_.size()); }
  int64_t num_rows() const { return num_rows_; }

  /// Absolute input interval of (row, input attribute).
  Interval in_iv(int64_t r, int32_t i) const {
    const size_t at = static_cast<size_t>(r * in_ndim() + i);
    return {in_lo_[at], in_hi_[at]};
  }
  /// Clamping bound of (row, output attribute).
  Interval out_bound(int64_t r, int32_t j) const {
    const size_t at = static_cast<size_t>(r * out_ndim() + j);
    return {out_lo_[at], out_hi_[at]};
  }

  /// Forward θ-join over the materialized representation.
  BoxTable Join(const BoxTable& query, int num_threads = 1,
                bool merge_result = false,
                JoinPath join_path = JoinPath::kAuto,
                JoinCounters* counters = nullptr) const;

 private:
  std::vector<int64_t> out_shape_;
  std::vector<int64_t> in_shape_;
  int64_t num_rows_ = 0;
  std::vector<int64_t> in_lo_, in_hi_;    // num_rows * in_ndim, absolute
  std::vector<int64_t> out_lo_, out_hi_;  // num_rows * out_ndim, bounds
  /// CSR over (row, output attribute): constraints [ref_start_[c],
  /// ref_start_[c + 1]) with c = r * out_ndim + j. Each constraint is the
  /// (input attribute, delta interval) of one relative input cell that
  /// references output attribute j.
  std::vector<int32_t> ref_start_;
  std::vector<int32_t> ref_in_;
  std::vector<int64_t> ref_dlo_, ref_dhi_;
  IntervalIndex in0_index_;  // over the absolute input attribute 0
};

}  // namespace dslog

#endif  // DSLOG_QUERY_THETA_JOIN_H_
