// The in-situ θ-join (ICDE'24 §V.B): a range join over interval cells plus
// de-relativization of relative attributes — evaluated directly on the
// compressed table, with no decompression.
//
// All kernels scan the flat columnar layout through a CompressedTableView,
// so they run identically over an owned table and over bytes borrowed from
// an mmap'd v2 LogStore segment (true in-situ). Both joins are
// index-backed: a per-table, per-direction sorted interval index
// (provrc/interval_index.h) over the attribute a point probe hits least
// prunes candidate rows to the probe's overlap set instead of scanning.
// Pass the table's cached index for the join's direction
// (CompressedTable::BackwardIndex / ForwardIndex, or the one a LogStore
// View pins), or nullptr to have the kernel build an ephemeral one.
//
// Backward joins take a query over the table's *output* attributes (which
// are absolute) and return the linked input cells via rel_back.
// Forward joins take a query over *input* attributes and run directly
// against the backward representation, de-relativizing each row on the fly
// with the clamped rel_for (the §IV.C forward table is never stored). (The
// published rel_for formula is garbled; see docs/ARCHITECTURE.md for the
// derivation used here, which property tests validate against the
// uncompressed ground truth.)

#ifndef DSLOG_QUERY_THETA_JOIN_H_
#define DSLOG_QUERY_THETA_JOIN_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "provrc/compressed_table.h"
#include "provrc/interval_index.h"
#include "query/box.h"

namespace dslog {

/// Instrumentation sink for one join call (query profiling). The contract
/// that keeps profiling out of the hot path: kernels count into plain
/// local integers and flush them here ONCE per kernel invocation — with a
/// partitioned join, once per partition — so the per-candidate inner loop
/// never touches an atomic, profiled or not. `counters == nullptr` is the
/// default everywhere.
struct JoinCounters {
  /// Query boxes evaluated (index probes issued).
  std::atomic<int64_t> probes{0};
  /// Candidate rows enumerated by the interval index across all probes.
  std::atomic<int64_t> rows_scanned{0};
  /// Boxes emitted by the kernels, before any Merge canonicalization.
  std::atomic<int64_t> rows_emitted{0};
  /// Microseconds spent in BoxTable::Merge (merge_result joins), added once
  /// per Merge call. Summed over workers, so a partitioned join can report
  /// more than its wall time.
  std::atomic<int64_t> merge_us{0};
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
/// `index` is the table's backward index (BuildBackwardIndex); pass nullptr
/// to have the kernel build an ephemeral one for this call.
BoxTable BackwardThetaJoin(const BoxTable& query,
                           const CompressedTableView& table,
                           const IntervalIndex* index = nullptr,
                           int num_threads = 1, bool merge_result = false,
                           JoinCounters* counters = nullptr);

/// Convenience overload over an owned table: uses (and lazily builds) the
/// table's cached index.
BoxTable BackwardThetaJoin(const BoxTable& query, const CompressedTable& table,
                           int num_threads = 1, bool merge_result = false,
                           JoinCounters* counters = nullptr);

/// Forward θ-join evaluated directly on the backward representation:
/// query boxes over input attributes -> output-cell boxes. `index` is the
/// table's forward index (BuildForwardIndex, over the rows' implied
/// absolute input intervals); pass nullptr to have the kernel build an
/// ephemeral one for this call.
BoxTable ForwardThetaJoin(const BoxTable& query,
                          const CompressedTableView& table,
                          const IntervalIndex* index = nullptr,
                          int num_threads = 1, bool merge_result = false,
                          JoinCounters* counters = nullptr);

/// Convenience overload over an owned table: uses (and lazily builds) the
/// table's cached forward index.
BoxTable ForwardThetaJoin(const BoxTable& query, const CompressedTable& table,
                          int num_threads = 1, bool merge_result = false,
                          JoinCounters* counters = nullptr);

}  // namespace dslog

#endif  // DSLOG_QUERY_THETA_JOIN_H_
