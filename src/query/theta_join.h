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

#include <cstdint>

#include "provrc/compressed_table.h"
#include "provrc/interval_index.h"
#include "query/box.h"

namespace dslog {

/// Instrumentation sink for one join call (query profiling). The contract
/// that keeps profiling out of the hot path: kernels count into local
/// integers and add them here ONCE per join call, so the per-candidate
/// inner loop never writes through this pointer, profiled or not.
/// `counters == nullptr` is the default everywhere.
struct JoinCounters {
  /// Query boxes evaluated (index probes issued).
  int64_t probes = 0;
  /// Candidate rows enumerated by the interval index across all probes.
  int64_t rows_scanned = 0;
  /// Boxes emitted by the kernel. Joins never Merge their output; the
  /// §V.B.3 merge between hops is InSituQuery's.
  int64_t rows_emitted = 0;
};

// Every join runs on the caller's thread and returns the raw kernel output
// in query-box order. Parallelism lives one level up: ProvQueryBatch fans
// whole queries across threads started for each batch.

/// Backward θ-join: query boxes over output attributes -> input-cell boxes.
/// `index` is the table's backward index (BuildBackwardIndex); pass nullptr
/// to have the kernel build an ephemeral one for this call.
BoxTable BackwardThetaJoin(const BoxTable& query,
                           const CompressedTableView& table,
                           const IntervalIndex* index = nullptr,
                           JoinCounters* counters = nullptr);

/// Convenience overload over an owned table: uses (and lazily builds) the
/// table's cached index.
BoxTable BackwardThetaJoin(const BoxTable& query, const CompressedTable& table,
                           JoinCounters* counters = nullptr);

/// Forward θ-join evaluated directly on the backward representation:
/// query boxes over input attributes -> output-cell boxes. `index` is the
/// table's forward index (BuildForwardIndex, over the rows' implied
/// absolute input intervals); pass nullptr to have the kernel build an
/// ephemeral one for this call.
BoxTable ForwardThetaJoin(const BoxTable& query,
                          const CompressedTableView& table,
                          const IntervalIndex* index = nullptr,
                          JoinCounters* counters = nullptr);

/// Convenience overload over an owned table: uses (and lazily builds) the
/// table's cached forward index.
BoxTable ForwardThetaJoin(const BoxTable& query, const CompressedTable& table,
                          JoinCounters* counters = nullptr);

}  // namespace dslog

#endif  // DSLOG_QUERY_THETA_JOIN_H_
