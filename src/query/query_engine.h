// Multi-hop lineage query evaluation over compressed tables: the left-to-
// right θ-join plan with projection + row-reduction merge between hops
// (ICDE'24 §V.B.3). Also hosts the uncompressed natural-join evaluation
// used as ground truth and by the storage-format baselines.

#ifndef DSLOG_QUERY_QUERY_ENGINE_H_
#define DSLOG_QUERY_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "lineage/lineage_relation.h"
#include "provrc/compressed_table.h"
#include "provrc/interval_index.h"
#include "query/box.h"

namespace dslog {

/// One step in a query path: a columnar view of the hop's stored table
/// (owned arenas or bytes borrowed from an mmap'd LogStore segment) plus
/// the traversal direction. `forward` means the traversal goes from the
/// stored relation's input array to its output array; forward hops run the
/// direct join over the backward representation (ForwardThetaJoin).
struct QueryHop {
  QueryHop() = default;
  /// Hop over an owned table: captures its view and shares its cached
  /// index for the hop's direction (ForwardIndex or BackwardIndex). The
  /// table itself must outlive the hop (as before); the pin keeps only the
  /// index alive.
  QueryHop(const CompressedTable* table, bool forward)
      : table(table->view()), forward(forward) {
    auto idx = forward ? table->ForwardIndex() : table->BackwardIndex();
    index = idx.get();
    pin = std::move(idx);
  }

  CompressedTableView table;
  bool forward = false;
  /// The table's interval index for this hop's direction (the join probes
  /// it instead of scanning). nullptr = build ephemerally per join.
  const IntervalIndex* index = nullptr;
  /// Keeps the view's backing storage (and `index`) alive for the query:
  /// hops over lazily-decoded LogStore segments pin the cache entry here
  /// so a concurrent eviction cannot free it mid-query.
  std::shared_ptr<const void> pin;
};

/// Per-hop observability record of a profiled query. Storage fields are
/// filled by DSLog::ProvQuery (which knows the edge and how its segment
/// resolved); join fields by InSituQuery from the hop's JoinCounters.
struct HopProfile {
  // --- edge identity (empty for hand-built InSituQuery hop vectors) ---
  std::string in_arr;
  std::string out_arr;
  std::string op_name;
  bool forward = false;

  // --- segment resolution (LogStore-backed hops only) ---
  bool from_store = false;  // hop resolved through a LogStore segment
  bool cache_hit = false;   // served from the decode LRU, no resolve paid
  bool borrowed = false;    // v2 zero-copy borrow (no decode, no copy)
  int64_t segment_bytes = 0;        // on-disk segment length
  int64_t bytes_decompressed = 0;   // gzip input consumed by this resolve
  int64_t rows_materialized = 0;    // rows copied into owned arenas
  int64_t resolve_us = 0;           // checksum + decode + index build

  // --- θ-join execution ---
  int64_t table_rows = 0;    // rows of the hop's stored table
  int64_t probes = 0;        // query boxes probed into the hop
  int64_t rows_scanned = 0;  // candidate rows the interval index enumerated
  int64_t rows_emitted = 0;  // boxes emitted by the kernels (pre-Merge)
  int64_t result_boxes = 0;  // boxes handed to the next hop (post-Merge)
  /// Time in the §V.B.3 merge (BoxTable::Merge) after this hop's join,
  /// part of wall_ms; 0 with merge_between_hops off.
  int64_t merge_us = 0;
  /// Always 0 and not exported: there is no cost model to estimate rows.
  /// The field stays only because the end-to-end benchmark (bench/e2e)
  /// still reads it for its query.planner_est_error metric.
  double est_rows = 0.0;
  double wall_ms = 0.0;
};

/// Observability record of one profiled query (QueryOptions::profile).
/// Collection costs one JoinCounters flush per kernel invocation and a few
/// clock reads per hop — nothing in the per-candidate inner loops.
struct QueryProfile {
  std::string simd_isa;  // compile-time SIMD dispatch (common/simd.h)
  bool merge_between_hops = true;
  double wall_ms = 0.0;
  int64_t result_boxes = 0;
  std::vector<HopProfile> hops;

  /// One JSON object (stable field order; hops as an array).
  std::string ToJson() const;
  /// Human-readable multi-line dump (one hop per line).
  std::string ToText() const;
};

struct QueryOptions {
  /// Projection + adjacent-interval merge between hops (§V.B.3). Disabling
  /// reproduces the DSLog-NoMerge baseline of Fig 9.
  bool merge_between_hops = true;
  /// Fan-out width of DSLog::ProvQueryBatch: up to this many batch
  /// entries run at once, on threads started for that call. A single query
  /// always runs on its caller's thread, so ProvQuery and InSituQuery
  /// ignore it.
  int num_threads = 1;
  /// Collect a QueryProfile (pass one to InSituQuery/ProvQuery) and enable
  /// trace spans (common/trace.h) for the query's duration. false keeps
  /// the hot path exactly as unprofiled builds always ran it: no atomics
  /// in join inner loops, no clock reads per hop.
  bool profile = false;
  /// Cooperative cancellation, polled at hop boundaries only (never inside
  /// a join inner loop): DSLog::ProvQuery polls before resolving each
  /// hop's segment, InSituQuery before running each hop's θ-join. Non-
  /// owning — the token must outlive the query (the network server keeps
  /// one per in-flight request and cancels it on a Cancel frame or session
  /// teardown). A cancelled ProvQuery returns Status::Cancelled with every
  /// hop pin released; a cancelled bare InSituQuery returns an empty
  /// table. nullptr (the default) costs nothing.
  CancelToken* cancel = nullptr;
};

/// Evaluates a multi-hop in-situ query: `query` holds boxes over the first
/// array on the path; the result holds boxes over the last array.
/// With `options.profile` set and `profile` non-null, fills `profile` with
/// per-hop execution detail; hop entries that already exist (DSLog::
/// ProvQuery pre-fills edge identity and segment-resolution fields) keep
/// those fields and gain the join fields.
BoxTable InSituQuery(const std::vector<QueryHop>& hops, const BoxTable& query,
                     const QueryOptions& options = {},
                     QueryProfile* profile = nullptr);

/// One step over an *uncompressed* relation. `frontier` holds flattened
/// cell tuples of the current array (arity = relation side arity).
/// Returns the flattened tuples of the far side. Hash natural join.
std::vector<int64_t> RelationJoinStep(const LineageRelation& relation,
                                      bool forward,
                                      const std::vector<int64_t>& frontier);

/// Multi-hop uncompressed query (the Raw/baseline execution path and the
/// ground truth for property tests).
struct RelationHop {
  const LineageRelation* relation = nullptr;
  bool forward = false;
};
std::vector<int64_t> UncompressedQuery(const std::vector<RelationHop>& hops,
                                       const std::vector<int64_t>& query_cells);

}  // namespace dslog

#endif  // DSLOG_QUERY_QUERY_ENGINE_H_
