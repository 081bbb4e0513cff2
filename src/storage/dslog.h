// DSLog: the lineage storage, indexing, and query system (ICDE'24 §III).
// Tracks named arrays, ingests per-operation cell-level lineage (compressed
// with ProvRC on ingest), answers forward/backward path queries in situ,
// reuses lineage across repeated operations, and persists the catalog as a
// single LogStore file (SaveLogStore / AppendLogStore / OpenInSitu).
//
// Thread-safety: a DSLog is safe for any number of concurrent readers
// (ProvQuery, ProvQueryBatch, the const accessors, and the LogStore savers)
// interleaved with writers (DefineArray, RegisterOperation, StagedIngest).
// The edge catalog is one map under its own shared_mutex, separate from
// the lock over arrays and the reuse predictor. A query hop holds the edge
// lock shared just long enough to copy out the edge's (refcounted)
// payload, never across a segment decode or a θ-join; a writer holds it
// exclusively only for the map inserts. See docs/ARCHITECTURE.md
// ("Concurrency model") for the full contract.

#ifndef DSLOG_STORAGE_DSLOG_H_
#define DSLOG_STORAGE_DSLOG_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "lineage/lineage_relation.h"
#include "provrc/compressed_table.h"
#include "query/box.h"
#include "query/query_engine.h"
#include "storage/logstore.h"
#include "storage/signatures.h"

namespace dslog {

class StagedIngest;

/// Per-operation registration payload: the lineage captured between one
/// output array and each input array (nullptr capture = rely on reuse).
struct OperationRegistration {
  std::string op_name;
  std::vector<std::string> in_arrs;
  std::string out_arr;
  /// One relation per input array; may be empty when reuse is expected.
  std::vector<LineageRelation> captured;
  OpArgs args;
  /// Content hash of the input arrays (base_sig identity); 0 = unknown.
  uint64_t content_hash = 0;
  /// Enables signature bookkeeping and automatic reuse (§VI.C).
  bool reuse = true;
};

/// Configuration of DSLog::OpenInSitu.
struct InSituOptions {
  /// Mapping, checksum, and decode-cache behaviour of the backing LogStore.
  LogStoreOptions store;
};

/// The DSLog storage manager.
class DSLog {
 public:
  DSLog() = default;

  /// Movable (each instance keeps its own locks; the catalog state moves).
  /// Moving a DSLog that other threads are still using is a data race, as
  /// with any container.
  DSLog(DSLog&& other) noexcept;
  DSLog& operator=(DSLog&& other) noexcept;

  /// Defines a tracked array with a fixed shape (the Array() API of §III.A).
  Status DefineArray(const std::string& name, std::vector<int64_t> shape);

  /// True when `name` is a tracked array.
  bool HasArray(const std::string& name) const;
  Result<std::vector<int64_t>> ArrayShape(const std::string& name) const;

  /// Registers an executed operation (register_operation of §III.A).
  /// Lineage is ProvRC-compressed on ingest; when `registration.captured`
  /// is empty and a promoted signature matches, lineage is served from the
  /// reuse index instead. Captured lineage whose arity differs from the
  /// declared ranks of its arrays is InvalidArgument, with no catalog or
  /// reuse state changed.
  Result<ReuseOutcome> RegisterOperation(OperationRegistration registration);

  /// Answers prov_query(X, query_cells): lineage between cells of the first
  /// array on `path` and cells of the last (§III.A / §V). `query` holds
  /// boxes over the first array's indices; a hop whose edge does not take
  /// boxes of the incoming arity is InvalidArgument naming the hop.
  ///
  /// Isolation: each traversed edge is read atomically (a hop sees a fully
  /// registered edge or none), and the hop pins the edge's table for the
  /// query's duration, so a concurrent re-registration can never free data
  /// mid-join. Across hops the query is *not* a snapshot: an edge
  /// registered after the query started may be visible to a later hop.
  ///
  /// With `options.profile` set and `profile` non-null, fills `profile`
  /// with per-hop observability: edge identity and how each hop's segment
  /// resolved (cache hit / zero-copy borrow / decode, bytes, resolve time)
  /// from this layer, plus the join-execution fields from InSituQuery.
  ///
  /// With `options.cancel` set, the query polls the token at every hop
  /// boundary (before resolving a hop's segment and before running its
  /// θ-join) and returns Status::Cancelled once it observes cancellation,
  /// releasing every pin it holds; work inside a hop always runs to
  /// completion. A query whose token is cancelled concurrently with its
  /// final hop may return either the full result or Cancelled.
  Result<BoxTable> ProvQuery(const std::vector<std::string>& path,
                             const BoxTable& query,
                             const QueryOptions& options = {},
                             QueryProfile* profile = nullptr) const;

  /// Answers a batch of path queries (`paths[i]` evaluated against
  /// `queries[i]`). The calling thread and up to `options.num_threads` - 1
  /// threads started for this call claim entries from one counter; the
  /// width is also capped by the batch size and by max(8,
  /// hardware_concurrency), and is recorded in `dslog.query.batch_width`.
  /// This fan-out is the only query parallelism: each entry runs on one
  /// thread. Entry i of the result equals ProvQuery(paths[i], queries[i])
  /// exactly; on any entry failure the first (lowest-index) error is
  /// returned, annotated with its index.
  ///
  /// With `options.profile` set and `profiles` non-null, `profiles` is
  /// resized to the batch size and entry i receives entry i's
  /// QueryProfile (each batch worker writes only its own slot).
  Result<std::vector<BoxTable>> ProvQueryBatch(
      const std::vector<std::vector<std::string>>& paths,
      const std::vector<BoxTable>& queries,
      const QueryOptions& options = {},
      std::vector<QueryProfile>* profiles = nullptr) const;

  /// Direct access to a stored edge's compressed table (bench/test hook).
  /// The returned pointer stays valid for the catalog's lifetime (the
  /// catalog pins the table), but reflects the edge at first call: callers
  /// that overlap re-registrations should treat it as a presence check. On
  /// an in-situ catalog this materializes the edge's segment into an owned
  /// table on first call (even for zero-copy columnar segments — queries
  /// never pay this); nullptr if the edge is absent or its segment corrupt.
  const CompressedTable* FindEdge(const std::string& in_arr,
                                  const std::string& out_arr) const;

  /// Total serialized size of all stored lineage tables (ProvRC-GZip).
  /// In-situ edges report their on-disk segment length (no decode).
  int64_t StorageFootprintBytes() const;

  /// Snapshot of the reuse-predictor counters. Returned by value: a
  /// reference would race concurrent RegisterOperation updates.
  ReuseStats reuse_stats() const;

  // ---------------------------------------------- single-file LogStore --

  /// Opens a LogStore file for in-situ querying: the file is mapped, the
  /// reuse-predictor state is restored, and edge tables are decompressed
  /// lazily — a path query only decodes the segments it traverses
  /// (LRU-cached, size-bounded). No per-edge catalog state is materialized
  /// at open: mapped edges resolve through the store's perfect-hash
  /// segment index, so open cost is independent of the number of stored
  /// edges.
  /// The catalog stays writable: RegisterOperation adds ordinary in-memory
  /// edges next to the mapped ones (persist them with AppendLogStore); a
  /// resident edge shadows the mapped segment with the same key.
  static Result<DSLog> OpenInSitu(const std::string& path,
                                  const InSituOptions& options = {});

  /// Writes the catalog as a single LogStore file (atomic: temp + rename).
  /// Resident edges serialize in `layout` — kColumnar (the default) makes
  /// every segment the zero-copy scan format; kProvRcGzip writes the
  /// compact gzip segments. In-situ edges are shuttled as raw segments
  /// without re-encoding, keeping whatever layout they already have (so a
  /// store can legitimately mix layouts; dslog_inspect shows which is
  /// which). Concurrent ingest is safe; the saved edge set is a
  /// point-in-time snapshot.
  Status SaveLogStore(const std::string& path,
                      SegmentLayout layout = SegmentLayout::kColumnar) const;

  /// Incremental persistence: appends edges not yet present in the file at
  /// `path`, and edges whose lineage changed, plus the arrays and the
  /// current predictor state, through LogStoreWriter::OpenForAppend.
  /// Existing segments are not rewritten; the footer is. Resident edges
  /// append columnar; in-situ edges keep their segment's layout.
  ///
  /// Cost: O(changed) for segments and predictor state. A resident edge
  /// already on disk is recognized by its table's cached columnar digest
  /// (serialized at most once per table; only gzip segments are
  /// re-serialized to compare), a mapped edge by its own footer record, and
  /// the predictor blob is concatenated from encodings cached at
  /// insertion. Still O(footer): parsing the old footer, snapshotting the
  /// edge set and rebuilding the footer and its PHF index, i.e.
  /// O(#edges + predictor blob bytes).
  Status AppendLogStore(const std::string& path) const;

  /// The backing LogStore of an in-situ catalog (decode/cache stats), or
  /// nullptr for a fully in-memory catalog.
  std::shared_ptr<const LogStore> log_store() const;

 private:
  friend class StagedIngest;

  struct Edge {
    std::string in_arr;
    std::string out_arr;
    std::string op_name;
    /// Backward representation (outputs absolute). Refcounted so a query
    /// hop (or FindEdge pin) keeps the arenas alive after the edge lock
    /// is released, even across a concurrent re-registration. nullptr for
    /// lazy edges, which resolve through store_ by `segment`.
    std::shared_ptr<const CompressedTable> table;
    /// LogStore segment id backing this edge, or -1 when resident.
    int32_t segment = -1;
  };

  static std::string EdgeKey(const std::string& in_arr,
                             const std::string& out_arr) {
    return EdgeStoreKey(in_arr, out_arr);
  }

  /// Resolves edge in_arr -> out_arr: the resident map first (edge lock
  /// held shared only for the copy; the shared_ptr payloads outlive the
  /// lock), then — on a miss, when `store` is non-null — the store's
  /// segment index, synthesizing a lazy Edge from the matched segment's
  /// metadata. Returns false when neither holds the edge; an error only on
  /// store-index corruption. The edge lock is released before the store
  /// probe, so a concurrently committed resident edge may shadow the
  /// store's segment for one lookup but never produces a torn edge.
  Result<bool> FindEdgeCopy(const std::string& in_arr,
                            const std::string& out_arr, const LogStore* store,
                            Edge* out) const;

  /// Resolves a copied edge into a query hop's view + index + pin, with
  /// the index of the hop's direction (`forward`). Takes no catalog locks:
  /// resident edges view their pinned table, lazy edges resolve through
  /// `store` (which synchronizes internally). `ev`, when non-null, receives
  /// how a lazy edge's segment resolved (untouched for resident edges).
  Result<LogStore::PinnedTable> ResolveEdgeView(
      const Edge& edge, bool forward, const LogStore* store,
      LogStore::ViewEvent* ev = nullptr) const;

  /// Commits edges into the resident map under one exclusive edge-lock
  /// acquisition.
  void CommitEdges(std::vector<Edge> edges);

  /// Point-in-time copy of every edge, keyed by EdgeKey: the backing
  /// store's segments (as lazy edges) merged with the resident map,
  /// resident edges shadowing same-key segments. The edge lock is held
  /// shared only while the resident map is copied.
  std::map<std::string, Edge> SnapshotEdges() const;

  /// Guards arrays_, predictor_, and store_ (the catalog-level state).
  /// Lock order: catalog_mu_, then edges_mu_, then the LogStore's cache
  /// shard locks. edges_mu_ is never held while taking catalog_mu_ or
  /// across a LogStore decode.
  mutable std::shared_mutex catalog_mu_;
  std::map<std::string, std::vector<int64_t>> arrays_;
  ReusePredictor predictor_;
  /// Backing store of an in-situ catalog (nullptr otherwise). Const: the
  /// store's decode cache synchronizes internally, so readers can decode
  /// concurrently with no catalog lock held.
  std::shared_ptr<const LogStore> store_;

  /// The resident edge catalog, keyed by EdgeKey. Its own lock, so edge
  /// lookups never wait on the predictor bookkeeping that RegisterOperation
  /// and Drain do under catalog_mu_.
  mutable std::shared_mutex edges_mu_;
  std::map<std::string, Edge> edges_;

  /// Tables handed out by FindEdge, pinned for the catalog's lifetime so
  /// the returned raw pointers stay valid across re-registration and LRU
  /// eviction. Keyed by edge: repeat calls reuse one pin.
  mutable std::mutex findedge_pins_mu_;
  mutable std::map<std::string, std::shared_ptr<const CompressedTable>>
      findedge_pins_;
};

/// Per-thread staging log for batched ingest — the SmokedDuck
/// per-thread-log-then-PostProcess capture pattern: Add() validates and
/// ProvRC-compresses a captured registration with *no* catalog locks held;
/// Drain() commits the whole batch with one catalog-lock round trip (array
/// validation + reuse bookkeeping) and one edge-lock round trip (the map
/// inserts). K ingesting threads each own a stager, so ingest pays no
/// per-operation lock round trip and never holds a lock while compressing.
///
/// Only captured-lineage registrations can be staged (`captured` non-empty):
/// serving lineage *from* the reuse index would require reading the
/// predictor at Add() time, which is exactly the shared state staging
/// avoids — use DSLog::RegisterOperation for predicted ingest. A stager is
/// single-threaded; the DSLog must outlive it.
class StagedIngest {
 public:
  explicit StagedIngest(DSLog* log) : log_(log) {}

  /// Compresses `registration` and stages its edges. Takes no locks.
  /// Lineage ProvRC cannot encode is InvalidArgument here; array existence
  /// and arity are validated at Drain() time (arrays may legitimately be
  /// defined between Add and Drain).
  Status Add(OperationRegistration registration);

  /// Commits everything staged since the last Drain, in Add() order, and
  /// returns one ReuseOutcome per staged registration. On error (an
  /// undefined array, or lineage whose arity differs from its arrays'
  /// ranks) nothing is committed and the staged ops are kept.
  Result<std::vector<ReuseOutcome>> Drain();

  int64_t staged() const { return static_cast<int64_t>(ops_.size()); }

 private:
  struct StagedOp {
    OperationRegistration reg;  // captured relations already consumed
    std::vector<CompressedTable> tables;
  };

  DSLog* log_;
  std::vector<StagedOp> ops_;
};

}  // namespace dslog

#endif  // DSLOG_STORAGE_DSLOG_H_
