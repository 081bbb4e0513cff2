#include "storage/dslog.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "common/hash.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"
#include "provrc/provrc.h"
#include "provrc/serialize.h"

namespace dslog {

namespace {

/// Everything a query hop must keep alive after the edge lock drops:
/// the edge's refcounted payloads plus (for lazy edges) the store's cache
/// pin. The store itself stays alive through ProvQuery's own reference.
struct HopPin {
  std::shared_ptr<const CompressedTable> table;
  std::shared_ptr<const void> store_pin;
};

/// ProvRcCompress aborts on a relation it cannot encode: an arity outside
/// [1, 31] on the output side, below 1 on the input side, or shapes never
/// set. Ingest checks this first so such lineage is a typed error.
Status CheckCompressible(const OperationRegistration& reg) {
  for (const LineageRelation& rel : reg.captured) {
    if (rel.out_ndim() < 1 || rel.out_ndim() > 31 || rel.in_ndim() < 1 ||
        rel.out_shape().size() != static_cast<size_t>(rel.out_ndim()) ||
        rel.in_shape().size() != static_cast<size_t>(rel.in_ndim()))
      return Status::InvalidArgument(
          reg.op_name + ": captured lineage needs 1-31 output and at least "
                        "1 input dimensions, with shapes set");
  }
  return Status::OK();
}

/// Rejects lineage whose arity disagrees with the declared ranks of its
/// edge's arrays: every later join over the edge would otherwise fail the
/// θ-join kernels' arity check.
Status CheckEdgeArity(const std::string& op_name, const std::string& in_arr,
                      const std::string& out_arr, int out_ndim, int in_ndim,
                      const std::vector<int64_t>& out_shape,
                      const std::vector<int64_t>& in_shape) {
  if (static_cast<size_t>(out_ndim) == out_shape.size() &&
      static_cast<size_t>(in_ndim) == in_shape.size())
    return Status::OK();
  return Status::InvalidArgument(
      op_name + ": lineage " + in_arr + " -> " + out_arr + " relates " +
      std::to_string(out_ndim) + "-d output cells to " +
      std::to_string(in_ndim) + "-d input cells, but the arrays are " +
      std::to_string(out_shape.size()) + "-d and " +
      std::to_string(in_shape.size()) + "-d");
}

}  // namespace

DSLog::DSLog(DSLog&& other) noexcept {
  std::unique_lock catalog_lock(other.catalog_mu_);
  std::unique_lock edges_lock(other.edges_mu_);
  arrays_ = std::move(other.arrays_);
  predictor_ = std::move(other.predictor_);
  store_ = std::move(other.store_);
  findedge_pins_ = std::move(other.findedge_pins_);
  edges_ = std::move(other.edges_);
  other.edges_.clear();  // leave other valid (empty), as move-from promises
}

DSLog& DSLog::operator=(DSLog&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock catalog_locks(catalog_mu_, other.catalog_mu_);
  std::scoped_lock edges_locks(edges_mu_, other.edges_mu_);
  arrays_ = std::move(other.arrays_);
  predictor_ = std::move(other.predictor_);
  store_ = std::move(other.store_);
  {
    std::scoped_lock pins(findedge_pins_mu_, other.findedge_pins_mu_);
    findedge_pins_ = std::move(other.findedge_pins_);
  }
  edges_ = std::move(other.edges_);
  other.edges_.clear();
  return *this;
}

Status DSLog::DefineArray(const std::string& name, std::vector<int64_t> shape) {
  if (name.empty()) return Status::InvalidArgument("array name empty");
  std::unique_lock lock(catalog_mu_);
  auto [it, inserted] = arrays_.try_emplace(name, std::move(shape));
  if (!inserted) return Status::AlreadyExists("array already defined: " + name);
  return Status::OK();
}

bool DSLog::HasArray(const std::string& name) const {
  std::shared_lock lock(catalog_mu_);
  return arrays_.count(name) > 0;
}

Result<std::vector<int64_t>> DSLog::ArrayShape(const std::string& name) const {
  std::shared_lock lock(catalog_mu_);
  auto it = arrays_.find(name);
  if (it == arrays_.end()) return Status::NotFound("array not defined: " + name);
  return it->second;
}

void DSLog::CommitEdges(std::vector<Edge> edges) {
  // Held just for the map inserts (tables were compressed long before).
  std::unique_lock lock(edges_mu_);
  for (Edge& edge : edges) {
    std::string key = EdgeKey(edge.in_arr, edge.out_arr);
    edges_[std::move(key)] = std::move(edge);
  }
}

Result<ReuseOutcome> DSLog::RegisterOperation(OperationRegistration reg) {
  if (!reg.captured.empty() && reg.captured.size() != reg.in_arrs.size())
    return Status::InvalidArgument("one captured relation per input required");
  DSLOG_RETURN_IF_ERROR(CheckCompressible(reg));
  // Fast-fail on unknown arrays and on captured lineage of the wrong arity
  // before paying for compression (a defined array's shape never changes).
  // The shapes are read again under the writer lock below.
  {
    std::shared_lock lock(catalog_mu_);
    auto out_it = arrays_.find(reg.out_arr);
    if (out_it == arrays_.end())
      return Status::NotFound("output array not defined: " + reg.out_arr);
    for (size_t i = 0; i < reg.in_arrs.size(); ++i) {
      auto in_it = arrays_.find(reg.in_arrs[i]);
      if (in_it == arrays_.end())
        return Status::NotFound("input array not defined: " + reg.in_arrs[i]);
      if (reg.captured.empty()) continue;
      DSLOG_RETURN_IF_ERROR(CheckEdgeArity(
          reg.op_name, reg.in_arrs[i], reg.out_arr,
          reg.captured[i].out_ndim(), reg.captured[i].in_ndim(),
          out_it->second, in_it->second));
    }
  }

  // Compress the captured lineage before taking any lock: it is the
  // expensive part of ingest and touches no shared state, so concurrent
  // readers are only blocked for the catalog update.
  std::vector<CompressedTable> captured_tables;
  captured_tables.reserve(reg.captured.size());
  for (const LineageRelation& rel : reg.captured)
    captured_tables.push_back(ProvRcCompress(rel));

  std::vector<CompressedTable> tables;
  ReuseOutcome outcome;
  {
    std::unique_lock lock(catalog_mu_);
    auto out_it = arrays_.find(reg.out_arr);
    if (out_it == arrays_.end())
      return Status::NotFound("output array not defined: " + reg.out_arr);
    std::vector<std::vector<int64_t>> in_shapes;
    for (const auto& in : reg.in_arrs) {
      auto in_it = arrays_.find(in);
      if (in_it == arrays_.end())
        return Status::NotFound("input array not defined: " + in);
      in_shapes.push_back(in_it->second);
    }
    const std::vector<int64_t>& out_shape = out_it->second;

    if (!reg.captured.empty()) {
      tables = std::move(captured_tables);
      if (reg.reuse) {
        outcome = predictor_.ProcessRegistration(
            reg.op_name, reg.args, in_shapes, out_shape, reg.content_hash,
            tables);
      }
    } else {
      if (!reg.reuse)
        return Status::InvalidArgument(
            "no capture provided and reuse disabled for " + reg.op_name);
      tables = predictor_.Predict(reg.op_name, reg.args, in_shapes, out_shape);
      if (tables.empty())
        return Status::NotFound("no promoted reuse mapping for " + reg.op_name);
      outcome.dim_hit = true;  // served from the reuse index
    }
  }  // catalog lock released: edge commit takes only the edge lock.

  if (tables.size() != reg.in_arrs.size())
    return Status::Internal("table count mismatch");
  std::vector<Edge> edges;
  edges.reserve(reg.in_arrs.size());
  for (size_t i = 0; i < reg.in_arrs.size(); ++i) {
    Edge edge;
    edge.in_arr = reg.in_arrs[i];
    edge.out_arr = reg.out_arr;
    edge.op_name = reg.op_name;
    edge.table =
        std::make_shared<const CompressedTable>(std::move(tables[i]));
    edges.push_back(std::move(edge));
  }
  CommitEdges(std::move(edges));
  return outcome;
}

// ----------------------------------------------------------- staged ingest --

Status StagedIngest::Add(OperationRegistration reg) {
  if (reg.captured.empty())
    return Status::InvalidArgument(
        "StagedIngest requires captured lineage (predicted ingest reads the "
        "reuse index; use RegisterOperation): " +
        reg.op_name);
  if (reg.captured.size() != reg.in_arrs.size())
    return Status::InvalidArgument("one captured relation per input required");
  DSLOG_RETURN_IF_ERROR(CheckCompressible(reg));
  StagedOp op;
  op.tables.reserve(reg.captured.size());
  for (const LineageRelation& rel : reg.captured)
    op.tables.push_back(ProvRcCompress(rel));
  reg.captured.clear();
  op.reg = std::move(reg);
  ops_.push_back(std::move(op));
  return Status::OK();
}

Result<std::vector<ReuseOutcome>> StagedIngest::Drain() {
  static metrics::Counter& drains =
      metrics::Registry::Global().counter("dslog.ingest.drains");
  static metrics::Counter& drained_ops =
      metrics::Registry::Global().counter("dslog.ingest.ops_drained");
  static metrics::Histogram& drain_us =
      metrics::Registry::Global().histogram("dslog.ingest.drain_us");
  trace::Span span("StagedIngest.Drain", "ingest");
  span.Arg("ops", staged());
  WallTimer timer;
  std::vector<ReuseOutcome> outcomes(ops_.size());
  {
    // One catalog-lock round trip for the whole batch: validate every
    // array and every edge's arity, then run reuse bookkeeping for the ops
    // that asked for it. Validation completes before the first predictor
    // mutation so an error drain leaves the catalog untouched.
    std::unique_lock lock(log_->catalog_mu_);
    for (const StagedOp& op : ops_) {
      auto out_it = log_->arrays_.find(op.reg.out_arr);
      if (out_it == log_->arrays_.end())
        return Status::NotFound("output array not defined: " + op.reg.out_arr);
      for (size_t i = 0; i < op.reg.in_arrs.size(); ++i) {
        auto in_it = log_->arrays_.find(op.reg.in_arrs[i]);
        if (in_it == log_->arrays_.end())
          return Status::NotFound("input array not defined: " +
                                  op.reg.in_arrs[i]);
        DSLOG_RETURN_IF_ERROR(CheckEdgeArity(
            op.reg.op_name, op.reg.in_arrs[i], op.reg.out_arr,
            op.tables[i].out_ndim(), op.tables[i].in_ndim(), out_it->second,
            in_it->second));
      }
    }
    for (size_t i = 0; i < ops_.size(); ++i) {
      StagedOp& op = ops_[i];
      if (!op.reg.reuse) continue;
      std::vector<std::vector<int64_t>> in_shapes;
      for (const auto& in : op.reg.in_arrs)
        in_shapes.push_back(log_->arrays_.at(in));
      outcomes[i] = log_->predictor_.ProcessRegistration(
          op.reg.op_name, op.reg.args, in_shapes,
          log_->arrays_.at(op.reg.out_arr), op.reg.content_hash, op.tables);
    }
  }

  std::vector<DSLog::Edge> edges;
  for (StagedOp& op : ops_) {
    for (size_t i = 0; i < op.reg.in_arrs.size(); ++i) {
      DSLog::Edge edge;
      edge.in_arr = op.reg.in_arrs[i];
      edge.out_arr = op.reg.out_arr;
      edge.op_name = op.reg.op_name;
      edge.table =
          std::make_shared<const CompressedTable>(std::move(op.tables[i]));
      edges.push_back(std::move(edge));
    }
  }
  drained_ops.Add(static_cast<int64_t>(ops_.size()));
  log_->CommitEdges(std::move(edges));
  ops_.clear();
  drains.Increment();
  drain_us.Record(static_cast<int64_t>(timer.ElapsedSeconds() * 1e6));
  return outcomes;
}

// ----------------------------------------------------------------- queries --

Result<bool> DSLog::FindEdgeCopy(const std::string& in_arr,
                                 const std::string& out_arr,
                                 const LogStore* store, Edge* out) const {
  {
    const std::string key = EdgeKey(in_arr, out_arr);
    std::shared_lock lock(edges_mu_);
    auto it = edges_.find(key);
    if (it != edges_.end()) {
      *out = it->second;  // string + shared_ptr copies only
      return true;
    }
  }
  // Resident miss: probe the store's perfect-hash segment index (O(1), and
  // it touches no segment bytes). Mapped edges are never materialized into
  // the resident map, so this is the common path for an in-situ catalog.
  if (store == nullptr) return false;
  DSLOG_ASSIGN_OR_RETURN(int64_t segment,
                         store->FindSegmentId(in_arr, out_arr));
  if (segment < 0) return false;
  const LogStore::SegmentInfo seg =
      store->segment_info(static_cast<size_t>(segment));
  out->in_arr = seg.in_arr;
  out->out_arr = seg.out_arr;
  out->op_name = seg.op_name;
  out->table = nullptr;
  out->segment = static_cast<int32_t>(segment);
  return true;
}

Result<LogStore::PinnedTable> DSLog::ResolveEdgeView(
    const Edge& edge, bool forward, const LogStore* store,
    LogStore::ViewEvent* ev) const {
  if (edge.segment < 0) {
    // Resident edge: view the pinned table's arenas. The pin carries the
    // lazily-built index of the hop's direction so eviction semantics
    // match lazy edges.
    LogStore::PinnedTable pinned;
    pinned.view = edge.table->view();
    auto index =
        forward ? edge.table->ForwardIndex() : edge.table->BackwardIndex();
    pinned.index = index.get();
    pinned.pin = std::move(index);
    return pinned;
  }
  if (store == nullptr)
    return Status::Internal("lazy edge without a backing store: " +
                            edge.in_arr + " -> " + edge.out_arr);
  return store->View(static_cast<size_t>(edge.segment), forward, ev);
}

const CompressedTable* DSLog::FindEdge(const std::string& in_arr,
                                       const std::string& out_arr) const {
  std::shared_ptr<const LogStore> store = log_store();
  Edge edge;
  auto found = FindEdgeCopy(in_arr, out_arr, store.get(), &edge);
  if (!found.ok() || !found.value()) return nullptr;
  const std::string key = EdgeKey(in_arr, out_arr);
  {
    std::lock_guard<std::mutex> pins_lock(findedge_pins_mu_);
    auto pin_it = findedge_pins_.find(key);
    if (pin_it != findedge_pins_.end()) return pin_it->second.get();
  }
  std::shared_ptr<const CompressedTable> table;
  if (edge.segment < 0) {
    table = edge.table;
  } else {
    if (store == nullptr) return nullptr;
    auto materialized = store->Table(static_cast<size_t>(edge.segment));
    if (!materialized.ok()) return nullptr;
    table = std::move(materialized).ValueOrDie();
  }
  std::lock_guard<std::mutex> pins_lock(findedge_pins_mu_);
  return findedge_pins_.emplace(key, std::move(table)).first->second.get();
}

Result<BoxTable> DSLog::ProvQuery(const std::vector<std::string>& path,
                                  const BoxTable& query,
                                  const QueryOptions& options,
                                  QueryProfile* profile) const {
  if (path.size() < 2)
    return Status::InvalidArgument("query path needs >= 2 arrays");
  const bool prof = options.profile && profile != nullptr;
  if (prof) profile->hops.clear();
  // One brief catalog-lock acquisition to pin the backing store for the
  // query's duration; every hop after this takes only the edge lock.
  std::shared_ptr<const LogStore> store = log_store();
  std::vector<QueryHop> hops;
  // Arity of the boxes entering the next hop: the query's, then each hop's
  // far side. A mismatch is a caller error, rejected before any join runs.
  int frontier_ndim = query.ndim();
  for (size_t k = 0; k + 1 < path.size(); ++k) {
    // Cancellation boundary: poll before paying for this hop's edge lookup,
    // segment resolve, and index build. Already-built hops' pins release on
    // return (the hops vector destructs here).
    if (options.cancel != nullptr && options.cancel->ShouldStop())
      return Status::Cancelled("query cancelled before hop " +
                               std::to_string(k));
    Edge edge;
    bool forward;
    // Forward hop: path[k] is the relation's input array; backward hop:
    // path[k] is its output array. Each lookup copies the edge out under
    // the edge lock, held shared — the lock is dropped before any decode or
    // index build (the "edge lock never held across decode" contract) —
    // then falls back to the pinned store's segment index.
    DSLOG_ASSIGN_OR_RETURN(
        bool fwd, FindEdgeCopy(path[k], path[k + 1], store.get(), &edge));
    if (fwd) {
      forward = true;
    } else {
      DSLOG_ASSIGN_OR_RETURN(
          bool bwd, FindEdgeCopy(path[k + 1], path[k], store.get(), &edge));
      if (!bwd)
        return Status::NotFound("no lineage between " + path[k] + " and " +
                                path[k + 1]);
      forward = false;
    }
    LogStore::ViewEvent ev;
    DSLOG_ASSIGN_OR_RETURN(
        auto pinned,
        ResolveEdgeView(edge, forward, store.get(), prof ? &ev : nullptr));
    const int enter_ndim =
        forward ? pinned.view.in_ndim : pinned.view.out_ndim;
    if (enter_ndim != frontier_ndim)
      return Status::InvalidArgument(
          "query arity mismatch at hop " + std::to_string(k) + " (" +
          path[k] + " -> " + path[k + 1] + "): " +
          std::to_string(frontier_ndim) + "-d boxes, " + path[k] + " is " +
          std::to_string(enter_ndim) + "-d");
    frontier_ndim = forward ? pinned.view.out_ndim : pinned.view.in_ndim;
    if (prof) {
      // Pre-fill this hop's edge identity + segment-resolution fields;
      // InSituQuery keeps them and adds the join-execution fields.
      HopProfile hp;
      hp.in_arr = edge.in_arr;
      hp.out_arr = edge.out_arr;
      hp.op_name = edge.op_name;
      hp.from_store = edge.segment >= 0;
      hp.cache_hit = ev.cache_hit;
      hp.borrowed = ev.borrowed;
      hp.segment_bytes = ev.segment_bytes;
      hp.bytes_decompressed = ev.bytes_decompressed;
      hp.rows_materialized = ev.rows_materialized;
      hp.resolve_us = ev.resolve_us;
      profile->hops.push_back(std::move(hp));
    }
    QueryHop hop;
    hop.table = pinned.view;
    hop.forward = forward;
    hop.index = pinned.index;
    auto pin = std::make_shared<HopPin>();
    pin->table = std::move(edge.table);
    pin->store_pin = std::move(pinned.pin);
    hop.pin = std::move(pin);
    hops.push_back(std::move(hop));
  }
  BoxTable result = InSituQuery(hops, query, options, prof ? profile : nullptr);
  // A token armed mid-execution made InSituQuery bail between hops with an
  // empty table; surface that as a typed status rather than an (incorrect)
  // empty answer. Pins release with `hops` on return either way.
  if (options.cancel != nullptr && options.cancel->cancelled()) {
    static metrics::Counter& cancelled =
        metrics::Registry::Global().counter("dslog.query.cancelled");
    cancelled.Increment();
    return Status::Cancelled("query cancelled between hops");
  }
  return result;
}

Result<std::vector<BoxTable>> DSLog::ProvQueryBatch(
    const std::vector<std::vector<std::string>>& paths,
    const std::vector<BoxTable>& queries, const QueryOptions& options,
    std::vector<QueryProfile>* profiles) const {
  if (paths.size() != queries.size())
    return Status::InvalidArgument(
        "ProvQueryBatch: paths/queries size mismatch (" +
        std::to_string(paths.size()) + " vs " +
        std::to_string(queries.size()) + ")");
  const int64_t n = static_cast<int64_t>(paths.size());
  if (n == 0) return std::vector<BoxTable>{};

  // The calling thread and width - 1 threads started for this call claim
  // entries from one counter. The cap is the hardware concurrency, at least
  // 8, so thread-count sweeps behave the same on small machines.
  const int64_t cap = std::max<int64_t>(
      8, static_cast<int64_t>(std::thread::hardware_concurrency()));
  const int64_t width = std::min(
      {n, static_cast<int64_t>(std::max(1, options.num_threads)), cap});
  static metrics::Histogram& batch_width =
      metrics::Registry::Global().histogram("dslog.query.batch_width");
  batch_width.Record(width);

  const bool prof = options.profile && profiles != nullptr;
  if (prof) {
    profiles->clear();
    profiles->resize(paths.size());
  }
  std::vector<BoxTable> results(paths.size());
  std::vector<Status> statuses(paths.size(), Status::OK());
  std::atomic<int64_t> next{0};
  auto run_entries = [&] {
    for (int64_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      const size_t idx = static_cast<size_t>(i);
      // Entries lock nothing beyond per-hop edge-lock reads, so concurrent
      // writers make progress throughout a long batch. Each profiled entry
      // writes only its own pre-sized slot.
      auto r = ProvQuery(paths[idx], queries[idx], options,
                         prof ? &(*profiles)[idx] : nullptr);
      if (r.ok())
        results[idx] = std::move(r).value();
      else
        statuses[idx] = r.status();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(width - 1));
  for (int64_t t = 1; t < width; ++t) threads.emplace_back(run_entries);
  run_entries();
  for (std::thread& t : threads) t.join();

  for (size_t i = 0; i < statuses.size(); ++i)
    if (!statuses[i].ok())
      return statuses[i].WithMessagePrefix("batch entry " +
                                           std::to_string(i) + ": ");
  return results;
}

// --------------------------------------------------------------- snapshots --

std::map<std::string, DSLog::Edge> DSLog::SnapshotEdges() const {
  std::map<std::string, Edge> all;
  // Mapped edges first: the store's segments are immutable, so enumerating
  // them takes no lock. Resident edges overwrite same-key entries below —
  // a re-registered edge shadows the stale persisted segment.
  if (std::shared_ptr<const LogStore> store = log_store()) {
    for (size_t i = 0; i < store->segment_count(); ++i) {
      const LogStore::SegmentInfo seg = store->segment_info(i);
      Edge edge;
      edge.in_arr = seg.in_arr;
      edge.out_arr = seg.out_arr;
      edge.op_name = seg.op_name;
      edge.segment = static_cast<int32_t>(i);
      all[EdgeKey(seg.in_arr, seg.out_arr)] = std::move(edge);
    }
  }
  std::shared_lock lock(edges_mu_);
  for (const auto& [key, edge] : edges_) all[key] = edge;
  return all;
}

int64_t DSLog::StorageFootprintBytes() const {
  std::map<std::string, Edge> edges = SnapshotEdges();
  std::shared_ptr<const LogStore> store = log_store();
  int64_t total = 0;
  for (const auto& [key, edge] : edges) {
    if (edge.segment >= 0)
      total += store->segment_length(static_cast<size_t>(edge.segment));
    else
      total += static_cast<int64_t>(
          SerializeCompressedTableGzip(*edge.table).size());
  }
  return total;
}

ReuseStats DSLog::reuse_stats() const {
  std::shared_lock lock(catalog_mu_);
  return predictor_.stats();
}

namespace {

/// One edge's bytes ready for a LogStoreWriter: resident tables serialize
/// in the caller's preferred layout; in-situ segments are shuttled raw
/// (whatever layout they already have), no decode/re-encode.
struct EdgeSegmentBytes {
  std::string bytes;
  SegmentLayout layout = SegmentLayout::kProvRcGzip;
  int64_t row_count = -1;
};

EdgeSegmentBytes SerializedEdgeSegment(const LogStore* store, int32_t segment,
                                       const CompressedTable* table,
                                       SegmentLayout preferred) {
  if (segment >= 0) {
    const LogStore::SegmentInfo seg =
        store->segment_info(static_cast<size_t>(segment));
    return {std::string(store->SegmentView(static_cast<size_t>(segment))),
            seg.layout, seg.row_count};
  }
  if (preferred == SegmentLayout::kColumnar)
    return {SerializeCompressedTableColumnar(*table), SegmentLayout::kColumnar,
            table->num_rows()};
  return {SerializeCompressedTableGzip(*table), SegmentLayout::kProvRcGzip,
          table->num_rows()};
}

/// True when `existing`, the append target's record for an edge, already
/// holds exactly the bytes the edge would persist. Mapped edges compare
/// their own footer record; resident edges compare the table's cached
/// columnar digest. Only a resident edge over a gzip segment re-encodes.
bool SegmentUnchanged(const LogStore* store, int32_t segment,
                      const CompressedTable* table,
                      const LogStore::SegmentInfo& existing) {
  if (segment >= 0) {
    const size_t id = static_cast<size_t>(segment);
    const uint64_t length = static_cast<uint64_t>(store->segment_length(id));
    return store->segment_layout(id) == existing.layout &&
           length == existing.length &&
           store->segment_checksum(id) == existing.checksum;
  }
  if (existing.layout == SegmentLayout::kColumnar) {
    const ColumnarDigest digest = table->columnar_digest();
    return digest.length == existing.length && digest.hash == existing.checksum;
  }
  const std::string bytes = SerializeCompressedTableGzip(*table);
  return bytes.size() == existing.length && Hash64(bytes) == existing.checksum;
}

}  // namespace

// ------------------------------------------------- single-file LogStore --

Result<DSLog> DSLog::OpenInSitu(const std::string& path,
                                const InSituOptions& options) {
  DSLOG_ASSIGN_OR_RETURN(std::unique_ptr<LogStore> store,
                         LogStore::Open(path, options.store));
  DSLog log;
  log.arrays_ = store->arrays();
  // No per-edge state is built here: lookups resolve through the store's
  // segment index (FindEdgeCopy's fallback), so open cost is the footer
  // parse + index bind, independent of the number of stored edges.
  if (!store->predictor_state().empty())
    DSLOG_RETURN_IF_ERROR(
        log.predictor_.RestoreState(store->predictor_state()));
  log.store_ = std::move(store);
  return log;
}

Status DSLog::SaveLogStore(const std::string& path,
                           SegmentLayout layout) const {
  std::map<std::string, Edge> edges = SnapshotEdges();
  std::shared_ptr<const LogStore> store = log_store();
  DSLOG_ASSIGN_OR_RETURN(LogStoreWriter writer, LogStoreWriter::Create(path));
  {
    std::shared_lock lock(catalog_mu_);
    for (const auto& [name, shape] : arrays_) writer.PutArray(name, shape);
    writer.SetPredictorState(predictor_.SerializeState());
  }
  for (const auto& [key, edge] : edges) {
    EdgeSegmentBytes seg = SerializedEdgeSegment(store.get(), edge.segment,
                                                 edge.table.get(), layout);
    DSLOG_RETURN_IF_ERROR(
        writer.AppendRawSegment(edge.in_arr, edge.out_arr, edge.op_name,
                                seg.bytes, seg.layout, seg.row_count));
  }
  return writer.Finish();
}

Status DSLog::AppendLogStore(const std::string& path) const {
  static metrics::Histogram& append_us =
      metrics::Registry::Global().histogram("dslog.logstore.append_us");
  static metrics::Counter& segments_written =
      metrics::Registry::Global().counter(
          "dslog.logstore.append_segments_written");
  static metrics::Counter& segments_skipped =
      metrics::Registry::Global().counter(
          "dslog.logstore.append_segments_skipped");
  static metrics::Counter& footer_bytes =
      metrics::Registry::Global().counter("dslog.logstore.append_footer_bytes");
  trace::Span span("DSLog.AppendLogStore", "storage");
  WallTimer timer;
  std::map<std::string, Edge> edges = SnapshotEdges();
  std::shared_ptr<const LogStore> store = log_store();
  DSLOG_ASSIGN_OR_RETURN(LogStoreWriter writer,
                         LogStoreWriter::OpenForAppend(path));
  {
    std::shared_lock lock(catalog_mu_);
    for (const auto& [name, shape] : arrays_) writer.PutArray(name, shape);
    writer.SetPredictorState(predictor_.SerializeState());
  }
  int64_t written = 0, skipped = 0;
  for (const auto& [key, edge] : edges) {
    // Skip only byte-identical segments: a re-registered edge whose
    // lineage changed must be re-persisted, not silently kept stale. An
    // unchanged edge is kept in the *existing* segment's layout even when
    // that is gzip (appends extend mixed-layout stores, they don't migrate
    // them — use SaveLogStore for a full rewrite).
    const LogStore::SegmentInfo* existing =
        writer.FindSegment(edge.in_arr, edge.out_arr);
    if (existing != nullptr && SegmentUnchanged(store.get(), edge.segment,
                                                edge.table.get(), *existing)) {
      ++skipped;
      continue;
    }
    EdgeSegmentBytes seg = SerializedEdgeSegment(store.get(), edge.segment,
                                                 edge.table.get(),
                                                 SegmentLayout::kColumnar);
    DSLOG_RETURN_IF_ERROR(
        writer.AppendRawSegment(edge.in_arr, edge.out_arr, edge.op_name,
                                seg.bytes, seg.layout, seg.row_count));
    ++written;
  }
  DSLOG_RETURN_IF_ERROR(writer.Finish());
  segments_written.Add(written);
  segments_skipped.Add(skipped);
  footer_bytes.Add(writer.footer_bytes());
  span.Arg("written", written);
  span.Arg("skipped", skipped);
  append_us.Record(static_cast<int64_t>(timer.ElapsedSeconds() * 1e6));
  return Status::OK();
}

std::shared_ptr<const LogStore> DSLog::log_store() const {
  std::shared_lock lock(catalog_mu_);
  return store_;
}

}  // namespace dslog
