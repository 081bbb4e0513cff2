// LogStore: the single-file, segmented on-disk catalog format behind
// DSLog::OpenInSitu. Layout:
//
//   +------------------+ offset 0
//   | header  "DSLSTOR1"|  8 bytes
//   +------------------+ offset 8
//   | segment 0        |  one serialized CompressedTable per stored edge,
//   | segment 1        |  back to back; two layouts coexist in one file:
//   | ...              |    v1 = ProvRC-GZip (compact, decode-to-owned)
//   |                  |    v2 = PRC2 columnar (8-aligned; the on-disk
//   |                  |         bytes are the kernels' scan format)
//   +------------------+ footer_offset (8-aligned)
//   | footer           |  format version 5: a varint prelude (version,
//   |                  |  array catalog, predictor blob), zero-padding to
//   |                  |  8, then a flat index read in place with zero
//   |                  |  deserialization —
//   |                  |    u64 num_segments | u64 name_heap_size
//   |                  |    | u64 phf_size
//   |                  |    | fixed 56-byte segment records x num_segments
//   |                  |    | name heap | pad to 8 | PHF block (common/phf)
//   |                  |  Records sit in perfect-hash position order: the
//   |                  |  PHF position of an edge key IS its segment id, so
//   |                  |  an edge probe is hash -> PHF -> one name memcmp,
//   |                  |  with no map ever materialized.
//   +------------------+ file_size - 20
//   | trailer          |  fixed64 footer_offset | fixed64 footer checksum
//   |                  |  | magic "DSLF"
//   +------------------+ file_size
//
// Version 5 is the only format: any other footer version is Corruption,
// and so is a store with segments but an empty PHF block.
//
// A reader maps the file once (mmap, with a whole-file read fallback) and
// parses only the footer; segments resolve lazily on first touch through a
// size-bounded LRU cache. A v1 segment decompresses into an owned table;
// a v2 segment is *borrowed*: the cache entry holds a CompressedTableView
// aliasing the mapped bytes — zero bytes decompressed, zero rows
// materialized (LogStoreStats counts both). Each entry also holds up to one
// θ-join interval index per direction, built on the first View() in that
// direction and charged to the entry when it is added.
// Segment checksums are verified at first touch (and the footer checksum
// at open), turning any flipped byte or truncation into Status::Corruption
// instead of UB. The footer checksum is the wide 8-byte-lane hash (hash.h
// Hash64Wide) so open stays fast on million-edge catalogs.
//
// Edge lookup: the reader binds a PhfView over the footer's PHF block —
// O(1) per probe, the per-key fingerprint rejects absent edges before any
// record or segment byte is read, and a candidate hit is confirmed against
// the name heap so a false fingerprint match can never serve a wrong
// segment.
//
// Thread-safety: LogStore is safe for concurrent readers. The decode cache
// is lock-striped: segments map to cache_shards shards (id mod shard
// count), each with its own mutex, LRU list, and byte budget, so readers
// resolving different segments never contend on one cache lock.
// Decompression/index builds run outside every lock (two threads racing on
// the same cold segment or index may both build it — both results are
// valid and one wins the cache slot).
//
// Writing goes through LogStoreWriter: Create() builds a fresh file and
// commits it atomically (temp file + rename) in Finish(); OpenForAppend()
// extends an existing file in place by overwriting its footer with new
// segments and writing a fresh footer/trailer — a crash mid-append leaves
// an invalid trailer, which Open() reports as Corruption (detected, never
// silently torn), while all previously committed segment bytes remain
// intact in the file.

#ifndef DSLOG_STORAGE_LOGSTORE_H_
#define DSLOG_STORAGE_LOGSTORE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/mmap_file.h"
#include "common/phf.h"
#include "common/result.h"
#include "common/status.h"
#include "provrc/compressed_table.h"
#include "provrc/interval_index.h"

namespace dslog {

/// Canonical map key for an edge in_arr -> out_arr, shared by the DSLog
/// catalog and the LogStoreWriter index — one scheme, so dedup/replace
/// decisions always agree.
inline std::string EdgeStoreKey(std::string_view in_arr,
                                std::string_view out_arr) {
  std::string key;
  key.reserve(in_arr.size() + 1 + out_arr.size());
  key.append(in_arr);
  key.push_back('\x1f');
  key.append(out_arr);
  return key;
}

/// FNV-64 of EdgeStoreKey(in_arr, out_arr) computed piecewise — no key
/// string is ever materialized. This is the key hash the PHF index is
/// built over; writer and reader must agree on it byte for byte.
inline uint64_t EdgeKeyHash(std::string_view in_arr,
                            std::string_view out_arr) {
  uint64_t h = Hash64(in_arr);
  h = Hash64("\x1f", 1, h);
  return Hash64(out_arr, h);
}

/// On-disk encoding of one segment's table bytes.
enum class SegmentLayout : uint32_t {
  /// ProvRC-GZip (the paper's storage default): smallest bytes, decoded
  /// into an owned table on first touch.
  kProvRcGzip = 1,
  /// PRC2 flat columnar: the scan format itself — queried zero-copy from
  /// the mapping. Larger on disk; no decode latency or allocation.
  kColumnar = 2,
};

struct LogStoreOptions {
  /// Budget for resolved segments kept resident (approximate bytes: decoded
  /// tables for v1, plus the interval indexes each entry has built).
  /// Least-recently-used segments are evicted past it; in-flight queries
  /// keep their pinned entries alive regardless. Eviction never removes a
  /// shard's newest entry, so the cache can exceed this budget by up to one
  /// entry per shard (see cache_shards).
  int64_t cache_capacity_bytes = 64ll << 20;
  /// Verify the per-segment FNV-64 checksum before first use of a segment.
  bool verify_checksums = true;
  /// Map the file (the in-situ fast path). false forces the whole-file
  /// read fallback — same behaviour, heap-backed.
  bool use_mmap = true;
  /// Lock stripes of the decode cache. Each shard owns segments with
  /// id % cache_shards == shard, a private LRU list, and an equal slice of
  /// cache_capacity_bytes (never below 1 byte, so eviction still engages
  /// on tiny budgets). A shard keeps its newest entry even when that entry
  /// alone is larger than its slice, so more shards can hold more than
  /// the budget: up to one entry per shard beyond it. Clamped to >= 1; 1
  /// reproduces the old single-lock cache (contention tests sweep this).
  int cache_shards = 8;
};

/// Decode/cache counters (test + bench observability). This is the
/// *snapshot* type returned by LogStore::stats(); the live counters are
/// per-cache-shard integers read and written only under the owning
/// shard's mutex, so a snapshot taken under that mutex is internally
/// consistent for the shard (its invariants hold: decode_count <= cache_misses,
/// tables_materialized + segments_borrowed == decode_count,
/// segments_touched <= decode_count). Cross-shard skew is bounded to
/// events that complete while stats() walks the shards — every event is
/// counted in exactly one shard, so totals are exact once readers quiesce.
struct LogStoreStats {
  int64_t segment_count = 0;
  /// Distinct segments resolved at least once since open.
  int64_t segments_touched = 0;
  /// Total cache-fill events (>= segments_touched when eviction re-fills).
  int64_t decode_count = 0;
  /// Compressed bytes consumed by gzip decodes (0 on a pure-v2 store).
  int64_t bytes_decompressed = 0;
  /// Cache fills that built an owned CompressedTable (v1 decodes and v2
  /// alignment fallbacks).
  int64_t tables_materialized = 0;
  /// Rows copied into owned arenas by those fills. A zero-copy v2 path
  /// query keeps this at 0 — the acceptance signal that no per-row data
  /// was allocated in the decode path.
  int64_t rows_materialized = 0;
  /// Cache fills that borrowed a v2 view straight from the mapping.
  int64_t segments_borrowed = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t evictions = 0;
  /// Interval indexes built per direction (one per resolution that was
  /// queried in that direction; a direction never queried builds none).
  int64_t backward_indexes_built = 0;
  int64_t forward_indexes_built = 0;
  /// Bytes the decode cache charges for its resident entries right now.
  int64_t cache_bytes = 0;
};

/// Read side: a mapped log file serving lazily-resolved edge tables.
class LogStore {
 public:
  struct SegmentInfo {
    std::string in_arr;
    std::string out_arr;
    std::string op_name;
    uint64_t offset = 0;  // absolute file offset of the segment bytes
    uint64_t length = 0;
    uint64_t checksum = 0;  // FNV-64 over the segment bytes
    SegmentLayout layout = SegmentLayout::kProvRcGzip;
    int64_t row_count = -1;  // -1 = unknown
  };

  /// A resolved segment: the scan view, the join index of the requested
  /// direction, and a pin keeping both (and any owned arena behind the
  /// view) alive across cache evictions for as long as the caller holds it.
  struct PinnedTable {
    CompressedTableView view;
    const IntervalIndex* index = nullptr;
    std::shared_ptr<const void> pin;
  };

  /// Maps `path`, validates header/trailer/footer (footer checksum
  /// included), and indexes the segments. No segment is resolved.
  static Result<std::unique_ptr<LogStore>> Open(
      const std::string& path, const LogStoreOptions& options = {});

  const std::map<std::string, std::vector<int64_t>>& arrays() const {
    return arrays_;
  }

  /// The only footer version Open accepts (and Finish writes).
  static constexpr uint32_t kFormatVersion = 5;

  /// Number of indexed segments.
  size_t segment_count() const { return num_segments_; }

  /// Metadata of segment `id` by value, decoded on the fly from the
  /// footer's flat record (three short string copies) — use the
  /// field-level accessors below on hot paths.
  SegmentInfo segment_info(size_t id) const;

  /// On-disk byte length of segment `id` without materializing names.
  int64_t segment_length(size_t id) const;

  /// Checksum and layout of segment `id` without materializing names.
  /// With segment_length they identify the segment's bytes, so an appender
  /// can match a mapped segment against another footer without hashing it.
  uint64_t segment_checksum(size_t id) const;
  SegmentLayout segment_layout(size_t id) const;

  /// All segment metadata, built on first call (one pass over the flat
  /// records) — save and inspect convenience, not a query path.
  const std::vector<SegmentInfo>& segments() const;

  /// Segment id of edge in_arr -> out_arr, or -1 when the store holds no
  /// such edge: one hash, one O(1) PHF probe, one name memcmp — the
  /// fingerprint rejects absent edges before any record bytes are touched,
  /// and the name check means a fingerprint false positive can never
  /// return a wrong segment.
  Result<int64_t> FindSegmentId(std::string_view in_arr,
                                std::string_view out_arr) const;

  /// Edge-index size accounting (inspect tool, benches); 0 on an empty
  /// store.
  double index_bits_per_key() const { return phf_.bits_per_key(); }
  uint32_t index_fingerprint_bits() const { return phf_.fingerprint_bits(); }

  /// Serialized ReusePredictor state ("" when the file carries none).
  const std::string& predictor_state() const { return predictor_state_; }

  /// Per-call observability record of one View() resolution (profiling).
  /// Costs nothing beyond two clock reads on the cold-resolve path; the
  /// cache-hit path fills only the booleans/bytes.
  struct ViewEvent {
    bool cache_hit = false;
    bool borrowed = false;             // v2 zero-copy borrow
    int64_t segment_bytes = 0;         // on-disk segment length
    int64_t bytes_decompressed = 0;    // gzip input consumed (0 on hit/v2)
    int64_t rows_materialized = 0;     // rows copied into owned arenas
    int64_t resolve_us = 0;            // checksum + decode + index build
  };

  /// The scan view of segment `id` with its join index for a `forward` or
  /// backward hop, resolving on first touch (gzip decode for v1, zero-copy
  /// borrow for v2) and serving repeats from the LRU cache. Builds that
  /// direction's index the first time the entry is asked for it, outside
  /// the shard lock. This is the query path. `ev`, when non-null, receives
  /// how this call resolved (profiled queries thread it into their
  /// HopProfile).
  Result<PinnedTable> View(size_t id, bool forward,
                           ViewEvent* ev = nullptr) const;

  /// The segment as an owned CompressedTable (bench/test hook). v1 serves
  /// the cached decode; v2 materializes a fresh owned copy per call —
  /// query code should use View().
  Result<std::shared_ptr<const CompressedTable>> Table(size_t id) const;

  /// Raw (still-serialized) bytes of segment `id` — zero-copy view into
  /// the mapping. Lets savers/appenders shuttle segments without a
  /// decode/re-encode round trip.
  std::string_view SegmentView(size_t id) const;

  LogStoreStats stats() const;

  const std::string& path() const { return path_; }
  int64_t file_size() const { return static_cast<int64_t>(file_.size()); }
  bool mapped() const { return file_.mapped(); }

 private:
  LogStore() = default;

  /// Slots of ResolvedSegment::index, and Acquire's "no index" request.
  static constexpr int kBackwardIndex = 0;
  static constexpr int kForwardIndex = 1;
  static constexpr int kNoIndex = -1;

  /// One cached resolution: `table` owns the arenas for v1 decodes (null
  /// for v2 borrows, whose view aliases the mapping). `index` holds the
  /// join index of each direction once a View() in that direction built
  /// it; a slot is written and read only under the owning shard's mutex
  /// and never changes once set. Handed out via shared_ptr so pins
  /// survive eviction.
  struct ResolvedSegment {
    std::shared_ptr<const CompressedTable> table;
    CompressedTableView view;
    std::unique_ptr<const IntervalIndex> index[2];
  };

  /// `charge` is the resolution's resident bytes plus every index built
  /// into `segment` while it was cached.
  struct CacheEntry {
    std::shared_ptr<ResolvedSegment> segment;
    int64_t charge = 0;
    std::list<size_t>::iterator lru_it;
  };

  /// Checksum-verifies (first touch) and resolves segment bytes into a
  /// ResolvedSegment with no index. Runs outside the cache lock.
  Result<std::shared_ptr<ResolvedSegment>> ResolveSegment(
      size_t id, int64_t* charge, int64_t* decompressed, bool* borrowed,
      int64_t* rows_copied) const;

  /// View() and Table(): the cached resolution of segment `id` with index
  /// slot `dir` built (kNoIndex: no index, PinnedTable::index is null).
  Result<PinnedTable> Acquire(size_t id, int dir, ViewEvent* ev) const;

  /// Live per-shard counters, read and written only under the owning
  /// shard's mutex (so the per-shard invariants documented on
  /// LogStoreStats hold in every stats() snapshot).
  struct ShardStats {
    int64_t segments_touched = 0;
    int64_t decode_count = 0;
    int64_t bytes_decompressed = 0;
    int64_t tables_materialized = 0;
    int64_t rows_materialized = 0;
    int64_t segments_borrowed = 0;
    int64_t cache_hits = 0;
    int64_t cache_misses = 0;
    int64_t evictions = 0;
    int64_t backward_indexes_built = 0;
    int64_t forward_indexes_built = 0;
  };

  /// One lock stripe of the decode cache: segments with
  /// id % num_cache_shards_ == this shard's index. Stats are kept per
  /// shard and summed in stats() so the hot path never touches a shared
  /// counter.
  struct CacheShard {
    std::mutex mu;  // guards everything below
    std::unordered_map<size_t, CacheEntry> cache;
    std::list<size_t> lru;  // front = most recent
    int64_t bytes = 0;
    ShardStats stats;
  };

  CacheShard& CacheShardOf(size_t id) const {
    return cache_shards_[id % num_cache_shards_];
  }

  /// Flat-record field reads (memcpy-based: the heap-read fallback has no
  /// alignment guarantee).
  uint64_t RecU64(size_t id, size_t field_offset) const;
  int64_t RecI64(size_t id, size_t field_offset) const;
  uint32_t RecU32(size_t id, size_t field_offset) const;
  /// Name-heap views of a record. false when the record's name extent
  /// falls outside the heap — impossible on a checksum-verified footer,
  /// surfaced as Corruption rather than UB if it ever happens.
  bool SegNames(size_t id, std::string_view* in_arr, std::string_view* out_arr,
                std::string_view* op_name) const;

  std::string path_;
  MmapFile file_;
  LogStoreOptions options_;
  std::map<std::string, std::vector<int64_t>> arrays_;
  size_t num_segments_ = 0;
  /// Materialized lazily by segments() from the flat records (guarded by
  /// segments_once_; immutable afterwards).
  mutable std::vector<SegmentInfo> segments_;
  mutable std::once_flag segments_once_;
  /// Footer views into the mapped file.
  std::string_view seg_records_;
  std::string_view name_heap_;
  /// Bound PHF edge index (unbound, size 0, on an empty store).
  PhfView phf_;
  std::string predictor_state_;

  /// Striped cache state. The array and shard count are fixed at Open
  /// (before any concurrency), so CacheShardOf needs no lock. A LogStore is
  /// only handed out behind unique_ptr/shared_ptr, so the non-movable
  /// shard array is fine. Per-shard byte budget: see cache_shards docs.
  size_t num_cache_shards_ = 1;
  int64_t shard_capacity_bytes_ = 0;
  mutable std::unique_ptr<CacheShard[]> cache_shards_;
  /// Per-segment resolved-once flag. Entry `id` is only read/written under
  /// its owning shard's mutex — distinct ids are distinct memory locations,
  /// so cross-shard access is race-free without a global lock.
  mutable std::vector<uint8_t> touched_;
};

/// Write side: builds or extends a LogStore file.
class LogStoreWriter {
 public:
  /// Starts a fresh store. Nothing exists at `path` until Finish(), which
  /// commits the whole file atomically (temp + rename).
  static Result<LogStoreWriter> Create(std::string path);

  /// Opens an existing store for incremental append: prior arrays, edges,
  /// and predictor state are retained; new segments are written over the
  /// old footer and a fresh footer/trailer seals the file in Finish().
  static Result<LogStoreWriter> OpenForAppend(std::string path);

  /// Registers (or re-registers, idempotently) an array.
  void PutArray(const std::string& name, std::vector<int64_t> shape);

  /// The indexed segment for an edge, or nullptr. Appenders compare its
  /// checksum/length against the candidate bytes to detect (and persist)
  /// re-registered edges whose lineage changed.
  const LogStore::SegmentInfo* FindSegment(const std::string& in_arr,
                                           const std::string& out_arr) const;

  /// Serializes `table` in `layout` and appends it as the segment for edge
  /// in_arr -> out_arr, replacing any previous index entry for the same
  /// edge (the older segment's bytes become dead space). Columnar segments
  /// are 8-aligned in the file so readers can borrow them zero-copy.
  Status AppendEdge(const std::string& in_arr, const std::string& out_arr,
                    const std::string& op_name, const CompressedTable& table,
                    SegmentLayout layout = SegmentLayout::kColumnar);

  /// Same, but with pre-serialized segment bytes in `layout` (e.g. another
  /// store's SegmentView) — no decode/re-encode.
  /// `row_count` is carried into the footer (-1 = unknown).
  Status AppendRawSegment(const std::string& in_arr,
                          const std::string& out_arr,
                          const std::string& op_name,
                          std::string_view bytes,
                          SegmentLayout layout = SegmentLayout::kProvRcGzip,
                          int64_t row_count = -1);

  /// Attaches the serialized reuse-predictor state ("" to clear).
  void SetPredictorState(std::string blob);

  /// Builds the PHF edge index, writes footer + trailer and commits. The
  /// writer is spent afterwards. If the index cannot be built (two edge
  /// keys share a 64-bit hash) Finish returns that error before writing
  /// any byte, leaving the file at `path` as it was.
  Status Finish();

  int64_t segment_count() const {
    return static_cast<int64_t>(segments_.size());
  }

  /// Size of the footer Finish() wrote (0 before Finish).
  int64_t footer_bytes() const { return footer_bytes_; }

 private:
  LogStoreWriter() = default;

  bool appending_ = false;
  std::string path_;
  uint64_t base_offset_ = 0;   // file offset where new_bytes_ lands
  uint64_t old_file_size_ = 0; // append mode: size before reopening
  std::string new_bytes_;      // segments appended since open
  std::map<std::string, std::vector<int64_t>> arrays_;
  std::vector<LogStore::SegmentInfo> segments_;
  std::map<std::string, size_t> edge_index_;  // EdgeKey -> segments_ index
  std::string predictor_state_;
  int64_t footer_bytes_ = 0;
  bool finished_ = false;
};

}  // namespace dslog

#endif  // DSLOG_STORAGE_LOGSTORE_H_
