#include "storage/logstore.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/hash.h"
#include "common/io.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"
#include "compress/varint.h"
#include "provrc/serialize.h"

namespace dslog {

namespace {

constexpr char kHeaderMagic[8] = {'D', 'S', 'L', 'S', 'T', 'O', 'R', '1'};
constexpr char kTrailerMagic[4] = {'D', 'S', 'L', 'F'};
constexpr size_t kHeaderSize = sizeof(kHeaderMagic);
// fixed64 footer_offset + fixed64 footer checksum + trailer magic.
constexpr size_t kTrailerSize = 8 + 8 + sizeof(kTrailerMagic);

// Fixed segment record: field offsets within one 56-byte record. All
// fields little-endian; the record block starts 8-aligned in the file and
// 56 is a multiple of 8, so every field is naturally aligned under mmap
// (reads still go through memcpy for the heap-read fallback).
constexpr size_t kRecOffset = 0;     // u64 absolute file offset
constexpr size_t kRecLength = 8;     // u64 segment byte length
constexpr size_t kRecChecksum = 16;  // u64 FNV-64 of the segment bytes
constexpr size_t kRecNameOff = 24;   // u64 offset into the name heap
constexpr size_t kRecRowCount = 32;  // i64 (-1 unknown)
constexpr size_t kRecInLen = 40;     // u32 in_arr name length
constexpr size_t kRecOutLen = 44;    // u32 out_arr name length
constexpr size_t kRecOpLen = 48;     // u32 op_name length
constexpr size_t kRecLayout = 52;    // u32 SegmentLayout
constexpr size_t kRecSize = 56;

inline size_t Pad8(size_t v) { return (v + 7) & ~static_cast<size_t>(7); }

inline uint64_t LoadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline void AppendU64(std::string* s, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  s->append(buf, 8);
}

inline void AppendU32(std::string* s, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  s->append(buf, 4);
}

struct ParsedFooter {
  uint64_t footer_offset = 0;
  std::map<std::string, std::vector<int64_t>> arrays;
  /// Zero-copy views into the footer (valid while the file view they were
  /// parsed from lives).
  uint64_t num_segments = 0;
  std::string_view seg_records;
  std::string_view name_heap;
  std::string_view phf_block;
  std::string predictor_state;
};

/// Decodes one flat record into an owned SegmentInfo. Name extents are
/// trusted only after a bounds check; out-of-heap names (impossible on a
/// checksum-verified footer) come back empty rather than reading wild.
LogStore::SegmentInfo DecodeRecord(std::string_view records,
                                     std::string_view heap, size_t id) {
  const char* rec = records.data() + id * kRecSize;
  LogStore::SegmentInfo seg;
  seg.offset = LoadU64(rec + kRecOffset);
  seg.length = LoadU64(rec + kRecLength);
  seg.checksum = LoadU64(rec + kRecChecksum);
  seg.row_count = static_cast<int64_t>(LoadU64(rec + kRecRowCount));
  seg.layout = static_cast<SegmentLayout>(LoadU32(rec + kRecLayout));
  const uint64_t name_off = LoadU64(rec + kRecNameOff);
  const uint64_t in_len = LoadU32(rec + kRecInLen);
  const uint64_t out_len = LoadU32(rec + kRecOutLen);
  const uint64_t op_len = LoadU32(rec + kRecOpLen);
  if (name_off <= heap.size() &&
      in_len + out_len + op_len <= heap.size() - name_off) {
    const char* base = heap.data() + name_off;
    seg.in_arr.assign(base, in_len);
    seg.out_arr.assign(base + in_len, out_len);
    seg.op_name.assign(base + in_len + out_len, op_len);
  }
  return seg;
}

/// Validates header + trailer of a whole-file view and decodes the footer.
Status ParseFile(std::string_view file, const std::string& path,
                 ParsedFooter* out) {
  if (file.size() < kHeaderSize + kTrailerSize)
    return Status::Corruption("logstore too short: " + path);
  if (std::memcmp(file.data(), kHeaderMagic, kHeaderSize) != 0)
    return Status::Corruption("logstore bad header magic: " + path);
  size_t tpos = file.size() - kTrailerSize;
  uint64_t footer_offset, footer_hash;
  if (!GetFixed64(file, &tpos, &footer_offset) ||
      !GetFixed64(file, &tpos, &footer_hash) ||
      std::memcmp(file.data() + tpos, kTrailerMagic, sizeof(kTrailerMagic)) !=
          0)
    return Status::Corruption("logstore bad trailer: " + path);
  if (footer_offset < kHeaderSize ||
      footer_offset > file.size() - kTrailerSize)
    return Status::Corruption("logstore footer offset out of range: " + path);
  std::string_view footer = file.substr(
      static_cast<size_t>(footer_offset),
      file.size() - kTrailerSize - static_cast<size_t>(footer_offset));

  // The wide 8-byte-lane hash: footers scale with the catalog, and
  // byte-wise FNV over a 100 MB footer would dominate a million-edge open.
  size_t pos = 0;
  uint64_t version;
  if (!GetVarint64(footer, &pos, &version) ||
      version != LogStore::kFormatVersion)
    return Status::Corruption("logstore unsupported format version: " + path);
  if (Hash64Wide(footer) != footer_hash)
    return Status::Corruption("logstore footer checksum mismatch: " + path);
  // The footer starts 8-aligned in the file (enforced by the writer), so
  // footer-relative alignment of the flat index is absolute alignment.
  if (footer_offset % 8 != 0)
    return Status::Corruption("logstore footer misaligned: " + path);
  out->footer_offset = footer_offset;

  uint64_t num_arrays;
  if (!GetVarint64(footer, &pos, &num_arrays))
    return Status::Corruption("logstore footer: array count");
  for (uint64_t i = 0; i < num_arrays; ++i) {
    std::string name;
    uint64_t ndim;
    if (!GetLengthPrefixed(footer, &pos, &name) ||
        !GetVarint64(footer, &pos, &ndim) || ndim > 64)
      return Status::Corruption("logstore footer: array entry");
    std::vector<int64_t> shape(ndim);
    for (auto& d : shape) {
      uint64_t v;
      if (!GetVarint64(footer, &pos, &v))
        return Status::Corruption("logstore footer: array shape");
      d = static_cast<int64_t>(v);
    }
    out->arrays[std::move(name)] = std::move(shape);
  }

  // The predictor blob ends the varint prelude; after padding to 8 comes
  // the zero-deserialization index block.
  if (!GetLengthPrefixed(footer, &pos, &out->predictor_state))
    return Status::Corruption("logstore footer: predictor state");
  pos = Pad8(pos);
  if (footer.size() < pos || footer.size() - pos < 24)
    return Status::Corruption("logstore footer: index header: " + path);
  out->num_segments = LoadU64(footer.data() + pos);
  const uint64_t heap_size = LoadU64(footer.data() + pos + 8);
  const uint64_t phf_size = LoadU64(footer.data() + pos + 16);
  pos += 24;
  const size_t remaining = footer.size() - pos;
  if (out->num_segments > remaining / kRecSize)
    return Status::Corruption("logstore footer: record count: " + path);
  const size_t rec_bytes = static_cast<size_t>(out->num_segments) * kRecSize;
  if (heap_size > remaining - rec_bytes ||
      phf_size > remaining - rec_bytes - heap_size)
    return Status::Corruption("logstore footer: block sizes: " + path);
  out->seg_records = footer.substr(pos, rec_bytes);
  pos += rec_bytes;
  out->name_heap = footer.substr(pos, static_cast<size_t>(heap_size));
  pos = Pad8(pos + static_cast<size_t>(heap_size));
  if (footer.size() < pos || footer.size() - pos != phf_size)
    return Status::Corruption("logstore footer: trailing bytes: " + path);
  out->phf_block = footer.substr(pos, static_cast<size_t>(phf_size));
  return Status::OK();
}

/// Encodes the flat footer. `segments` must already sit in PHF position
/// order; `phf_block` is empty only when `segments` is.
std::string EncodeFooter(
    const std::map<std::string, std::vector<int64_t>>& arrays,
    const std::vector<LogStore::SegmentInfo>& segments,
    const std::string& predictor_state, const std::string& phf_block) {
  std::string footer;
  PutVarint64(&footer, LogStore::kFormatVersion);
  PutVarint64(&footer, arrays.size());
  for (const auto& [name, shape] : arrays) {
    PutLengthPrefixed(&footer, name);
    PutVarint64(&footer, shape.size());
    for (int64_t d : shape) PutVarint64(&footer, static_cast<uint64_t>(d));
  }
  PutLengthPrefixed(&footer, predictor_state);
  footer.resize(Pad8(footer.size()), '\0');

  std::string heap;
  std::string records;
  records.reserve(segments.size() * kRecSize);
  for (const LogStore::SegmentInfo& seg : segments) {
    const uint64_t name_off = heap.size();
    heap.append(seg.in_arr);
    heap.append(seg.out_arr);
    heap.append(seg.op_name);
    AppendU64(&records, seg.offset);
    AppendU64(&records, seg.length);
    AppendU64(&records, seg.checksum);
    AppendU64(&records, name_off);
    AppendU64(&records, static_cast<uint64_t>(seg.row_count));
    AppendU32(&records, static_cast<uint32_t>(seg.in_arr.size()));
    AppendU32(&records, static_cast<uint32_t>(seg.out_arr.size()));
    AppendU32(&records, static_cast<uint32_t>(seg.op_name.size()));
    AppendU32(&records, static_cast<uint32_t>(seg.layout));
  }
  AppendU64(&footer, segments.size());
  AppendU64(&footer, heap.size());
  AppendU64(&footer, phf_block.size());
  footer.append(records);
  footer.append(heap);
  footer.resize(Pad8(footer.size()), '\0');
  footer.append(phf_block);
  return footer;
}

std::string EncodeTrailer(uint64_t footer_offset, const std::string& footer) {
  std::string trailer;
  PutFixed64(&trailer, footer_offset);
  PutFixed64(&trailer, Hash64Wide(footer));
  trailer.append(kTrailerMagic, sizeof(kTrailerMagic));
  return trailer;
}

/// Resident-memory estimate of an owned decoded table (cache accounting).
int64_t ApproxDecodedBytes(const CompressedTable& table) {
  return 64 + table.num_rows() * (table.stride() * 16 +
                                  static_cast<int64_t>(table.in_ndim()) * 4);
}

/// Process-wide mirror of the per-store cache counters (the exact per-store
/// numbers stay on LogStore::stats(); the registry aggregates across all
/// open stores for dashboards/benches). References resolved once.
struct LogStoreMetrics {
  metrics::Counter& cache_hits;
  metrics::Counter& cache_misses;
  metrics::Counter& decodes;
  metrics::Counter& borrows;
  metrics::Counter& bytes_decompressed;
  metrics::Counter& rows_materialized;
  metrics::Counter& evictions;
  metrics::Histogram& resolve_us;

  static LogStoreMetrics& Get() {
    static LogStoreMetrics* m = [] {
      metrics::Registry& reg = metrics::Registry::Global();
      return new LogStoreMetrics{
          reg.counter("dslog.logstore.cache_hits"),
          reg.counter("dslog.logstore.cache_misses"),
          reg.counter("dslog.logstore.decodes"),
          reg.counter("dslog.logstore.borrows"),
          reg.counter("dslog.logstore.bytes_decompressed"),
          reg.counter("dslog.logstore.rows_materialized"),
          reg.counter("dslog.logstore.evictions"),
          reg.histogram("dslog.logstore.resolve_us"),
      };
    }();
    return *m;
  }
};

}  // namespace

// ----------------------------------------------------------------- reader --

Result<std::unique_ptr<LogStore>> LogStore::Open(
    const std::string& path, const LogStoreOptions& options) {
  DSLOG_ASSIGN_OR_RETURN(MmapFile file,
                         MmapFile::Open(path, options.use_mmap));
  ParsedFooter footer;
  DSLOG_RETURN_IF_ERROR(ParseFile(file.view(), path, &footer));
  // ParsedFooter's views point into `file`'s buffer; capture their
  // offsets before the move so they can be re-based onto store->file_
  // (a moved heap-fallback buffer is not guaranteed address-stable).
  const char* old_base = file.view().data();
  const auto view_offset = [old_base](std::string_view v) {
    return v.empty() ? 0 : static_cast<size_t>(v.data() - old_base);
  };
  const size_t rec_off = view_offset(footer.seg_records);
  const size_t heap_off = view_offset(footer.name_heap);
  const size_t phf_off = view_offset(footer.phf_block);
  std::unique_ptr<LogStore> store(new LogStore());
  store->path_ = path;
  store->file_ = std::move(file);
  store->options_ = options;
  store->arrays_ = std::move(footer.arrays);
  store->predictor_state_ = std::move(footer.predictor_state);
  store->num_segments_ = static_cast<size_t>(footer.num_segments);
  std::string_view whole = store->file_.view();
  store->seg_records_ = whole.substr(rec_off, footer.seg_records.size());
  store->name_heap_ = whole.substr(heap_off, footer.name_heap.size());
  if (store->num_segments_ > 0) {
    // Edge lookups go through the PHF alone, so a store with segments must
    // carry one (an empty block fails Bind as Corruption).
    auto phf = PhfView::Bind(whole.substr(phf_off, footer.phf_block.size()));
    if (!phf.ok())
      return phf.status().WithMessagePrefix("logstore " + path + ": ");
    if (phf.value().size() != footer.num_segments)
      return Status::Corruption("logstore PHF size != segment count: " + path);
    store->phf_ = phf.value();
  }
  store->touched_.assign(store->num_segments_, 0);
  store->num_cache_shards_ =
      static_cast<size_t>(std::max(1, options.cache_shards));
  // Equal budget slices, floored at 1 byte so the eviction loop still
  // engages when a tiny test budget divides to zero.
  store->shard_capacity_bytes_ =
      std::max<int64_t>(1, options.cache_capacity_bytes /
                               static_cast<int64_t>(store->num_cache_shards_));
  store->cache_shards_ =
      std::make_unique<CacheShard[]>(store->num_cache_shards_);
  return store;
}

uint64_t LogStore::RecU64(size_t id, size_t field_offset) const {
  return LoadU64(seg_records_.data() + id * kRecSize + field_offset);
}

int64_t LogStore::RecI64(size_t id, size_t field_offset) const {
  return static_cast<int64_t>(RecU64(id, field_offset));
}

uint32_t LogStore::RecU32(size_t id, size_t field_offset) const {
  return LoadU32(seg_records_.data() + id * kRecSize + field_offset);
}

bool LogStore::SegNames(size_t id, std::string_view* in_arr,
                        std::string_view* out_arr,
                        std::string_view* op_name) const {
  const uint64_t name_off = RecU64(id, kRecNameOff);
  const uint64_t in_len = RecU32(id, kRecInLen);
  const uint64_t out_len = RecU32(id, kRecOutLen);
  const uint64_t op_len = RecU32(id, kRecOpLen);
  if (name_off > name_heap_.size() ||
      in_len + out_len + op_len > name_heap_.size() - name_off)
    return false;
  *in_arr = name_heap_.substr(static_cast<size_t>(name_off),
                              static_cast<size_t>(in_len));
  *out_arr = name_heap_.substr(static_cast<size_t>(name_off + in_len),
                               static_cast<size_t>(out_len));
  *op_name = name_heap_.substr(static_cast<size_t>(name_off + in_len + out_len),
                               static_cast<size_t>(op_len));
  return true;
}

LogStore::SegmentInfo LogStore::segment_info(size_t id) const {
  return DecodeRecord(seg_records_, name_heap_, id);
}

int64_t LogStore::segment_length(size_t id) const {
  return RecI64(id, kRecLength);
}

uint64_t LogStore::segment_checksum(size_t id) const {
  return RecU64(id, kRecChecksum);
}

SegmentLayout LogStore::segment_layout(size_t id) const {
  return static_cast<SegmentLayout>(RecU32(id, kRecLayout));
}

const std::vector<LogStore::SegmentInfo>& LogStore::segments() const {
  std::call_once(segments_once_, [this] {
    segments_.reserve(num_segments_);
    for (size_t i = 0; i < num_segments_; ++i)
      segments_.push_back(DecodeRecord(seg_records_, name_heap_, i));
  });
  return segments_;
}

std::string_view LogStore::SegmentView(size_t id) const {
  return file_.view(static_cast<size_t>(RecU64(id, kRecOffset)),
                    static_cast<size_t>(RecU64(id, kRecLength)));
}

Result<int64_t> LogStore::FindSegmentId(std::string_view in_arr,
                                        std::string_view out_arr) const {
  static metrics::Counter& probes =
      metrics::Registry::Global().counter("dslog.logstore.index_probes");
  static metrics::Counter& rejects =
      metrics::Registry::Global().counter("dslog.logstore.index_rejects");
  probes.Increment();
  const int64_t pos =
      num_segments_ == 0 ? -1 : phf_.Lookup(EdgeKeyHash(in_arr, out_arr));
  if (pos < 0) {
    rejects.Increment();
    return -1;
  }
  // A PHF hit is only a candidate (fingerprints pass absent keys with
  // probability ~2^-8): confirm against the stored names before serving
  // the id — never a wrong segment, still zero segment bytes touched.
  std::string_view rec_in, rec_out, rec_op;
  if (!SegNames(static_cast<size_t>(pos), &rec_in, &rec_out, &rec_op))
    return Status::Corruption("logstore record names out of heap bounds: " +
                              path_);
  if (rec_in == in_arr && rec_out == out_arr) return pos;
  rejects.Increment();
  return -1;
}

Result<std::shared_ptr<LogStore::ResolvedSegment>> LogStore::ResolveSegment(
    size_t id, int64_t* charge, int64_t* decompressed, bool* borrowed,
    int64_t* rows_copied) const {
  const SegmentInfo seg = segment_info(id);
  if (seg.offset < kHeaderSize || seg.offset > file_.size() ||
      seg.length > file_.size() - seg.offset)
    return Status::Corruption("logstore segment out of bounds: " + seg.in_arr +
                              " -> " + seg.out_arr + " in " + path_);
  std::string_view bytes = SegmentView(id);
  if (options_.verify_checksums && Hash64(bytes) != seg.checksum)
    return Status::Corruption("logstore segment checksum mismatch: " +
                              seg.in_arr + " -> " + seg.out_arr + " in " +
                              path_);
  auto resolved = std::make_shared<ResolvedSegment>();
  *decompressed = 0;
  *borrowed = false;
  *rows_copied = 0;
  if (seg.layout == SegmentLayout::kColumnar) {
    auto view = BorrowColumnarTable(bytes);
    if (view.ok()) {
      // Zero-copy: the view aliases the mapping, which this LogStore (and
      // therefore any pin holding the ResolvedSegment via the DSLog that
      // owns the store) keeps alive. Nothing is built here.
      resolved->view = view.value();
      *borrowed = true;
      *charge = 64;
      return resolved;
    }
    if (view.status().code() != StatusCode::kNotSupported)
      return view.status().WithMessagePrefix("logstore segment " + seg.in_arr +
                                             " -> " + seg.out_arr + ": ");
    // Unaligned mapping (heap fallback reads can land anywhere): decode to
    // an owned table below.
    auto decoded = DeserializeCompressedTableColumnar(bytes);
    if (!decoded.ok())
      return decoded.status().WithMessagePrefix(
          "logstore segment " + seg.in_arr + " -> " + seg.out_arr + ": ");
    resolved->table = std::make_shared<const CompressedTable>(
        std::move(decoded).ValueOrDie());
  } else {
    auto decoded = DeserializeCompressedTableGzip(bytes);
    if (!decoded.ok())
      return decoded.status().WithMessagePrefix(
          "logstore segment " + seg.in_arr + " -> " + seg.out_arr + ": ");
    *decompressed = static_cast<int64_t>(bytes.size());
    resolved->table = std::make_shared<const CompressedTable>(
        std::move(decoded).ValueOrDie());
  }
  resolved->view = resolved->table->view();
  *rows_copied = resolved->table->num_rows();
  *charge = ApproxDecodedBytes(*resolved->table);
  return resolved;
}

Result<LogStore::PinnedTable> LogStore::View(size_t id, bool forward,
                                             ViewEvent* ev) const {
  return Acquire(id, forward ? kForwardIndex : kBackwardIndex, ev);
}

Result<LogStore::PinnedTable> LogStore::Acquire(size_t id, int dir,
                                                ViewEvent* ev) const {
  if (id >= num_segments_)
    return Status::InvalidArgument("logstore segment id out of range");
  LogStoreMetrics& lsm = LogStoreMetrics::Get();
  CacheShard& shard = CacheShardOf(id);
  if (ev != nullptr) ev->segment_bytes = segment_length(id);
  const auto pinned = [dir](const std::shared_ptr<ResolvedSegment>& seg) {
    return PinnedTable{seg->view,
                       dir == kNoIndex ? nullptr : seg->index[dir].get(), seg};
  };
  std::shared_ptr<ResolvedSegment> seg;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.cache.find(id);
    if (it != shard.cache.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      ++shard.stats.cache_hits;
      lsm.cache_hits.Increment();
      if (ev != nullptr) ev->cache_hit = true;
      seg = it->second.segment;
      if (dir == kNoIndex || seg->index[dir] != nullptr) return pinned(seg);
    } else {
      ++shard.stats.cache_misses;
      lsm.cache_misses.Increment();
    }
  }

  // Resolve and build the requested index outside the shard lock, so cold
  // segments decode in parallel — even two segments of the same shard only
  // serialize on the map update. One span + two clock reads per resolve:
  // amortized into the checksum + decode + index build they bracket.
  trace::Span resolve_span("LogStore.Resolve", "storage");
  resolve_span.Arg("segment", static_cast<int64_t>(id));
  WallTimer resolve_timer;
  const bool cold = seg == nullptr;
  int64_t charge = 0, decompressed = 0, rows_copied = 0;
  bool borrowed = false;
  if (cold) {
    DSLOG_ASSIGN_OR_RETURN(seg, ResolveSegment(id, &charge, &decompressed,
                                               &borrowed, &rows_copied));
  }
  // The index keeps row ids and copied bounds, never pointers into the
  // view, so one built over this resolution serves any resolution of the
  // same segment bytes (the resolve race below may swap `seg`).
  std::unique_ptr<const IntervalIndex> index;
  if (dir != kNoIndex)
    index = std::make_unique<const IntervalIndex>(
        dir == kForwardIndex ? seg->view.BuildForwardIndex()
                             : seg->view.BuildBackwardIndex());
  const int64_t resolve_us =
      static_cast<int64_t>(resolve_timer.ElapsedSeconds() * 1e6);
  resolve_span.Arg("borrowed", borrowed ? 1 : 0);
  resolve_span.Arg("rows_materialized", rows_copied);
  lsm.resolve_us.Record(resolve_us);
  if (ev != nullptr) ev->resolve_us = resolve_us;
  if (cold) {
    lsm.decodes.Increment();
    if (borrowed)
      lsm.borrows.Increment();
    else
      lsm.rows_materialized.Add(rows_copied);
    if (decompressed > 0) lsm.bytes_decompressed.Add(decompressed);
    if (ev != nullptr) {
      ev->borrowed = borrowed;
      ev->bytes_decompressed = decompressed;
      ev->rows_materialized = rows_copied;
    }
  }

  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.cache.find(id);
  if (cold) {
    ++shard.stats.decode_count;
    shard.stats.bytes_decompressed += decompressed;
    shard.stats.rows_materialized += rows_copied;
    if (borrowed)
      ++shard.stats.segments_borrowed;
    else
      ++shard.stats.tables_materialized;
    if (!touched_[id]) {  // id's shard lock guards touched_[id]; see decl
      touched_[id] = 1;
      ++shard.stats.segments_touched;
    }
    if (it != shard.cache.end()) {  // lost the resolve race
      seg = it->second.segment;
    } else {
      shard.lru.push_front(id);
      it = shard.cache.emplace(id, CacheEntry{seg, charge, shard.lru.begin()})
               .first;
      shard.bytes += charge;
    }
  }
  if (index != nullptr && seg->index[dir] == nullptr) {
    ++(dir == kForwardIndex ? shard.stats.forward_indexes_built
                            : shard.stats.backward_indexes_built);
    const int64_t index_bytes = index->bytes();
    seg->index[dir] = std::move(index);
    // An entry evicted while its index was being built keeps the index on
    // the pinned segment only; the cache charges what it holds.
    if (it != shard.cache.end() && it->second.segment == seg) {
      it->second.charge += index_bytes;
      shard.bytes += index_bytes;
    }
  }
  // Evict past the shard's budget slice, never the entry just served (a
  // single segment larger than the whole budget must still be servable).
  if (it != shard.cache.end() && it->second.segment == seg)
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  while (shard.bytes > shard_capacity_bytes_ && shard.lru.size() > 1) {
    size_t victim = shard.lru.back();
    shard.lru.pop_back();
    auto vit = shard.cache.find(victim);
    shard.bytes -= vit->second.charge;
    shard.cache.erase(vit);
    ++shard.stats.evictions;
    lsm.evictions.Increment();
  }
  return pinned(seg);
}

Result<std::shared_ptr<const CompressedTable>> LogStore::Table(
    size_t id) const {
  if (id >= num_segments_)
    return Status::InvalidArgument("logstore segment id out of range");
  DSLOG_ASSIGN_OR_RETURN(PinnedTable pinned, Acquire(id, kNoIndex, nullptr));
  // v1 (and unaligned-v2) resolutions already own a table: alias it so the
  // returned pointer shares the cache entry's lifetime.
  auto resolved =
      std::static_pointer_cast<const ResolvedSegment>(pinned.pin);
  if (resolved->table != nullptr) return resolved->table;
  // Borrowed v2 view: materialize an owned copy for this caller.
  auto owned = DeserializeCompressedTableColumnar(SegmentView(id));
  if (!owned.ok())
    return owned.status().WithMessagePrefix("logstore segment materialize: ");
  return std::make_shared<const CompressedTable>(std::move(owned).ValueOrDie());
}

LogStoreStats LogStore::stats() const {
  // Sum per-shard counters. Taking each shard's mutex makes that shard's
  // contribution a consistent cut (all writes happen under it), so the
  // per-shard invariants documented on LogStoreStats carry into the sum.
  // Concurrent readers may land between shard reads; every counted event
  // is in exactly one shard, so totals are exact once readers quiesce.
  LogStoreStats out;
  for (size_t i = 0; i < num_cache_shards_; ++i) {
    CacheShard& shard = cache_shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    const ShardStats& s = shard.stats;
    out.segments_touched += s.segments_touched;
    out.decode_count += s.decode_count;
    out.bytes_decompressed += s.bytes_decompressed;
    out.tables_materialized += s.tables_materialized;
    out.rows_materialized += s.rows_materialized;
    out.segments_borrowed += s.segments_borrowed;
    out.cache_hits += s.cache_hits;
    out.cache_misses += s.cache_misses;
    out.evictions += s.evictions;
    out.backward_indexes_built += s.backward_indexes_built;
    out.forward_indexes_built += s.forward_indexes_built;
    out.cache_bytes += shard.bytes;
  }
  out.segment_count = static_cast<int64_t>(num_segments_);
  return out;
}

// ----------------------------------------------------------------- writer --

Result<LogStoreWriter> LogStoreWriter::Create(std::string path) {
  LogStoreWriter writer;
  writer.path_ = std::move(path);
  writer.base_offset_ = kHeaderSize;
  return writer;
}

Result<LogStoreWriter> LogStoreWriter::OpenForAppend(std::string path) {
  DSLOG_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(path));
  ParsedFooter footer;
  DSLOG_RETURN_IF_ERROR(ParseFile(file.view(), path, &footer));
  LogStoreWriter writer;
  writer.appending_ = true;
  writer.path_ = std::move(path);
  writer.base_offset_ = footer.footer_offset;
  writer.old_file_size_ = file.size();
  writer.arrays_ = std::move(footer.arrays);
  // Materialize the flat records into owned entries: the writer keeps them
  // past the life of `file`'s mapping.
  writer.segments_.reserve(static_cast<size_t>(footer.num_segments));
  for (uint64_t i = 0; i < footer.num_segments; ++i)
    writer.segments_.push_back(DecodeRecord(
        footer.seg_records, footer.name_heap, static_cast<size_t>(i)));
  writer.predictor_state_ = std::move(footer.predictor_state);
  for (size_t i = 0; i < writer.segments_.size(); ++i)
    writer.edge_index_[EdgeStoreKey(writer.segments_[i].in_arr,
                                    writer.segments_[i].out_arr)] = i;
  return writer;
}

void LogStoreWriter::PutArray(const std::string& name,
                              std::vector<int64_t> shape) {
  arrays_[name] = std::move(shape);
}

const LogStore::SegmentInfo* LogStoreWriter::FindSegment(
    const std::string& in_arr, const std::string& out_arr) const {
  auto it = edge_index_.find(EdgeStoreKey(in_arr, out_arr));
  return it == edge_index_.end() ? nullptr : &segments_[it->second];
}

Status LogStoreWriter::AppendEdge(const std::string& in_arr,
                                  const std::string& out_arr,
                                  const std::string& op_name,
                                  const CompressedTable& table,
                                  SegmentLayout layout) {
  return AppendRawSegment(in_arr, out_arr, op_name,
                          layout == SegmentLayout::kColumnar
                              ? SerializeCompressedTableColumnar(table)
                              : SerializeCompressedTableGzip(table),
                          layout, table.num_rows());
}

Status LogStoreWriter::AppendRawSegment(const std::string& in_arr,
                                        const std::string& out_arr,
                                        const std::string& op_name,
                                        std::string_view bytes,
                                        SegmentLayout layout,
                                        int64_t row_count) {
  if (finished_) return Status::Internal("logstore writer already finished");
  // Columnar segments must start 8-aligned in the file so a mapped reader
  // can reinterpret the arenas in place; pad with dead bytes if the write
  // cursor (header is already 8) sits mid-word after gzip segments.
  if (layout == SegmentLayout::kColumnar) {
    while ((base_offset_ + new_bytes_.size()) % 8 != 0)
      new_bytes_.push_back('\0');
  }
  LogStore::SegmentInfo seg;
  seg.in_arr = in_arr;
  seg.out_arr = out_arr;
  seg.op_name = op_name;
  seg.offset = base_offset_ + new_bytes_.size();
  seg.length = bytes.size();
  seg.checksum = Hash64(bytes);
  seg.layout = layout;
  seg.row_count = row_count;
  new_bytes_.append(bytes);
  auto [it, inserted] =
      edge_index_.try_emplace(EdgeStoreKey(in_arr, out_arr), segments_.size());
  if (inserted) {
    segments_.push_back(std::move(seg));
  } else {
    // Replacement: newest segment wins; the old bytes become dead space
    // (reclaimed by a future Create()-based rewrite).
    segments_[it->second] = std::move(seg);
  }
  return Status::OK();
}

void LogStoreWriter::SetPredictorState(std::string blob) {
  predictor_state_ = std::move(blob);
}

Status LogStoreWriter::Finish() {
  if (finished_) return Status::Internal("logstore writer already finished");
  finished_ = true;
  std::string phf_block;
  if (!segments_.empty()) {
    std::vector<uint64_t> hashes;
    hashes.reserve(segments_.size());
    for (const LogStore::SegmentInfo& seg : segments_)
      hashes.push_back(EdgeKeyHash(seg.in_arr, seg.out_arr));
    // Construction fails only on a 64-bit edge-key hash collision (or seed
    // exhaustion); nothing has been written yet, so the file is untouched.
    auto built = PhfBuilder::Build(hashes);
    if (!built.ok())
      return built.status().WithMessagePrefix(
          "logstore writer: cannot index the edges of " + path_ + ": ");
    // Permute the metadata records into PHF-position order so the PHF
    // position of an edge key IS its segment id — no value array, no
    // indirection. Only footer record order changes; segment bytes and
    // offsets are untouched.
    auto phf = PhfView::Bind(built.value());
    DSLOG_CHECK(phf.ok()) << phf.status().ToString();
    std::vector<LogStore::SegmentInfo> permuted(segments_.size());
    for (size_t i = 0; i < segments_.size(); ++i) {
      const int64_t pos = phf.value().Lookup(hashes[i]);
      DSLOG_CHECK(pos >= 0 && pos < static_cast<int64_t>(segments_.size()));
      permuted[static_cast<size_t>(pos)] = std::move(segments_[i]);
    }
    segments_ = std::move(permuted);
    phf_block = std::move(built).ValueOrDie();
  }
  // The flat footer must start 8-aligned in the file (its records are read
  // in place); pad the segment area out to a word boundary.
  while ((base_offset_ + new_bytes_.size()) % 8 != 0)
    new_bytes_.push_back('\0');
  const std::string footer =
      EncodeFooter(arrays_, segments_, predictor_state_, phf_block);
  const uint64_t footer_offset = base_offset_ + new_bytes_.size();
  std::string trailer = EncodeTrailer(footer_offset, footer);
  footer_bytes_ = static_cast<int64_t>(footer.size());

  if (!appending_) {
    std::string file;
    file.reserve(kHeaderSize + new_bytes_.size() + footer.size() +
                 trailer.size());
    file.append(kHeaderMagic, kHeaderSize);
    file.append(new_bytes_);
    file.append(footer);
    file.append(trailer);
    return WriteFileAtomic(path_, file);
  }

  std::fstream out(path_,
                   std::ios::in | std::ios::out | std::ios::binary);
  if (!out) return Status::IOError("cannot open for append: " + path_);
  out.seekp(static_cast<std::streamoff>(base_offset_));
  out.write(new_bytes_.data(),
            static_cast<std::streamsize>(new_bytes_.size()));
  out.write(footer.data(), static_cast<std::streamsize>(footer.size()));
  out.write(trailer.data(), static_cast<std::streamsize>(trailer.size()));
  out.flush();
  if (!out) return Status::IOError("short append: " + path_);
  out.close();
  const uint64_t new_size = footer_offset + footer.size() + trailer.size();
  if (new_size < old_file_size_) {
    std::error_code ec;
    std::filesystem::resize_file(path_, new_size, ec);
    if (ec) return Status::IOError("truncate failed: " + path_);
  }
  return Status::OK();
}

}  // namespace dslog
