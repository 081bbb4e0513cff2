// LogStore subsystem tests: the single-file on-disk format (round trip,
// incremental append, the perfect-hash edge index), the lazy in-situ query
// path (decode counters, LRU bounds, concurrent readers), the mmap
// abstraction with its read fallback, and corruption handling (flipped
// segment bytes, truncated footers — every failure must surface as
// Status::Corruption, never UB; the CI ASan job runs this whole suite).

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/io.h"
#include "common/metrics.h"
#include "common/mmap_file.h"
#include "compress/varint.h"
#include "common/random.h"
#include "lineage/lineage_relation.h"
#include "provrc/provrc.h"
#include "provrc/serialize.h"
#include "query/box.h"
#include "storage/dslog.h"
#include "storage/logstore.h"
#include "test_util.h"

namespace dslog {
namespace {

using test_util::ToTupleSet;
using test_util::TupleSet;

std::string TestPath(const std::string& name) {
  return ScratchDir() + "/" + name;
}

/// Identity lineage over a 1-D array of `n` cells: out i <- in i.
LineageRelation IdentityRelation(int64_t n) {
  LineageRelation rel(1, 1);
  rel.set_shapes({n}, {n});
  for (int64_t i = 0; i < n; ++i) {
    const int64_t tuple[2] = {i, i};
    rel.AddTuple(tuple);
  }
  return rel;
}

/// Shifted lineage: out i <- in (i + 1) mod n. Distinct per-edge content so
/// replaced/corrupted segments are distinguishable from identity.
LineageRelation ShiftRelation(int64_t n) {
  LineageRelation rel(1, 1);
  rel.set_shapes({n}, {n});
  for (int64_t i = 0; i < n; ++i) {
    const int64_t tuple[2] = {i, (i + 1) % n};
    rel.AddTuple(tuple);
  }
  return rel;
}

/// Registers the chain a<first> -> ... -> a<first+num_edges> of identity
/// edges over {width} arrays (defining all arrays that do not exist yet).
void BuildChain(DSLog* log, int first, int num_edges, int64_t width) {
  if (first == 0) {
    ASSERT_TRUE(log->DefineArray("a0", {width}).ok());
  }
  for (int i = first; i < first + num_edges; ++i) {
    std::string in = std::string("a").append(std::to_string(i));
    std::string out = std::string("a").append(std::to_string(i + 1));
    ASSERT_TRUE(log->DefineArray(out, {width}).ok());
    OperationRegistration reg;
    reg.op_name = "chain_step";
    reg.in_arrs = {in};
    reg.out_arr = out;
    reg.captured.push_back(IdentityRelation(width));
    reg.reuse = false;
    auto outcome = log->RegisterOperation(std::move(reg));
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  }
}

std::vector<std::string> ChainPath(int from, int to) {
  std::vector<std::string> path;
  const int step = from <= to ? 1 : -1;
  for (int i = from;; i += step) {
    path.push_back(std::string("a").append(std::to_string(i)));
    if (i == to) break;
  }
  return path;
}

// ---------------------------------------------------------------- MmapFile --

TEST(MmapFileTest, MapsAndFallsBackIdentically) {
  const std::string path = TestPath("mmap_basic.bin");
  const std::string payload = "hello mapped world";
  ASSERT_TRUE(WriteFile(path, payload).ok());
  auto mapped = MmapFile::Open(path, /*allow_mmap=*/true);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped.value().mapped());
  EXPECT_EQ(mapped.value().view(), payload);
  auto fallback = MmapFile::Open(path, /*allow_mmap=*/false);
  ASSERT_TRUE(fallback.ok());
  EXPECT_FALSE(fallback.value().mapped());
  EXPECT_EQ(fallback.value().view(), payload);
  EXPECT_EQ(fallback.value().view(6, 6), "mapped");
}

TEST(MmapFileTest, MissingFileIsIOErrorAndEmptyFileIsEmpty) {
  EXPECT_FALSE(MmapFile::Open(TestPath("nonexistent.bin")).ok());
  const std::string path = TestPath("mmap_empty.bin");
  ASSERT_TRUE(WriteFile(path, "").ok());
  auto file = MmapFile::Open(path);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file.value().size(), 0u);
}

TEST(MmapFileTest, MoveTransfersView) {
  const std::string path = TestPath("mmap_move.bin");
  ASSERT_TRUE(WriteFile(path, "payload").ok());
  for (bool allow_mmap : {true, false}) {
    auto opened = MmapFile::Open(path, allow_mmap);
    ASSERT_TRUE(opened.ok());
    MmapFile moved = std::move(opened).ValueOrDie();
    MmapFile again = std::move(moved);
    EXPECT_EQ(again.view(), "payload");
  }
}

// -------------------------------------------------------------- round trip --

TEST(LogStoreTest, RoundTripMatchesInMemoryCatalog) {
  DSLog log;
  BuildChain(&log, 0, 8, 16);
  // Both segment layouts must round-trip identical query results; the
  // gzip layout additionally preserves the in-memory footprint accounting
  // (columnar trades bytes for zero-copy scans, so its file is bigger).
  for (SegmentLayout layout :
       {SegmentLayout::kColumnar, SegmentLayout::kProvRcGzip}) {
    const std::string path = TestPath(
        layout == SegmentLayout::kColumnar ? "roundtrip_v2.dsl"
                                           : "roundtrip_v1.dsl");
    ASSERT_TRUE(log.SaveLogStore(path, layout).ok());

    auto opened = DSLog::OpenInSitu(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const DSLog& insitu = opened.value();
    EXPECT_TRUE(insitu.HasArray("a0"));
    EXPECT_TRUE(insitu.HasArray("a8"));
    EXPECT_EQ(insitu.ArrayShape("a3").ValueOrDie(),
              (std::vector<int64_t>{16}));

    for (const auto& path_arrays :
         {ChainPath(0, 8), ChainPath(8, 0), ChainPath(5, 2)}) {
      BoxTable q = BoxTable::FromCells(1, {3, 7});
      auto want = log.ProvQuery(path_arrays, q);
      auto got = insitu.ProvQuery(path_arrays, q);
      ASSERT_TRUE(want.ok() && got.ok()) << got.status().ToString();
      EXPECT_EQ(ToTupleSet(got.value().ExpandToCells(), 1),
                ToTupleSet(want.value().ExpandToCells(), 1));
    }

    auto store = insitu.log_store();
    ASSERT_NE(store, nullptr);
    EXPECT_TRUE(store->mapped());
    EXPECT_EQ(store->stats().segment_count, 8);
    for (const auto& seg : store->segments()) {
      EXPECT_EQ(seg.layout, layout);
      EXPECT_GT(seg.row_count, 0);
    }
    if (layout == SegmentLayout::kProvRcGzip)
      EXPECT_EQ(insitu.StorageFootprintBytes(), log.StorageFootprintBytes());
    else
      EXPECT_GT(insitu.StorageFootprintBytes(), 0);
  }
}

TEST(LogStoreTest, ReadFallbackServesIdenticalResults) {
  DSLog log;
  BuildChain(&log, 0, 4, 8);
  const std::string path = TestPath("fallback.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());
  InSituOptions options;
  options.store.use_mmap = false;
  auto opened = DSLog::OpenInSitu(path, options);
  ASSERT_TRUE(opened.ok());
  EXPECT_FALSE(opened.value().log_store()->mapped());
  auto got = opened.value().ProvQuery(ChainPath(4, 0), BoxTable::FromCells(1, {5}));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().ExpandToCells(), (std::vector<int64_t>{5}));
}

// ------------------------------------------------------------- lazy decode --

TEST(LogStoreTest, BackwardQueryDecodesUnderTenPercentOfSegments) {
  // The v1 (ProvRC-GZip) leg: on a >= 500-edge catalog, a backward path
  // query must decode only the segments on its path (< 10% of the log).
  // Also the compatibility guarantee that gzip stores keep opening and
  // querying through OpenInSitu now that columnar is the write default.
  DSLog log;
  BuildChain(&log, 0, 500, 8);
  const std::string path = TestPath("large_chain.dsl");
  ASSERT_TRUE(log.SaveLogStore(path, SegmentLayout::kProvRcGzip).ok());

  auto opened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const DSLog& insitu = opened.value();
  ASSERT_EQ(insitu.log_store()->stats().segment_count, 500);
  EXPECT_EQ(insitu.log_store()->stats().segments_touched, 0);

  // Backward over the last five edges of the chain.
  BoxTable q = BoxTable::FromCells(1, {2});
  auto got = insitu.ProvQuery(ChainPath(500, 495), q);
  auto want = log.ProvQuery(ChainPath(500, 495), q);
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_EQ(ToTupleSet(got.value().ExpandToCells(), 1),
            ToTupleSet(want.value().ExpandToCells(), 1));

  LogStoreStats stats = insitu.log_store()->stats();
  EXPECT_EQ(stats.segments_touched, 5);  // exactly the path's edges
  EXPECT_LT(stats.segments_touched, stats.segment_count / 10);
  EXPECT_GT(stats.bytes_decompressed, 0);

  // Re-running the query is pure cache hits: no new decodes.
  ASSERT_TRUE(insitu.ProvQuery(ChainPath(500, 495), q).ok());
  LogStoreStats again = insitu.log_store()->stats();
  EXPECT_EQ(again.segments_touched, 5);
  EXPECT_EQ(again.decode_count, stats.decode_count);
  EXPECT_GT(again.cache_hits, stats.cache_hits);
}

TEST(LogStoreTest, ColumnarQueryIsZeroCopy) {
  // The acceptance bar for the columnar layout: a path query over a v2
  // store borrows its segments straight from the mapping — zero bytes
  // decompressed and zero rows materialized into owned arenas (no per-row
  // allocation anywhere in the decode path), with only the path's
  // segments touched.
  DSLog log;
  BuildChain(&log, 0, 64, 16);
  const std::string path = TestPath("columnar_chain.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());  // default layout = columnar

  auto opened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const DSLog& insitu = opened.value();
  ASSERT_TRUE(insitu.log_store()->mapped());

  BoxTable q = BoxTable::FromCells(1, {2});
  auto got = insitu.ProvQuery(ChainPath(64, 59), q);
  auto want = log.ProvQuery(ChainPath(64, 59), q);
  ASSERT_TRUE(got.ok() && want.ok()) << got.status().ToString();
  EXPECT_EQ(ToTupleSet(got.value().ExpandToCells(), 1),
            ToTupleSet(want.value().ExpandToCells(), 1));

  LogStoreStats stats = insitu.log_store()->stats();
  EXPECT_EQ(stats.segments_touched, 5);  // exactly the path's edges
  EXPECT_EQ(stats.segments_borrowed, 5);
  EXPECT_EQ(stats.bytes_decompressed, 0);
  EXPECT_EQ(stats.tables_materialized, 0);
  EXPECT_EQ(stats.rows_materialized, 0);

  // Repeat queries are pure cache hits on the pinned views.
  ASSERT_TRUE(insitu.ProvQuery(ChainPath(64, 59), q).ok());
  LogStoreStats again = insitu.log_store()->stats();
  EXPECT_EQ(again.decode_count, stats.decode_count);
  EXPECT_GT(again.cache_hits, stats.cache_hits);
  EXPECT_EQ(again.rows_materialized, 0);
}

TEST(LogStoreTest, MixedLayoutStoreServesBothSegmentKinds) {
  // A gzip store extended by a columnar append is a legitimate mixed-
  // version file: old segments keep decoding, new ones borrow, and the
  // footer records which is which.
  DSLog log;
  BuildChain(&log, 0, 4, 16);
  const std::string path = TestPath("mixed_layout.dsl");
  ASSERT_TRUE(log.SaveLogStore(path, SegmentLayout::kProvRcGzip).ok());
  BuildChain(&log, 4, 4, 16);
  ASSERT_TRUE(log.AppendLogStore(path).ok());  // appends columnar

  auto opened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const DSLog& insitu = opened.value();
  int v1 = 0, v2 = 0;
  for (const auto& seg : insitu.log_store()->segments()) {
    if (seg.layout == SegmentLayout::kProvRcGzip)
      ++v1;
    else
      ++v2;
  }
  EXPECT_EQ(v1, 4);
  EXPECT_EQ(v2, 4);

  // One query spanning both halves of the chain exercises both decode
  // paths in a single traversal.
  BoxTable q = BoxTable::FromCells(1, {9});
  auto got = insitu.ProvQuery(ChainPath(0, 8), q);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().ExpandToCells(), (std::vector<int64_t>{9}));
  LogStoreStats stats = insitu.log_store()->stats();
  EXPECT_EQ(stats.tables_materialized, 4);
  EXPECT_EQ(stats.segments_borrowed, 4);
  EXPECT_GT(stats.bytes_decompressed, 0);
}

TEST(LogStoreTest, ColumnarHeapFallbackStillAnswersQueries) {
  // With mmap disabled the file lands in a heap buffer; columnar segments
  // still serve correct results (borrowing when the buffer happens to be
  // aligned, materializing owned tables otherwise — both are valid).
  DSLog log;
  BuildChain(&log, 0, 6, 16);
  const std::string path = TestPath("columnar_fallback.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());
  InSituOptions options;
  options.store.use_mmap = false;
  auto opened = DSLog::OpenInSitu(path, options);
  ASSERT_TRUE(opened.ok());
  EXPECT_FALSE(opened.value().log_store()->mapped());
  auto got =
      opened.value().ProvQuery(ChainPath(6, 0), BoxTable::FromCells(1, {5}));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().ExpandToCells(), (std::vector<int64_t>{5}));
}

TEST(LogStoreTest, TinyCacheEvictsButStaysCorrect) {
  DSLog log;
  BuildChain(&log, 0, 40, 64);
  const std::string path = TestPath("tiny_cache.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());

  InSituOptions options;
  options.store.cache_capacity_bytes = 2048;  // a handful of decoded tables
  auto opened = DSLog::OpenInSitu(path, options);
  ASSERT_TRUE(opened.ok());
  const DSLog& insitu = opened.value();

  BoxTable q = BoxTable::FromCells(1, {11});
  for (int rep = 0; rep < 3; ++rep) {
    auto got = insitu.ProvQuery(ChainPath(0, 40), q);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value().ExpandToCells(), (std::vector<int64_t>{11}));
  }
  LogStoreStats stats = insitu.log_store()->stats();
  EXPECT_EQ(stats.segments_touched, 40);
  EXPECT_GT(stats.evictions, 0);
  // Eviction forced re-decodes on the later sweeps.
  EXPECT_GT(stats.decode_count, stats.segments_touched);
}

TEST(LogStoreTest, JoinIndexesBuiltPerDirectionAndCharged) {
  DSLog log;
  BuildChain(&log, 0, 4, 32);  // four identical identity segments
  for (SegmentLayout layout :
       {SegmentLayout::kColumnar, SegmentLayout::kProvRcGzip}) {
    const std::string path = TestPath("index_per_direction.dsl");
    ASSERT_TRUE(log.SaveLogStore(path, layout).ok());
    LogStoreOptions roomy;
    roomy.cache_shards = 1;
    auto opened = LogStore::Open(path, roomy);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const LogStore& store = *opened.value();

    // A forward hop builds the forward index only, and repeats reuse it.
    auto fwd = store.View(0, /*forward=*/true);
    ASSERT_TRUE(fwd.ok());
    ASSERT_NE(fwd.value().index, nullptr);
    LogStoreStats stats = store.stats();
    EXPECT_EQ(stats.forward_indexes_built, 1);
    EXPECT_EQ(stats.backward_indexes_built, 0);
    const int64_t forward_charge = stats.cache_bytes;
    EXPECT_GE(forward_charge, fwd.value().index->bytes());
    EXPECT_EQ(store.View(0, true).value().index, fwd.value().index);
    EXPECT_EQ(store.stats().forward_indexes_built, 1);

    // A backward hop on the cached entry adds the backward index, and the
    // entry's charge grows by exactly that index's bytes.
    LogStore::ViewEvent ev;
    auto bwd = store.View(0, /*forward=*/false, &ev);
    ASSERT_TRUE(bwd.ok());
    EXPECT_TRUE(ev.cache_hit);
    ASSERT_NE(bwd.value().index, nullptr);
    EXPECT_NE(bwd.value().index, fwd.value().index);
    stats = store.stats();
    EXPECT_EQ(stats.forward_indexes_built, 1);
    EXPECT_EQ(stats.backward_indexes_built, 1);
    EXPECT_EQ(stats.decode_count, 1);
    const int64_t full_charge = stats.cache_bytes;
    EXPECT_EQ(full_charge, forward_charge + bwd.value().index->bytes());

    // A budget of one fully indexed entry: every segment's second index
    // fills it, the next segment evicts, and the charge never exceeds it.
    LogStoreOptions tiny = roomy;
    tiny.cache_capacity_bytes = full_charge;
    auto tiny_opened = LogStore::Open(path, tiny);
    ASSERT_TRUE(tiny_opened.ok());
    const LogStore& small = *tiny_opened.value();
    for (size_t id = 0; id < small.segment_count(); ++id) {
      for (bool forward : {true, false}) {
        ASSERT_TRUE(small.View(id, forward).ok());
        EXPECT_LE(small.stats().cache_bytes, full_charge)
            << "segment " << id << " forward=" << forward;
      }
    }
    stats = small.stats();
    EXPECT_EQ(stats.evictions, 3);
    EXPECT_EQ(stats.forward_indexes_built, 4);
    EXPECT_EQ(stats.backward_indexes_built, 4);
    EXPECT_EQ(stats.cache_bytes, full_charge);

    // Re-resolving an evicted segment for a backward hop builds no
    // forward index.
    ASSERT_TRUE(small.View(0, /*forward=*/false).ok());
    stats = small.stats();
    EXPECT_EQ(stats.backward_indexes_built, 5);
    EXPECT_EQ(stats.forward_indexes_built, 4);
    EXPECT_LE(stats.cache_bytes, full_charge);
  }
}

TEST(LogStoreTest, FindEdgeDecodesLazilyAndStaysValid) {
  DSLog log;
  BuildChain(&log, 0, 3, 8);
  const std::string path = TestPath("findedge.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());
  auto opened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(opened.ok());
  const CompressedTable* table = opened.value().FindEdge("a0", "a1");
  ASSERT_NE(table, nullptr);
  EXPECT_GT(table->num_rows(), 0);
  EXPECT_EQ(opened.value().FindEdge("a0", "nope"), nullptr);
}

// ------------------------------------------------------------------ append --

TEST(LogStoreTest, AppendPersistsNewOperationsIncrementally) {
  DSLog log;
  BuildChain(&log, 0, 4, 16);
  const std::string path = TestPath("append.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());
  const int64_t size_after_save =
      static_cast<int64_t>(std::filesystem::file_size(path));

  // Register four more operations and append only those.
  BuildChain(&log, 4, 4, 16);
  ASSERT_TRUE(log.AppendLogStore(path).ok());

  auto opened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().log_store()->stats().segment_count, 8);
  EXPECT_GT(static_cast<int64_t>(std::filesystem::file_size(path)),
            size_after_save);
  auto got =
      opened.value().ProvQuery(ChainPath(0, 8), BoxTable::FromCells(1, {9}));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().ExpandToCells(), (std::vector<int64_t>{9}));

  // A second append with nothing new keeps the file valid and complete.
  ASSERT_TRUE(log.AppendLogStore(path).ok());
  auto reopened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().log_store()->stats().segment_count, 8);
}

TEST(LogStoreTest, AppendRepersistsEdgeWhoseLineageChanged) {
  // A re-registered edge (same in/out arrays, different lineage) must be
  // re-persisted by AppendLogStore — only byte-identical segments may be
  // skipped.
  const std::string path = TestPath("append_changed.dsl");
  DSLog log;
  ASSERT_TRUE(log.DefineArray("u", {8}).ok());
  ASSERT_TRUE(log.DefineArray("v", {8}).ok());
  auto register_edge = [&](LineageRelation rel) {
    OperationRegistration reg;
    reg.op_name = "step";
    reg.in_arrs = {"u"};
    reg.out_arr = "v";
    reg.captured.push_back(std::move(rel));
    reg.reuse = false;
    ASSERT_TRUE(log.RegisterOperation(std::move(reg)).ok());
  };
  register_edge(IdentityRelation(8));
  ASSERT_TRUE(log.SaveLogStore(path).ok());

  register_edge(ShiftRelation(8));  // overwrite with different lineage
  ASSERT_TRUE(log.AppendLogStore(path).ok());

  auto opened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto got = opened.value().ProvQuery({"u", "v"}, BoxTable::FromCells(1, {0}));
  ASSERT_TRUE(got.ok());
  // Shifted lineage: input 0 feeds output 7 — not the stale identity's 0.
  EXPECT_EQ(got.value().ExpandToCells(), (std::vector<int64_t>{7}));

  // Appending again with unchanged content adds no segment bytes.
  const auto size_before = std::filesystem::file_size(path);
  ASSERT_TRUE(log.AppendLogStore(path).ok());
  EXPECT_EQ(std::filesystem::file_size(path), size_before);
}

/// Deltas of the append counters around one AppendLogStore call.
struct AppendDelta {
  int64_t appends = 0;
  int64_t written = 0;
  int64_t skipped = 0;
  int64_t footer_bytes = 0;
};

AppendDelta CountedAppend(const DSLog& log, const std::string& path) {
  metrics::Registry& reg = metrics::Registry::Global();
  metrics::Histogram& append_us = reg.histogram("dslog.logstore.append_us");
  metrics::Counter& written =
      reg.counter("dslog.logstore.append_segments_written");
  metrics::Counter& skipped =
      reg.counter("dslog.logstore.append_segments_skipped");
  metrics::Counter& footer = reg.counter("dslog.logstore.append_footer_bytes");
  const AppendDelta before{append_us.count(), written.Value(), skipped.Value(),
                           footer.Value()};
  EXPECT_TRUE(log.AppendLogStore(path).ok());
  return {append_us.count() - before.appends,
          written.Value() - before.written, skipped.Value() - before.skipped,
          footer.Value() - before.footer_bytes};
}

/// The file's bytes up to its footer: header plus every segment.
std::string SegmentArea(const std::string& path) {
  const std::string bytes = ReadFileToString(path).ValueOrDie();
  size_t pos = bytes.size() - 20;  // trailer: fixed64 footer_offset first
  uint64_t footer_offset = 0;
  EXPECT_TRUE(GetFixed64(bytes, &pos, &footer_offset));
  return bytes.substr(0, static_cast<size_t>(footer_offset));
}

TEST(LogStoreTest, AppendWithNothingNewWritesNoSegment) {
  // Over a columnar store (digest compare) and a gzip store (serialize and
  // compare): new edges are written, persisted ones skipped, and an append
  // with nothing new leaves the segment area — indeed the whole file —
  // byte for byte as it was.
  for (SegmentLayout layout :
       {SegmentLayout::kColumnar, SegmentLayout::kProvRcGzip}) {
    SCOPED_TRACE(static_cast<int>(layout));
    const std::string path = TestPath("append_skip.dsl");
    DSLog log;
    BuildChain(&log, 0, 4, 16);
    ASSERT_TRUE(log.SaveLogStore(path, layout).ok());
    BuildChain(&log, 4, 4, 16);

    const AppendDelta first = CountedAppend(log, path);
    EXPECT_EQ(first.appends, 1);
    EXPECT_EQ(first.written, 4);
    EXPECT_EQ(first.skipped, 4);
    EXPECT_GT(first.footer_bytes, 0);

    const std::string file_before = ReadFileToString(path).ValueOrDie();
    const std::string area_before = SegmentArea(path);
    const AppendDelta again = CountedAppend(log, path);
    EXPECT_EQ(again.appends, 1);
    EXPECT_EQ(again.written, 0);
    EXPECT_EQ(again.skipped, 8);
    EXPECT_EQ(SegmentArea(path), area_before);
    EXPECT_EQ(ReadFileToString(path).ValueOrDie(), file_before);

    auto opened = DSLog::OpenInSitu(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto got =
        opened.value().ProvQuery(ChainPath(0, 8), BoxTable::FromCells(1, {9}));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value().ExpandToCells(), (std::vector<int64_t>{9}));
  }
}

TEST(LogStoreTest, InSituAppendSkipsEveryMappedEdge) {
  // An in-situ catalog appended back to its own file: the mapped edges are
  // matched by their footer records (no segment byte hashed) and skipped;
  // only the newly registered ones are written.
  const std::string path = TestPath("insitu_append.dsl");
  DSLog oracle;
  BuildChain(&oracle, 0, 9, 16);
  {
    DSLog log;
    BuildChain(&log, 0, 6, 16);
    ASSERT_TRUE(log.SaveLogStore(path).ok());
  }
  const BoxTable q = BoxTable::FromCells(1, {3, 11});
  const std::vector<std::vector<std::string>> paths = {ChainPath(0, 9),
                                                       ChainPath(9, 0)};
  std::vector<TupleSet> answers;
  {
    auto opened = DSLog::OpenInSitu(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    DSLog& insitu = opened.value();
    BuildChain(&insitu, 6, 3, 16);
    for (const auto& p : paths) {
      auto got = insitu.ProvQuery(p, q);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      answers.push_back(ToTupleSet(got.value().ExpandToCells(), 1));
    }
    const std::string area_before = SegmentArea(path);
    const AppendDelta delta = CountedAppend(insitu, path);
    EXPECT_EQ(delta.written, 3);
    EXPECT_EQ(delta.skipped, 6);
    // The old segments are untouched; the new ones land after them.
    const std::string area_after = SegmentArea(path);
    EXPECT_EQ(area_after.substr(0, area_before.size()), area_before);
    // The in-situ catalog's mapping now sees a rewritten footer region, so
    // it is dropped here and the file reopened.
  }

  auto reopened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().log_store()->segment_count(), 9u);
  for (size_t i = 0; i < paths.size(); ++i) {
    auto got = reopened.value().ProvQuery(paths[i], q);
    auto want = oracle.ProvQuery(paths[i], q);
    ASSERT_TRUE(got.ok() && want.ok()) << got.status().ToString();
    EXPECT_EQ(ToTupleSet(got.value().ExpandToCells(), 1), answers[i]);
    EXPECT_EQ(answers[i], ToTupleSet(want.value().ExpandToCells(), 1));
  }

  // A fresh in-situ catalog with nothing new skips every mapped edge.
  const AppendDelta none = CountedAppend(reopened.value(), path);
  EXPECT_EQ(none.written, 0);
  EXPECT_EQ(none.skipped, 9);
}

TEST(LogStoreTest, WriterReplacementNewestSegmentWins) {
  const std::string path = TestPath("replace.dsl");
  {
    auto writer = LogStoreWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    writer.value().PutArray("x", {8});
    writer.value().PutArray("y", {8});
    ASSERT_TRUE(writer.value()
                    .AppendEdge("x", "y", "op",
                                ProvRcCompress(IdentityRelation(8)))
                    .ok());
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  {
    auto writer = LogStoreWriter::OpenForAppend(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    EXPECT_NE(writer.value().FindSegment("x", "y"), nullptr);
    ASSERT_TRUE(writer.value()
                    .AppendEdge("x", "y", "op",
                                ProvRcCompress(ShiftRelation(8)))
                    .ok());
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  auto store = LogStore::Open(path);
  ASSERT_TRUE(store.ok());
  ASSERT_EQ(store.value()->segments().size(), 1u);
  auto table = store.value()->Table(0);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table.value()->Decompress().EqualAsSet(ShiftRelation(8)));
  EXPECT_FALSE(store.value()->Table(7).ok());  // out of range
}

// -------------------------------------------------------------- corruption --

TEST(LogStoreCorruptionTest, FlippedSegmentByteIsDetectedAtDecode) {
  DSLog log;
  BuildChain(&log, 0, 6, 32);
  const std::string path = TestPath("corrupt_segment.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());

  // Locate segment a2 -> a3 through a clean open, then flip one byte.
  uint64_t offset = 0, length = 0;
  {
    auto store = LogStore::Open(path);
    ASSERT_TRUE(store.ok());
    for (const auto& seg : store.value()->segments())
      if (seg.in_arr == "a2" && seg.out_arr == "a3") {
        offset = seg.offset;
        length = seg.length;
      }
    ASSERT_GT(length, 0u);
  }
  std::string bytes = ReadFileToString(path).ValueOrDie();
  bytes[offset + length / 2] = static_cast<char>(
      static_cast<uint8_t>(bytes[offset + length / 2]) ^ 0xFF);
  ASSERT_TRUE(WriteFile(path, bytes).ok());

  // The open itself succeeds (footer intact); only touching the corrupt
  // segment fails, and with Corruption, not UB.
  auto opened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto clean = opened.value().ProvQuery(ChainPath(0, 2),
                                        BoxTable::FromCells(1, {1}));
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();
  auto corrupt = opened.value().ProvQuery(ChainPath(0, 6),
                                          BoxTable::FromCells(1, {1}));
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kCorruption)
      << corrupt.status().ToString();
}

TEST(LogStoreCorruptionTest, ColumnarRefOutOfRangeIsCorruptionEvenUnchecked) {
  // Structural validation must hold even with checksums off: a corrupt
  // relative ref in a borrowed columnar segment would index out of the
  // join kernels' scratch, so the borrow itself has to reject it.
  DSLog log;
  BuildChain(&log, 0, 2, 8);
  const std::string path = TestPath("corrupt_ref.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());

  // v4 stores the segment records in PHF-position order, so locate the
  // a0->a1 edge (the one the query below touches) by name, not by index.
  uint64_t offset = 0, length = 0;
  {
    auto store = LogStore::Open(path);
    ASSERT_TRUE(store.ok());
    for (const auto& seg : store.value()->segments())
      if (seg.in_arr == "a0" && seg.out_arr == "a1") {
        ASSERT_EQ(seg.layout, SegmentLayout::kColumnar);
        offset = seg.offset;
        length = seg.length;
      }
    ASSERT_GT(length, 0u);
  }
  // The int32 ref array is the (8-padded) tail of a columnar image; force
  // its low byte to a huge attribute index.
  std::string bytes = ReadFileToString(path).ValueOrDie();
  bytes[offset + length - 8] = 0x7F;
  ASSERT_TRUE(WriteFile(path, bytes).ok());

  InSituOptions options;
  options.store.verify_checksums = false;
  auto opened = DSLog::OpenInSitu(path, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto got = opened.value().ProvQuery({"a1", "a0"}, BoxTable::FromCells(1, {0}));
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption)
      << got.status().ToString();
}

TEST(LogStoreCorruptionTest, ColumnarTruncatedSegmentIsCorruption) {
  // A columnar segment whose bytes cannot hold the advertised row count
  // (image-size mismatch) must fail closed at first touch.
  DSLog log;
  BuildChain(&log, 0, 2, 8);
  const std::string path = TestPath("corrupt_truncated_v2.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());
  uint64_t offset = 0;
  {
    auto store = LogStore::Open(path);
    ASSERT_TRUE(store.ok());
    for (const auto& seg : store.value()->segments())
      if (seg.in_arr == "a0" && seg.out_arr == "a1") offset = seg.offset;
    ASSERT_GT(offset, 0u);
  }
  // Inflate the claimed row count inside the segment header (offset 16).
  std::string bytes = ReadFileToString(path).ValueOrDie();
  bytes[offset + 16] = 0x40;
  ASSERT_TRUE(WriteFile(path, bytes).ok());
  InSituOptions options;
  options.store.verify_checksums = false;  // reach the structural check
  auto opened = DSLog::OpenInSitu(path, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto got = opened.value().ProvQuery({"a1", "a0"}, BoxTable::FromCells(1, {0}));
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption)
      << got.status().ToString();
}

TEST(LogStoreCorruptionTest, TruncationsAndGarbageAreCorruption) {
  DSLog log;
  BuildChain(&log, 0, 3, 16);
  const std::string path = TestPath("corrupt_footer.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());
  const std::string intact = ReadFileToString(path).ValueOrDie();

  // Rebuilds a file around a replacement footer with a valid trailer (wide
  // checksum recomputed), so only the footer's content can reject it.
  size_t tpos = intact.size() - 20;
  uint64_t footer_offset = 0;
  ASSERT_TRUE(GetFixed64(intact, &tpos, &footer_offset));
  const std::string footer =
      intact.substr(footer_offset, intact.size() - 20 - footer_offset);
  auto with_footer = [&](const std::string& new_footer) {
    std::string file = intact.substr(0, footer_offset) + new_footer;
    PutFixed64(&file, footer_offset);
    PutFixed64(&file, Hash64Wide(new_footer));
    return file + "DSLF";
  };

  auto expect_corruption = [&](std::string mutated, const char* label) {
    const std::string mutated_path = TestPath("corrupt_variant.dsl");
    ASSERT_TRUE(WriteFile(mutated_path, std::move(mutated)).ok());
    auto opened = DSLog::OpenInSitu(mutated_path);
    ASSERT_FALSE(opened.ok()) << label;
    EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
        << label << ": " << opened.status().ToString();
  };

  // Truncated footer/trailer (the torn-append signature).
  expect_corruption(intact.substr(0, intact.size() - 10), "truncated trailer");
  expect_corruption(intact.substr(0, intact.size() / 2), "truncated footer");
  expect_corruption(intact.substr(0, 4), "shorter than header");
  expect_corruption("", "empty file");
  // Bad header magic.
  {
    std::string bad = intact;
    bad[0] = 'X';
    expect_corruption(std::move(bad), "bad header magic");
  }
  // Flipped byte inside the footer (checksum mismatch).
  {
    std::string bad = intact;
    bad[bad.size() - 30] = static_cast<char>(
        static_cast<uint8_t>(bad[bad.size() - 30]) ^ 0xFF);
    expect_corruption(std::move(bad), "footer byte flip");
  }
  // A footer of any version but 5, even with a valid checksum: version 4
  // (per-record planner stats, 88-byte records) is as unsupported as 3.
  ASSERT_EQ(footer[0], 5);
  for (int version : {3, 4}) {
    std::string old_version = footer;
    old_version[0] = static_cast<char>(version);
    expect_corruption(with_footer(old_version),
                      version == 3 ? "footer version 3" : "footer version 4");
  }
  // Segments but no PHF block: walk the varint prelude (version, arrays,
  // predictor blob) to the 8-aligned index header, zero its phf_size and
  // drop the block that ends the footer.
  {
    size_t pos = 1;  // the one-byte version varint
    uint64_t num_arrays = 0;
    ASSERT_TRUE(GetVarint64(footer, &pos, &num_arrays));
    for (uint64_t i = 0; i < num_arrays; ++i) {
      std::string name;
      uint64_t ndim = 0, dim = 0;
      ASSERT_TRUE(GetLengthPrefixed(footer, &pos, &name));
      ASSERT_TRUE(GetVarint64(footer, &pos, &ndim));
      for (uint64_t d = 0; d < ndim; ++d)
        ASSERT_TRUE(GetVarint64(footer, &pos, &dim));
    }
    std::string predictor;
    ASSERT_TRUE(GetLengthPrefixed(footer, &pos, &predictor));
    pos = (pos + 7) & ~size_t{7};
    uint64_t num_segments = 0, phf_size = 0;
    std::memcpy(&num_segments, footer.data() + pos, 8);
    std::memcpy(&phf_size, footer.data() + pos + 16, 8);
    ASSERT_EQ(num_segments, 3u);
    ASSERT_GT(phf_size, 0u);
    std::string no_phf = footer.substr(0, footer.size() - phf_size);
    std::memset(no_phf.data() + pos + 16, 0, 8);
    expect_corruption(with_footer(no_phf), "segments without a PHF block");
  }
  // The original still opens.
  EXPECT_TRUE(DSLog::OpenInSitu(path).ok());
}

TEST(LogStoreCorruptionTest, OverflowingFooterVarintIsCorruption) {
  // Hand-crafted file whose footer *checksum is valid* but whose
  // array-count varint is a ten-byte encoding overflowing uint64. A
  // decoder that wrapped it to 0 would "successfully" parse the rest — an
  // empty predictor blob and an all-zero index header — and open an empty
  // store from a corrupt footer; the decoder must reject the overflow as
  // Corruption instead.
  std::string footer;
  PutVarint64(&footer, 5);     // format version
  footer.append(9, '\x80');    // continuation bytes up to shift 63
  footer.push_back('\x02');    // 10th byte: bit 64 set -> overflow -> "0"
  PutVarint64(&footer, 0);     // predictor-state length
  footer.resize(16, '\0');     // pad the prelude to 8
  footer.append(24, '\0');     // no segments, empty heap, empty PHF block
  std::string file("DSLSTOR1");
  const uint64_t footer_offset = file.size();  // 8-aligned
  file += footer;
  PutFixed64(&file, footer_offset);
  PutFixed64(&file, Hash64Wide(footer));  // checksum must NOT mask the varint
  file += "DSLF";
  const std::string path = TestPath("overflow_varint.dsl");
  ASSERT_TRUE(WriteFile(path, file).ok());
  auto opened = LogStore::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
      << opened.status().ToString();
}

TEST(LogStoreTest, V3FooterCarriesSegmentStats) {
  // Each footer segment record carries the stored table's row count and
  // the layout it was written in, readable without touching the segment.
  DSLog log;
  BuildChain(&log, 0, 2, 32);
  for (SegmentLayout layout :
       {SegmentLayout::kColumnar, SegmentLayout::kProvRcGzip}) {
    const std::string path = TestPath("segment_stats.dsl");
    ASSERT_TRUE(log.SaveLogStore(path, layout).ok());
    auto store = LogStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_EQ(store.value()->segments().size(), 2u);
    for (size_t id = 0; id < store.value()->segments().size(); ++id) {
      const LogStore::SegmentInfo& seg = store.value()->segments()[id];
      const CompressedTable* stored = log.FindEdge(seg.in_arr, seg.out_arr);
      ASSERT_NE(stored, nullptr) << seg.in_arr << " -> " << seg.out_arr;
      EXPECT_EQ(seg.row_count, stored->num_rows());
      EXPECT_EQ(seg.layout, layout);
      EXPECT_EQ(store.value()->segment_layout(id), layout);
      auto pinned = store.value()->View(id, /*forward=*/false);
      ASSERT_TRUE(pinned.ok());
      EXPECT_EQ(pinned.value().view.num_rows, seg.row_count);
    }
  }
}

// --------------------------------------------------------- v4 perfect hash --

TEST(LogStoreV4Test, RoundTripBindsPerfectHashIndex) {
  DSLog log;
  BuildChain(&log, 0, 6, 16);
  const std::string path = TestPath("phf_roundtrip.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());

  auto store = LogStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_GT(store.value()->index_bits_per_key(), 0.0);
  EXPECT_EQ(store.value()->index_fingerprint_bits(), 8u);

  // Every stored edge resolves to the segment carrying its names; absent
  // edges resolve to -1. Neither direction touches segment bytes.
  for (size_t id = 0; id < store.value()->segment_count(); ++id) {
    const LogStore::SegmentInfo seg = store.value()->segment_info(id);
    auto found = store.value()->FindSegmentId(seg.in_arr, seg.out_arr);
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    EXPECT_EQ(found.value(), static_cast<int64_t>(id));
    auto missing = store.value()->FindSegmentId(seg.out_arr, seg.in_arr);
    ASSERT_TRUE(missing.ok());
    EXPECT_EQ(missing.value(), -1);
  }
  EXPECT_EQ(store.value()->stats().decode_count, 0);
}

TEST(LogStoreV4Test, IndexStaysUnder16BitsPerKeyAtScale) {
  // The 48-byte PHF header amortizes away by a few hundred keys; the
  // steady-state cost is ~4 bits of displacement + 8 bits of fingerprint
  // per key plus the <= 25% empty-slot overhead of m = ceil(n/4) buckets.
  const std::string path = TestPath("phf_bits_per_key.dsl");
  CompressedTable table = ProvRcCompress(IdentityRelation(4));
  const std::string bytes = SerializeCompressedTableColumnar(table);
  auto writer = LogStoreWriter::Create(path);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  constexpr int kEdges = 2048;
  writer.value().PutArray("hub", {4});
  for (int i = 0; i < kEdges; ++i)
    writer.value().PutArray("leaf" + std::to_string(i), {4});
  for (int i = 0; i < kEdges; ++i) {
    ASSERT_TRUE(writer.value()
                    .AppendRawSegment("hub", "leaf" + std::to_string(i), "op",
                                      bytes, SegmentLayout::kColumnar,
                                      table.num_rows())
                    .ok());
  }
  ASSERT_TRUE(writer.value().Finish().ok());

  auto store = LogStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_LE(store.value()->index_bits_per_key(), 16.0);
  // v4 stores segments in PHF-position order, so the id is arbitrary; it
  // must resolve to the segment carrying the probed names.
  auto hit = store.value()->FindSegmentId("hub", "leaf2047");
  ASSERT_TRUE(hit.ok());
  ASSERT_GE(hit.value(), 0);
  const LogStore::SegmentInfo seg =
      store.value()->segment_info(static_cast<size_t>(hit.value()));
  EXPECT_EQ(seg.in_arr, "hub");
  EXPECT_EQ(seg.out_arr, "leaf2047");
  auto miss = store.value()->FindSegmentId("hub", "leaf2048");
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss.value(), -1);
}

TEST(LogStoreV4Test, NegativeProbesTouchNoSegmentBytes) {
  DSLog log;
  BuildChain(&log, 0, 4, 16);
  const std::string path = TestPath("phf_negative.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());

  auto opened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(opened.ok());
  for (int i = 0; i < 32; ++i) {
    auto r = opened.value().ProvQuery({"a0", "absent" + std::to_string(i)},
                                      BoxTable::FromCells(1, {0}));
    EXPECT_FALSE(r.ok());
  }
  std::shared_ptr<const LogStore> store = opened.value().log_store();
  EXPECT_EQ(store->stats().decode_count, 0);
}

TEST(LogStoreCorruptionTest, FlippedPhfIndexByteIsCorruptionAtOpen) {
  DSLog log;
  BuildChain(&log, 0, 4, 16);
  const std::string path = TestPath("phf_corrupt.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());
  auto file = ReadFileToString(path);
  ASSERT_TRUE(file.ok());
  std::string bytes = std::move(file).ValueOrDie();
  // The PHF block sits at the end of the footer, just before the 20-byte
  // trailer; the footer checksum covers it, so a flipped displacement or
  // fingerprint byte must fail verification at Open (never a wrong or
  // missing lookup later).
  bytes[bytes.size() - 25] ^= 0x40;
  ASSERT_TRUE(WriteFile(path, bytes).ok());
  auto opened = LogStore::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
      << opened.status().ToString();
}

// ------------------------------------------------------------- concurrency --

TEST(LogStoreConcurrencyTest, ParallelInSituReadersWithEvictionChurn) {
  DSLog log;
  BuildChain(&log, 0, 32, 32);
  const std::string path = TestPath("concurrent.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());

  InSituOptions options;
  options.store.cache_capacity_bytes = 4096;  // force eviction under load
  auto opened = DSLog::OpenInSitu(path, options);
  ASSERT_TRUE(opened.ok());
  const DSLog& insitu = opened.value();

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 40;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < kQueriesPerThread; ++i) {
        int from = static_cast<int>(rng.Uniform(33));
        int to = static_cast<int>(rng.Uniform(33));
        if (from == to) to = (to + 1) % 33;
        const int64_t cell = static_cast<int64_t>(rng.Uniform(32));
        auto got = insitu.ProvQuery(ChainPath(from, to),
                                    BoxTable::FromCells(1, {cell}));
        if (!got.ok() ||
            got.value().ExpandToCells() != std::vector<int64_t>{cell})
          ++failures[t];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
  EXPECT_EQ(insitu.log_store()->stats().segments_touched, 32);
}

TEST(LogStoreConcurrencyTest, ShardedLruChurnOnSharedEdges) {
  // Eviction-churn stress for the striped cache: a per-shard budget small
  // enough that almost every resolve evicts, 8 threads hammering the SAME
  // few edges (maximum same-shard collision pressure), swept across shard
  // counts including 1 (the old single-lock cache).
  DSLog log;
  BuildChain(&log, 0, 6, 32);
  const std::string path = TestPath("sharded_churn.dsl");
  ASSERT_TRUE(log.SaveLogStore(path).ok());

  for (int shards : {1, 3, 8}) {
    InSituOptions options;
    options.store.cache_shards = shards;
    // 6 bytes total => ~1 byte per shard: every entry exceeds its shard's
    // budget, so each insert evicts the previous resident immediately.
    options.store.cache_capacity_bytes = 6;
    auto opened = DSLog::OpenInSitu(path, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const DSLog& insitu = opened.value();

    constexpr int kThreads = 8;
    constexpr int kQueriesPerThread = 30;
    std::vector<int> failures(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(2000 + static_cast<uint64_t>(shards) * 100 +
                static_cast<uint64_t>(t));
        for (int i = 0; i < kQueriesPerThread; ++i) {
          // Only 7 arrays: every thread keeps re-touching the same edges,
          // so hits, misses, evictions, and resolve races all interleave.
          int from = static_cast<int>(rng.Uniform(7));
          int to = static_cast<int>(rng.Uniform(7));
          if (from == to) to = (to + 1) % 7;
          const int64_t cell = static_cast<int64_t>(rng.Uniform(32));
          auto got = insitu.ProvQuery(ChainPath(from, to),
                                      BoxTable::FromCells(1, {cell}));
          if (!got.ok() ||
              got.value().ExpandToCells() != std::vector<int64_t>{cell})
            ++failures[t];
        }
      });
    }
    for (auto& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t)
      EXPECT_EQ(failures[t], 0) << "shards=" << shards << " thread=" << t;

    LogStoreStats stats = insitu.log_store()->stats();
    EXPECT_EQ(stats.segments_touched, 6) << "shards=" << shards;
    // The tiny budget must actually have churned the cache, and the
    // aggregate counters must balance across shards: every query is at
    // least one lookup (hit or miss), and every miss resolved — racing
    // resolvers may each count a decode, so decode_count can exceed the
    // number of cache insertions but never undershoot distinct segments.
    // With >= 6 shards each of the 6 segments is alone in its stripe and
    // can never be evicted (the cache keeps the just-inserted entry), so
    // the churn assertion only applies while stripes are shared.
    if (shards < 6)
      EXPECT_GT(stats.evictions, 0) << "shards=" << shards;
    else
      EXPECT_EQ(stats.evictions, 0) << "shards=" << shards;
    EXPECT_GE(stats.cache_hits + stats.cache_misses,
              static_cast<int64_t>(kThreads) * kQueriesPerThread)
        << "shards=" << shards;
    EXPECT_GE(stats.decode_count, stats.segments_touched)
        << "shards=" << shards;
  }
}

TEST(LogStoreConcurrencyTest, StatsSnapshotsAreConsistentUnderLoad) {
  // The LogStoreStats satellite: a stats() reader racing 8 View() writer
  // threads must never observe a torn snapshot. The live counters are
  // per-shard relaxed atomics written only under the shard mutex, and
  // stats() sums per-shard cuts taken under each mutex — so the invariants
  // documented on LogStoreStats must hold in EVERY intermediate snapshot,
  // not just at quiescence. Mixed-layout store so both fill kinds
  // (materialized gzip decode, zero-copy columnar borrow) are in play.
  DSLog log;
  BuildChain(&log, 0, 4, 32);
  const std::string path = TestPath("stats_consistency.dsl");
  ASSERT_TRUE(log.SaveLogStore(path, SegmentLayout::kProvRcGzip).ok());
  BuildChain(&log, 4, 4, 32);
  ASSERT_TRUE(log.AppendLogStore(path).ok());

  auto opened = LogStore::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const LogStore& store = *opened.value();
  const int64_t num_segments = static_cast<int64_t>(store.segments().size());
  ASSERT_EQ(num_segments, 8);

  constexpr int kThreads = 8;
  constexpr int kViewsPerThread = 200;
  std::atomic<bool> stop{false};
  std::atomic<int> view_failures{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const LogStoreStats s = store.stats();
      EXPECT_EQ(s.segment_count, num_segments);
      EXPECT_LE(s.segments_touched, num_segments);
      EXPECT_LE(s.segments_touched, s.decode_count);
      EXPECT_LE(s.decode_count, s.cache_misses);
      EXPECT_EQ(s.tables_materialized + s.segments_borrowed, s.decode_count);
      EXPECT_GE(s.cache_hits, 0);
      EXPECT_GE(s.bytes_decompressed, 0);
      EXPECT_GE(s.rows_materialized, 0);
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(3000 + static_cast<uint64_t>(t));
      for (int i = 0; i < kViewsPerThread; ++i) {
        const size_t id = static_cast<size_t>(rng.Uniform(
            static_cast<uint64_t>(num_segments)));
        const bool forward = rng.Uniform(2) == 1;
        if (!store.View(id, forward).ok()) ++view_failures;
      }
    });
  }
  for (auto& thread : writers) thread.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(view_failures.load(), 0);

  // At quiescence the totals are exact: every View() was a hit or a miss,
  // all 8 segments were touched, gzip fills materialized rows while
  // columnar fills borrowed.
  const LogStoreStats s = store.stats();
  EXPECT_EQ(s.cache_hits + s.cache_misses,
            static_cast<int64_t>(kThreads) * kViewsPerThread);
  EXPECT_EQ(s.segments_touched, num_segments);
  EXPECT_EQ(s.tables_materialized + s.segments_borrowed, s.decode_count);
  EXPECT_GT(s.tables_materialized, 0);  // the 4 gzip segments
  EXPECT_GT(s.segments_borrowed, 0);    // the 4 columnar segments
  EXPECT_GT(s.bytes_decompressed, 0);
  EXPECT_GT(s.rows_materialized, 0);
}

}  // namespace
}  // namespace dslog
