// bench_catalog_scale: catalog-open, first-probe, and negative-probe
// latency of the perfect-hash edge index at 10^5-10^6 stored edges. The
// store is synthetic — a dense bipartite
// edge set over ~2*sqrt(edges) arrays, every segment the same tiny
// pre-serialized one-row columnar table — so the measurement isolates the
// catalog index itself: footer parse + index bind at open, index probe +
// one small segment resolve on the first query, pure index rejection on
// the negative probes.
//
//   bench_catalog_scale [--edges N] [--reps R] [--json PATH]
//
// With --json the records splice into PATH as the "catalog_scale" section
// of the host document (BENCH_storage.json in CI), preserving the host
// bench's records.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/io.h"
#include "common/strings.h"
#include "common/timer.h"
#include "lineage/lineage_relation.h"
#include "provrc/provrc.h"
#include "provrc/serialize.h"
#include "query/box.h"
#include "storage/dslog.h"
#include "storage/logstore.h"

namespace dslog {
namespace bench {
namespace {

std::string InArr(int64_t i) {
  return Format("in%05lld", static_cast<long long>(i));
}
std::string OutArr(int64_t j) {
  return Format("out%05lld", static_cast<long long>(j));
}

/// One tiny identity segment, shared (byte-identical) by every edge.
struct SegmentPayload {
  std::string bytes;
  int64_t row_count = 0;
  IntervalColumnStats out0_stats;
};

SegmentPayload MakePayload() {
  LineageRelation rel(1, 1);
  rel.set_shapes({4}, {4});
  rel.mutable_flat() = {0, 0};  // out cell 0 <- in cell 0
  CompressedTable table = ProvRcCompress(rel);
  SegmentPayload payload;
  payload.bytes = SerializeCompressedTableColumnar(table);
  payload.row_count = table.num_rows();
  payload.out0_stats = ComputeOut0Stats(table);
  return payload;
}

/// Writes a store with exactly `edges` bipartite edges.
void BuildStore(const std::string& path, int64_t edges, int64_t side,
                const SegmentPayload& payload) {
  auto writer = LogStoreWriter::Create(path);
  DSLOG_CHECK(writer.ok()) << writer.status().ToString();
  for (int64_t i = 0; i < side; ++i) {
    writer.value().PutArray(InArr(i), {4});
    writer.value().PutArray(OutArr(i), {4});
  }
  int64_t written = 0;
  for (int64_t i = 0; i < side && written < edges; ++i) {
    for (int64_t j = 0; j < side && written < edges; ++j) {
      Status st = writer.value().AppendRawSegment(
          InArr(i), OutArr(j), "op", payload.bytes, SegmentLayout::kColumnar,
          payload.row_count, payload.out0_stats);
      DSLOG_CHECK(st.ok()) << st.ToString();
      ++written;
    }
  }
  Status st = writer.value().Finish();
  DSLOG_CHECK(st.ok()) << st.ToString();
}

struct Timings {
  double open_us = 0;
  double first_probe_us = 0;
  double negative_probe_us = 0;
};

/// One rep: a timed open + timed first (positive) probe, then a second,
/// untimed open whose only traffic is negative probes — asserting that
/// absent-edge lookups resolve from the index alone, with zero segment
/// bytes decoded.
Timings MeasureOnce(const std::string& path, int64_t side) {
  Timings t;
  {
    WallTimer timer;
    auto opened = DSLog::OpenInSitu(path);
    DSLOG_CHECK(opened.ok()) << opened.status().ToString();
    t.open_us = timer.ElapsedSeconds() * 1e6;
    const BoxTable query = BoxTable::FromCells(1, {0});
    WallTimer probe;
    auto result =
        opened.value().ProvQuery({InArr(side / 2), OutArr(side / 2)}, query);
    t.first_probe_us = probe.ElapsedSeconds() * 1e6;
    DSLOG_CHECK(result.ok()) << result.status().ToString();
  }
  {
    auto opened = DSLog::OpenInSitu(path);
    DSLOG_CHECK(opened.ok()) << opened.status().ToString();
    const BoxTable query = BoxTable::FromCells(1, {0});
    constexpr int kNegativeProbes = 256;
    WallTimer probe;
    for (int i = 0; i < kNegativeProbes; ++i) {
      auto result = opened.value().ProvQuery(
          {InArr(i % 7), Format("absent%04d", i)}, query);
      DSLOG_CHECK(!result.ok());
    }
    t.negative_probe_us =
        probe.ElapsedSeconds() * 1e6 / kNegativeProbes;
    const LogStoreStats stats = opened.value().log_store()->stats();
    DSLOG_CHECK(stats.decode_count == 0)
        << "negative probes touched " << stats.decode_count << " segment(s)";
  }
  return t;
}

}  // namespace

int Main(int argc, char** argv) {
  int64_t edges = 100000;
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--edges") == 0 && i + 1 < argc)
      edges = std::atoll(argv[++i]);
    else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc)
      reps = std::atoi(argv[++i]);
  }
  DSLOG_CHECK(edges > 0 && reps > 0);
  const int64_t side =
      static_cast<int64_t>(std::ceil(std::sqrt(static_cast<double>(edges))));

  JsonReporter json("catalog_scale", argc, argv);
  json.set_nested_key("catalog_scale");
  json.TopNum("edges", static_cast<double>(edges));

  const SegmentPayload payload = MakePayload();
  std::printf("catalog scale: %lld edges (%lld x %lld bipartite), %d reps\n",
              static_cast<long long>(edges), static_cast<long long>(side),
              static_cast<long long>(side), reps);
  PrintRule(91);
  std::printf("%14s %16s %18s %14s %14s\n", "open_us", "first_probe_us",
              "negative_probe_us", "file_bytes", "bits/key");
  PrintRule(91);

  const std::string path = ScratchDir() + "/bench_catalog_scale.dsl";
  BuildStore(path, edges, side, payload);

  // One untimed rep first: process-wide one-time set-up on the first query
  // (metrics registry entries, static caches) is not the catalog's cost.
  MeasureOnce(path, side);
  Timings mean;
  for (int r = 0; r < reps; ++r) {
    Timings t = MeasureOnce(path, side);
    mean.open_us += t.open_us / reps;
    mean.first_probe_us += t.first_probe_us / reps;
    mean.negative_probe_us += t.negative_probe_us / reps;
  }

  auto store = LogStore::Open(path);
  DSLOG_CHECK(store.ok()) << store.status().ToString();
  const int64_t file_bytes = store.value()->file_size();
  // Bytes the catalog (everything but the segment payloads, the fixed
  // header, and the 20-byte trailer) costs per edge.
  const int64_t payload_bytes =
      static_cast<int64_t>(store.value()->segment_info(0).offset) +
      edges * static_cast<int64_t>(payload.bytes.size()) + 20;
  const double footer_bytes_per_edge =
      static_cast<double>(file_bytes - payload_bytes) /
      static_cast<double>(edges);
  const double bits_per_key = store.value()->index_bits_per_key();

  std::printf("%14.1f %16.1f %18.3f %14lld %14.2f\n", mean.open_us,
              mean.first_probe_us, mean.negative_probe_us,
              static_cast<long long>(file_bytes), bits_per_key);
  PrintRule(91);

  json.Add()
      .Str("index_kind", "phf")
      .Num("edges", static_cast<double>(edges))
      .Num("reps", reps)
      .Num("catalog_open_us", mean.open_us)
      .Num("first_probe_us", mean.first_probe_us)
      .Num("open_plus_first_probe_us", mean.open_us + mean.first_probe_us)
      .Num("negative_probe_us", mean.negative_probe_us)
      .Num("file_bytes", static_cast<double>(file_bytes))
      .Num("footer_bytes_per_edge", footer_bytes_per_edge)
      .Num("index_bits_per_key", bits_per_key)
      .Num("index_fingerprint_bits",
           static_cast<double>(store.value()->index_fingerprint_bits()));
  (void)RemoveFileIfExists(path);
  return 0;
}

}  // namespace bench
}  // namespace dslog

int main(int argc, char** argv) { return dslog::bench::Main(argc, argv); }
