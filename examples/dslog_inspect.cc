// dslog_inspect: dumps the structure of a LogStore file — header/version,
// array catalog, per-segment edge index (layout, row count,
// bytes/row, offset, size, checksum verification), and footer totals.
// Mixed-layout stores (v1 ProvRC-GZip segments next to v2 columnar ones)
// show per-layout subtotals, so "which edges still pay a gunzip" is
// answerable at a glance. Row counts ride in the footer; for raw segments
// appended without one the tool decodes the segment once to count (marked
// with '*').
//
//   ./dslog_inspect <log.dsl>
//
// With no argument, builds a small mixed-layout demo catalog in the
// scratch dir and inspects that, so the example is runnable stand-alone.
//
// Traced-query mode runs one profiled lineage query against the store and
// dumps both the QueryProfile (per-hop rows/paths/timings) and a Chrome
// trace_event JSON file (load it at chrome://tracing or ui.perfetto.dev):
//
//   ./dslog_inspect --trace <log.dsl> [--query A B C ...] [--trace-out f.json]
//
// --query names the array path (default: one backward hop over the first
// segment); the query box covers the whole first array on the path.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/io.h"
#include "common/strings.h"
#include "common/trace.h"
#include "lineage/lineage_relation.h"
#include "query/box.h"
#include "storage/dslog.h"
#include "storage/logstore.h"

using namespace dslog;

namespace {

std::string BuildDemoStore() {
  DSLog log;
  const int64_t n = 64;
  (void)log.DefineArray("a0", {n});
  auto add_step = [&](int i) {
    std::string in = std::string("a").append(std::to_string(i));
    std::string out = std::string("a").append(std::to_string(i + 1));
    (void)log.DefineArray(out, {n});
    LineageRelation rel(1, 1);
    rel.set_shapes({n}, {n});
    for (int64_t c = 0; c < n; ++c) {
      const int64_t tuple[2] = {c, (c + i) % n};
      rel.AddTuple(tuple);
    }
    OperationRegistration reg;
    reg.op_name = "demo_step_" + std::to_string(i);
    reg.in_arrs = {in};
    reg.out_arr = out;
    reg.captured.push_back(std::move(rel));
    reg.reuse = false;
    auto outcome = log.RegisterOperation(std::move(reg));
    DSLOG_CHECK(outcome.ok()) << outcome.status().ToString();
  };
  std::string path = ScratchDir() + "/inspect_demo.dsl";
  // First half as a gzip store, second half appended columnar — a mixed
  // store, so the demo output shows both layouts.
  for (int i = 0; i < 3; ++i) add_step(i);
  Status st = log.SaveLogStore(path, SegmentLayout::kProvRcGzip);
  DSLOG_CHECK(st.ok()) << st.ToString();
  for (int i = 3; i < 6; ++i) add_step(i);
  st = log.AppendLogStore(path);
  DSLOG_CHECK(st.ok()) << st.ToString();
  return path;
}

/// Row count of a segment: from the footer when recorded, otherwise by
/// decoding the segment once (raw segments appended without a count).
int64_t SegmentRows(const LogStore& store, size_t id, bool* decoded) {
  const LogStore::SegmentInfo& seg = store.segments()[id];
  *decoded = false;
  if (seg.row_count >= 0) return seg.row_count;
  auto table = store.Table(id);
  if (!table.ok()) return -1;
  *decoded = true;
  return table.value()->num_rows();
}

/// --trace mode: one profiled query through DSLog::OpenInSitu, profile
/// dump to stdout, Chrome trace_event JSON to `trace_out`.
int RunTracedQuery(const std::string& path,
                   std::vector<std::string> query_path,
                   const std::string& trace_out) {
  auto opened = DSLog::OpenInSitu(path);
  if (!opened.ok()) {
    std::fprintf(stderr, "cannot open %s in situ: %s\n", path.c_str(),
                 opened.status().ToString().c_str());
    return 1;
  }
  DSLog log = std::move(opened).value();
  if (query_path.empty()) {
    // Default: one backward hop over the store's first segment.
    auto store = log.log_store();
    if (store == nullptr || store->segments().empty()) {
      std::fprintf(stderr, "store has no segments; pass --query A B ...\n");
      return 1;
    }
    const LogStore::SegmentInfo& seg = store->segments().front();
    query_path = {seg.out_arr, seg.in_arr};
  }
  auto shape = log.ArrayShape(query_path.front());
  if (!shape.ok()) {
    std::fprintf(stderr, "unknown array %s: %s\n", query_path.front().c_str(),
                 shape.status().ToString().c_str());
    return 1;
  }
  std::vector<Interval> box;
  for (int64_t d : shape.value()) box.push_back({0, d - 1});

  QueryOptions options;
  options.profile = true;
  QueryProfile profile;
  auto result =
      log.ProvQuery(query_path, BoxTable::FromBox(std::move(box)), options,
                    &profile);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("traced query over %s:\n%s", path.c_str(),
              profile.ToText().c_str());
  Status st = trace::WriteJson(trace_out);
  if (!st.ok()) {
    std::fprintf(stderr, "cannot write trace: %s\n", st.ToString().c_str());
    return 3;
  }
  std::printf("\nwrote %lld trace event(s) to %s (open in chrome://tracing)\n",
              static_cast<long long>(trace::EventCount()), trace_out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool traced = false;
  std::string trace_out = "trace.json";
  std::string path;
  std::vector<std::string> query_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      traced = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--query") == 0) {
      while (i + 1 < argc && argv[i + 1][0] != '-') query_path.push_back(argv[++i]);
    } else {
      path = argv[i];
    }
  }
  if (path.empty()) {
    path = BuildDemoStore();
    std::printf("(no file given; inspecting demo store %s)\n\n", path.c_str());
  }
  if (traced) return RunTracedQuery(path, std::move(query_path), trace_out);

  auto opened = LogStore::Open(path);
  if (!opened.ok()) {
    std::fprintf(stderr, "cannot open %s: %s\n", path.c_str(),
                 opened.status().ToString().c_str());
    return 1;
  }
  const LogStore& store = *opened.value();

  std::printf("LogStore %s\n", path.c_str());
  std::printf("  format version : %u\n", LogStore::kFormatVersion);
  std::printf("  file size      : %s\n",
              HumanBytes(store.file_size()).c_str());
  std::printf("  backed by      : %s\n",
              store.mapped() ? "mmap" : "heap read fallback");
  std::printf("  arrays         : %zu\n", store.arrays().size());
  std::printf("  segments       : %zu\n", store.segments().size());
  std::printf("  edge index     : perfect-hash (%.2f bits/key, %u-bit "
              "fingerprints)\n",
              store.index_bits_per_key(), store.index_fingerprint_bits());
  std::printf("  predictor blob : %s\n\n",
              HumanBytes(static_cast<int64_t>(store.predictor_state().size()))
                  .c_str());

  std::printf("arrays:\n");
  for (const auto& [name, shape] : store.arrays())
    std::printf("  %-24s [%s]\n", name.c_str(), JoinInts(shape, ", ").c_str());

  std::printf("\nsegments (edge index):\n");
  std::printf("  %4s %-14s %-14s %-14s %-9s %9s %10s %9s %9s\n", "id",
              "in_arr", "out_arr", "op", "layout", "rows", "bytes", "B/row",
              "checksum");
  int64_t total_bytes = 0;
  int64_t layout_bytes[2] = {0, 0};
  int layout_count[2] = {0, 0};
  int corrupt = 0;
  for (size_t i = 0; i < store.segments().size(); ++i) {
    const LogStore::SegmentInfo& seg = store.segments()[i];
    const bool ok = Hash64(store.SegmentView(i)) == seg.checksum;
    if (!ok) ++corrupt;
    total_bytes += static_cast<int64_t>(seg.length);
    const int slot = seg.layout == SegmentLayout::kColumnar ? 1 : 0;
    layout_bytes[slot] += static_cast<int64_t>(seg.length);
    ++layout_count[slot];
    bool decoded = false;
    const int64_t rows = ok ? SegmentRows(store, i, &decoded) : -1;
    char rows_text[32];
    if (rows >= 0)
      std::snprintf(rows_text, sizeof rows_text, "%lld%s",
                    static_cast<long long>(rows), decoded ? "*" : "");
    else
      std::snprintf(rows_text, sizeof rows_text, "?");
    char per_row[32];
    if (rows > 0)
      std::snprintf(per_row, sizeof per_row, "%.1f",
                    static_cast<double>(seg.length) / static_cast<double>(rows));
    else
      std::snprintf(per_row, sizeof per_row, "-");
    std::printf("  %4zu %-14s %-14s %-14s %-9s %9s %10llu %9s %9s\n", i,
                seg.in_arr.c_str(), seg.out_arr.c_str(), seg.op_name.c_str(),
                slot == 1 ? "v2-col" : "v1-gzip", rows_text,
                static_cast<unsigned long long>(seg.length), per_row,
                ok ? "ok" : "MISMATCH");
  }
  std::printf("\ntotals: %s of segments (%d v1-gzip: %s, %d v2-columnar: %s)",
              HumanBytes(total_bytes).c_str(), layout_count[0],
              HumanBytes(layout_bytes[0]).c_str(), layout_count[1],
              HumanBytes(layout_bytes[1]).c_str());
  if (corrupt > 0) {
    std::printf(", %d CORRUPT segment(s)\n", corrupt);
    return 2;
  }
  std::printf(", all checksums ok\n");
  return 0;
}
