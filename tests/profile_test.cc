// QueryProfile end-to-end tests: a columnar LogStore reopened in situ is
// queried with QueryOptions::profile and the per-hop record is asserted
// exactly — edge identity, segment resolution (cold zero-copy borrow vs
// warm LRU hit, on-disk byte counts), join execution (rows, probes,
// scanned and emitted counts), and the invariant that profiling never
// changes the query result. Also covers ProvQueryBatch profile fan-out,
// hand-built InSituQuery hop vectors, and the ToJson/ToText exports.

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/io.h"
#include "lineage/lineage_relation.h"
#include "provrc/compressed_table.h"
#include "query/box.h"
#include "query/query_engine.h"
#include "query/theta_join.h"
#include "storage/dslog.h"
#include "storage/logstore.h"

namespace dslog {
namespace {

constexpr int64_t kN = 64;
constexpr int kSteps = 3;

/// A kSteps-deep 1-D chain a0 -> a1 -> ... where step i maps cell c to
/// (c + i + 1) % kN — every relation is total, so a full-array backward
/// query touches every segment on the path.
void BuildChain(DSLog* log) {
  ASSERT_TRUE(log->DefineArray("a0", {kN}).ok());
  for (int i = 0; i < kSteps; ++i) {
    const std::string in = std::string("a").append(std::to_string(i));
    const std::string out = std::string("a").append(std::to_string(i + 1));
    ASSERT_TRUE(log->DefineArray(out, {kN}).ok());
    LineageRelation rel(1, 1);
    rel.set_shapes({kN}, {kN});
    for (int64_t c = 0; c < kN; ++c) {
      const int64_t tuple[2] = {(c + i + 1) % kN, c};
      rel.AddTuple(tuple);
    }
    OperationRegistration reg;
    reg.op_name = "step_" + std::to_string(i);
    reg.in_arrs = {in};
    reg.out_arr = out;
    reg.captured.push_back(std::move(rel));
    reg.reuse = false;
    auto outcome = log->RegisterOperation(std::move(reg));
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  }
}

std::string SaveChainStore(const std::string& file) {
  const std::string path = ScratchDir() + "/" + file;
  DSLog log;
  BuildChain(&log);
  Status st = log.SaveLogStore(path);  // columnar: zero-copy segments
  EXPECT_TRUE(st.ok()) << st.ToString();
  return path;
}

std::vector<std::string> BackwardPath() {
  std::vector<std::string> path;
  for (int i = kSteps; i >= 0; --i)
    path.push_back(std::string("a").append(std::to_string(i)));
  return path;
}

void ExpectSameBoxes(const BoxTable& a, const BoxTable& b) {
  ASSERT_EQ(a.ndim(), b.ndim());
  ASSERT_EQ(a.num_boxes(), b.num_boxes());
  for (int64_t i = 0; i < a.num_boxes(); ++i) {
    auto ba = a.Box(i);
    auto bb = b.Box(i);
    for (int d = 0; d < a.ndim(); ++d) {
      EXPECT_EQ(ba[static_cast<size_t>(d)].lo, bb[static_cast<size_t>(d)].lo);
      EXPECT_EQ(ba[static_cast<size_t>(d)].hi, bb[static_cast<size_t>(d)].hi);
    }
  }
}

TEST(ProfileTest, ColdRunRecordsZeroCopyResolvesExactly) {
  const std::string path = SaveChainStore("profile_cold.dsl");
  auto opened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  DSLog log = std::move(opened).value();
  auto store = log.log_store();
  ASSERT_NE(store, nullptr);

  const BoxTable query = BoxTable::FromBox({{0, kN - 1}});
  QueryOptions options;
  options.profile = true;
  QueryProfile profile;
  auto result = log.ProvQuery(BackwardPath(), query, options, &profile);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Profiling must not perturb the result.
  auto plain = log.ProvQuery(BackwardPath(), query);
  ASSERT_TRUE(plain.ok());
  ExpectSameBoxes(result.value(), plain.value());

  ASSERT_EQ(profile.hops.size(), static_cast<size_t>(kSteps));
  EXPECT_FALSE(profile.simd_isa.empty());
  EXPECT_TRUE(profile.merge_between_hops);
  EXPECT_EQ(profile.result_boxes, result.value().num_boxes());
  EXPECT_GE(profile.wall_ms, 0.0);

  for (size_t h = 0; h < profile.hops.size(); ++h) {
    const HopProfile& hp = profile.hops[h];
    // Backward path hop h traverses edge a(kSteps-h-1) -> a(kSteps-h).
    const int step = kSteps - static_cast<int>(h) - 1;
    EXPECT_EQ(hp.in_arr, std::string("a").append(std::to_string(step)));
    EXPECT_EQ(hp.out_arr, std::string("a").append(std::to_string(step + 1)));
    EXPECT_EQ(hp.op_name, "step_" + std::to_string(step));
    EXPECT_FALSE(hp.forward);

    // Cold columnar store: every hop resolves its segment as a zero-copy
    // borrow — no decode, no rows copied, exact on-disk byte count.
    EXPECT_TRUE(hp.from_store);
    EXPECT_FALSE(hp.cache_hit);
    EXPECT_TRUE(hp.borrowed);
    EXPECT_EQ(hp.bytes_decompressed, 0);
    EXPECT_EQ(hp.rows_materialized, 0);
    // v4 footers hold records in PHF-position order, so segment ids no
    // longer track registration order: resolve this hop's segment through
    // the store's edge index.
    auto seg_id = store->FindSegmentId(hp.in_arr, hp.out_arr);
    ASSERT_TRUE(seg_id.ok());
    ASSERT_GE(seg_id.value(), 0);
    const LogStore::SegmentInfo seg =
        store->segment_info(static_cast<size_t>(seg_id.value()));
    ASSERT_EQ(seg.op_name, hp.op_name);
    EXPECT_EQ(hp.segment_bytes, static_cast<int64_t>(seg.length));

    // Join execution: the chain relations are total permutations, so the
    // frontier stays the full array and every hop emits full coverage.
    EXPECT_EQ(hp.table_rows, seg.row_count);
    EXPECT_GE(hp.probes, 1);
    EXPECT_GT(hp.rows_scanned, 0);
    EXPECT_GE(hp.rows_emitted, hp.result_boxes);
    EXPECT_GT(hp.result_boxes, 0);
    EXPECT_GE(hp.wall_ms, 0.0);
    // The merge runs inside the hop's timed join.
    EXPECT_GE(hp.merge_us, 0);
    EXPECT_LE(static_cast<double>(hp.merge_us), hp.wall_ms * 1000.0);
  }
  // The last hop's post-merge output is the query result.
  EXPECT_EQ(profile.hops.back().result_boxes, profile.result_boxes);
}

TEST(ProfileTest, WarmRunHitsTheDecodeCache) {
  const std::string path = SaveChainStore("profile_warm.dsl");
  auto opened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  DSLog log = std::move(opened).value();

  const BoxTable query = BoxTable::FromBox({{0, kN - 1}});
  QueryOptions options;
  options.profile = true;
  QueryProfile cold, warm;
  ASSERT_TRUE(log.ProvQuery(BackwardPath(), query, options, &cold).ok());
  ASSERT_TRUE(log.ProvQuery(BackwardPath(), query, options, &warm).ok());

  ASSERT_EQ(warm.hops.size(), static_cast<size_t>(kSteps));
  for (const HopProfile& hp : warm.hops) {
    EXPECT_TRUE(hp.from_store);
    EXPECT_TRUE(hp.cache_hit);
    EXPECT_EQ(hp.resolve_us, 0);  // no resolve paid on a hit
    EXPECT_GT(hp.segment_bytes, 0);  // identity fields still filled
  }
  // Matches the store-level counters: every warm hop was a hit.
  const LogStoreStats stats = log.log_store()->stats();
  EXPECT_EQ(stats.cache_hits, kSteps);
  EXPECT_EQ(stats.cache_misses, kSteps);
  EXPECT_EQ(stats.segments_borrowed, kSteps);
  EXPECT_EQ(stats.tables_materialized, 0);
  EXPECT_EQ(stats.rows_materialized, 0);
}

TEST(ProfileTest, BatchProfilesFanOutPerEntry) {
  const std::string path = SaveChainStore("profile_batch.dsl");
  auto opened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  DSLog log = std::move(opened).value();

  std::vector<std::string> forward_path;
  for (int i = 0; i <= kSteps; ++i)
    forward_path.push_back(std::string("a").append(std::to_string(i)));
  std::vector<std::vector<std::string>> paths = {
      BackwardPath(), forward_path, {"a2", "a1"}};
  std::vector<BoxTable> queries = {BoxTable::FromBox({{0, kN - 1}}),
                                   BoxTable::FromCells(1, {3, 17}),
                                   BoxTable::FromBox({{8, 15}})};

  QueryOptions options;
  options.profile = true;
  options.num_threads = 4;  // profiles must land in their own slots
  std::vector<QueryProfile> profiles;
  auto results = log.ProvQueryBatch(paths, queries, options, &profiles);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results.value().size(), paths.size());
  ASSERT_EQ(profiles.size(), paths.size());

  for (size_t i = 0; i < paths.size(); ++i) {
    ASSERT_EQ(profiles[i].hops.size(), paths[i].size() - 1) << "entry " << i;
    EXPECT_EQ(profiles[i].result_boxes, results.value()[i].num_boxes());
    // Entry i's own ProvQuery must agree with its batch slot.
    auto solo = log.ProvQuery(paths[i], queries[i]);
    ASSERT_TRUE(solo.ok());
    ExpectSameBoxes(results.value()[i], solo.value());
  }
  // Direction per entry: backward, forward, backward.
  EXPECT_FALSE(profiles[0].hops[0].forward);
  EXPECT_TRUE(profiles[1].hops[0].forward);
  EXPECT_FALSE(profiles[2].hops[0].forward);
  EXPECT_EQ(profiles[2].hops[0].in_arr, "a1");
  EXPECT_EQ(profiles[2].hops[0].out_arr, "a2");
}

TEST(ProfileTest, HandBuiltHopsGetJoinFieldsOnly) {
  CompressedTable table({256}, {256});
  CompressedRow row;
  for (int64_t r = 0; r < 200; ++r) {
    row.out = {{r, r + 4}};
    row.in = {InputCell::Absolute({r, r + 1})};
    table.AddRow(row);
  }
  std::vector<QueryHop> hops;
  hops.emplace_back(&table, /*forward=*/false);
  hops.emplace_back(&table, /*forward=*/true);
  BoxTable query(1);
  const Interval box[1] = {{10, 40}};
  query.AddBox(box);

  QueryOptions options;
  options.profile = true;
  QueryProfile profile;
  BoxTable result = InSituQuery(hops, query, options, &profile);
  BoxTable plain = InSituQuery(hops, query);
  ExpectSameBoxes(result, plain);

  ASSERT_EQ(profile.hops.size(), 2u);
  // No DSLog layer involved: edge identity and storage fields stay empty.
  EXPECT_TRUE(profile.hops[0].in_arr.empty());
  EXPECT_FALSE(profile.hops[0].from_store);
  EXPECT_FALSE(profile.hops[0].forward);
  EXPECT_TRUE(profile.hops[1].forward);
  for (const HopProfile& hp : profile.hops) {
    EXPECT_EQ(hp.table_rows, 200);
    EXPECT_GE(hp.probes, 1);
    EXPECT_GT(hp.rows_scanned, 0);
    EXPECT_GE(hp.merge_us, 0);
    EXPECT_LE(static_cast<double>(hp.merge_us), hp.wall_ms * 1000.0);
  }
  EXPECT_EQ(profile.hops[0].probes, query.num_boxes());
  EXPECT_EQ(profile.hops[1].probes, profile.hops[0].result_boxes);
}

TEST(ProfileTest, JsonAndTextExports) {
  const std::string path = SaveChainStore("profile_export.dsl");
  auto opened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  DSLog log = std::move(opened).value();

  QueryOptions options;
  options.profile = true;
  QueryProfile profile;
  auto result = log.ProvQuery(BackwardPath(), BoxTable::FromBox({{0, kN - 1}}),
                              options, &profile);
  ASSERT_TRUE(result.ok());

  const std::string json = profile.ToJson();
  for (const char* field :
       {"\"simd_isa\"", "\"wall_ms\"", "\"result_boxes\"", "\"hops\"",
        "\"in_arr\"", "\"op_name\"", "\"cache_hit\"", "\"borrowed\"",
        "\"segment_bytes\"", "\"rows_scanned\"", "\"step_0\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << "missing " << field;
  }
  EXPECT_EQ(json.find("\"est_rows\""), std::string::npos);
  // Exactly these keys: no planner estimate and no per-hop representation
  // marker (every forward hop runs the one direct join).
  // A key is a quote, one or more of [a-z_0-9], then `": `.
  std::set<std::string> keys;
  const auto is_key_char = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
  };
  for (size_t p = json.find('"'); p != std::string::npos;
       p = json.find('"', p + 1)) {
    size_t end = p + 1;
    while (end < json.size() && is_key_char(json[end])) ++end;
    if (end > p + 1 && json.compare(end, 3, "\": ") == 0) {
      keys.insert(json.substr(p + 1, end - p - 1));
      p = end + 2;
    }
  }
  const std::set<std::string> want_keys = {
      "simd_isa", "merge_between_hops", "wall_ms",
      "result_boxes", "hops", "hop", "in_arr", "out_arr", "op_name",
      "forward", "from_store", "cache_hit", "borrowed", "segment_bytes",
      "bytes_decompressed", "rows_materialized", "resolve_us", "table_rows",
      "probes", "rows_scanned", "rows_emitted", "merge_us"};
  EXPECT_EQ(keys, want_keys);
  // Well-formed enough to balance braces (cheap structural check; CI
  // validates the trace JSON against a real parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));

  const std::string text = profile.ToText();
  EXPECT_NE(text.find("hop 0"), std::string::npos);
  EXPECT_NE(text.find("hop 2"), std::string::npos);
  EXPECT_NE(text.find("a2 -> a3"), std::string::npos);
  EXPECT_NE(text.find("borrowed"), std::string::npos);
  EXPECT_NE(text.find("(merge "), std::string::npos);
}

}  // namespace
}  // namespace dslog
