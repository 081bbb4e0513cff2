// Metrics-registry and trace-span tests: counter/gauge/histogram
// semantics, log2 bucketing, snapshot consistency under concurrent
// writers (the 8-writer x snapshot-reader stress is the TSan target),
// registry identity/export, trace span capture + runtime gating, and the
// zero-overhead contract (an unprofiled query must leave every
// profile-only metric and the trace buffers untouched).

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/trace.h"
#include "lineage/lineage_relation.h"
#include "provrc/compressed_table.h"
#include "provrc/provrc.h"
#include "query/box.h"
#include "query/query_engine.h"
#include "query/theta_join.h"

namespace dslog {
namespace {

using metrics::Counter;
using metrics::Gauge;
using metrics::Histogram;
using metrics::Registry;
using metrics::RegistrySnapshot;

// --------------------------------------------------------------- counters --

TEST(CounterTest, AddIncrementValueReset) {
  Counter c;
  EXPECT_EQ(c.Value(), 0);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42);
  c.Add(-2);
  EXPECT_EQ(c.Value(), 40);
  c.Reset();
  EXPECT_EQ(c.Value(), 0);
}

TEST(CounterTest, ConcurrentAddsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int64_t i = 0; i < kPerThread; ++i) c.Increment();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAddValue) {
  Gauge g;
  g.Set(7);
  EXPECT_EQ(g.Value(), 7);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 4);
  g.Set(100);
  EXPECT_EQ(g.Value(), 100);
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
}

// -------------------------------------------------------------- histogram --

TEST(HistogramTest, Log2Buckets) {
  // Bucket 0 holds v <= 0; bucket b holds [2^(b-1), 2^b - 1].
  EXPECT_EQ(Histogram::BucketFor(-5), 0);
  EXPECT_EQ(Histogram::BucketFor(0), 0);
  EXPECT_EQ(Histogram::BucketFor(1), 1);
  EXPECT_EQ(Histogram::BucketFor(2), 2);
  EXPECT_EQ(Histogram::BucketFor(3), 2);
  EXPECT_EQ(Histogram::BucketFor(4), 3);
  EXPECT_EQ(Histogram::BucketFor(1023), 10);
  EXPECT_EQ(Histogram::BucketFor(1024), 11);
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1);
  EXPECT_EQ(Histogram::BucketLowerBound(11), 1024);
}

TEST(HistogramTest, RecordCountSumMaxQuantiles) {
  Histogram h;
  for (int64_t v : {1, 1, 2, 4, 8, 100, 1000}) h.Record(v);
  EXPECT_EQ(h.count(), 7);
  EXPECT_EQ(h.sum(), 1116);
  EXPECT_EQ(h.max(), 1000);
  metrics::HistogramSnapshot snap;
  snap.count = h.count();
  snap.sum = h.sum();
  snap.max = h.max();
  for (int b = 0; b < Histogram::kBuckets; ++b)
    snap.buckets[static_cast<size_t>(b)] = h.bucket(b);
  // Quantiles resolve to bucket lower bounds (conservative).
  EXPECT_EQ(snap.Quantile(0.0), 1);
  EXPECT_EQ(snap.Quantile(0.5), 4);
  EXPECT_EQ(snap.Quantile(1.0), 512);
  EXPECT_NEAR(snap.Mean(), 1116.0 / 7.0, 1e-9);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.max(), 0);
}

// --------------------------------------------------------------- registry --

TEST(RegistryTest, SameNameSameMetric) {
  Registry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.Add(5);
  EXPECT_EQ(b.Value(), 5);
  EXPECT_NE(&reg.counter("y"), &a);
  // Distinct kinds live in distinct namespaces even under one name.
  reg.gauge("x").Set(17);
  EXPECT_EQ(reg.counter("x").Value(), 5);
}

TEST(RegistryTest, SnapshotAndExport) {
  Registry reg;
  reg.counter("queries").Add(3);
  reg.gauge("depth").Set(2);
  reg.histogram("lat_us").Record(100);
  reg.histogram("lat_us").Record(300);

  RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("queries"), 3);
  EXPECT_EQ(snap.CounterValue("absent"), 0);
  ASSERT_NE(snap.FindGauge("depth"), nullptr);
  EXPECT_EQ(snap.FindGauge("depth")->value, 2);
  ASSERT_NE(snap.FindHistogram("lat_us"), nullptr);
  EXPECT_EQ(snap.FindHistogram("lat_us")->count, 2);
  EXPECT_EQ(snap.FindHistogram("lat_us")->sum, 400);

  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"queries\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"lat_us\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  const std::string text = snap.ToText();
  EXPECT_NE(text.find("counter"), std::string::npos);
  EXPECT_NE(text.find("queries = 3"), std::string::npos);

  reg.Reset();
  EXPECT_EQ(reg.Snapshot().CounterValue("queries"), 0);
  EXPECT_EQ(reg.Snapshot().FindHistogram("lat_us")->count, 0);
}

TEST(RegistryTest, GlobalIsAProcessSingleton) {
  EXPECT_EQ(&Registry::Global(), &Registry::Global());
}

// The TSan target: 8 writers hammer one counter and one histogram while a
// reader loops Snapshot(). Snapshots must never be torn (counter value
// within [0, total]; histogram count >= any previously observed count —
// monotonic without resets) and the final values must be exact.
TEST(RegistryStressTest, EightWritersVsSnapshotReader) {
  Registry reg;
  Counter& c = reg.counter("stress.counter");
  Histogram& h = reg.histogram("stress.hist");
  constexpr int kWriters = 8;
  constexpr int64_t kPerThread = 20000;
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    int64_t prev_count = 0;
    int64_t prev_value = 0;
    while (!stop.load(std::memory_order_acquire)) {
      RegistrySnapshot snap = reg.Snapshot();
      const int64_t v = snap.CounterValue("stress.counter");
      const auto* hist = snap.FindHistogram("stress.hist");
      ASSERT_NE(hist, nullptr);
      EXPECT_GE(v, prev_value);
      EXPECT_LE(v, kWriters * kPerThread);
      EXPECT_GE(hist->count, prev_count);
      EXPECT_LE(hist->count, kWriters * kPerThread);
      prev_value = v;
      prev_count = hist->count;
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t)
    writers.emplace_back([&c, &h, t] {
      for (int64_t i = 0; i < kPerThread; ++i) {
        c.Increment();
        h.Record(1 + ((i + t) & 255));
      }
    });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(c.Value(), kWriters * kPerThread);
  RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.FindHistogram("stress.hist")->count, kWriters * kPerThread);
}

// ------------------------------------------------------------ trace spans --

TEST(TraceTest, DisabledByDefaultAndRuntimeGated) {
  trace::Clear();
  ASSERT_FALSE(trace::Enabled());
  { trace::Span span("should_not_record", "test"); }
  EXPECT_EQ(trace::EventCount(), 0);

  if (!trace::kCompiledIn) {
    // DSLOG_TRACE=OFF build: spans are empty structs; export is refused.
    trace::SetEnabled(true);
    { trace::Span span("still_nothing", "test"); }
    EXPECT_EQ(trace::EventCount(), 0);
    trace::SetEnabled(false);
    return;
  }

  {
    trace::EnabledScope on(true);
    ASSERT_TRUE(trace::Enabled());
    trace::Span span("recorded", "test");
    span.Arg("k", 7);
  }
  EXPECT_FALSE(trace::Enabled());  // EnabledScope restored the prior state
  EXPECT_EQ(trace::EventCount(), 1);
  const std::string json = trace::ExportJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"recorded\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"k\": 7"), std::string::npos);
  trace::Clear();
  EXPECT_EQ(trace::EventCount(), 0);
}

TEST(TraceTest, SpanStartedWhileDisabledStaysSilent) {
  if (!trace::kCompiledIn) GTEST_SKIP() << "tracing compiled out";
  trace::Clear();
  trace::Span span("started_disabled", "test");
  trace::SetEnabled(true);  // enabling mid-span must not record it
  span.Arg("late", 1);
  trace::SetEnabled(false);
  EXPECT_EQ(trace::EventCount(), 0);
}

// ---------------------------------------------------- zero-overhead gate --

CompressedTable MakeSmallTable() {
  CompressedTable table({256}, {256});
  CompressedRow row;
  for (int64_t r = 0; r < 200; ++r) {
    row.out = {{r, r + 4}};
    row.in = {InputCell::Relative(0, {0, 0})};
    table.AddRow(row);
  }
  return table;
}

// An unprofiled query must not touch any profile-only metric (the
// "dslog.query.profiled" counter, the per-query latency histogram) and
// must not emit trace events — this is the registry-visible face of the
// "no instrumentation on the hot path unless asked" contract.
TEST(ZeroOverheadTest, UnprofiledQueryTouchesNoProfileMetrics) {
  CompressedTable table = MakeSmallTable();
  std::vector<QueryHop> hops;
  hops.emplace_back(&table, /*forward=*/false);
  BoxTable query(1);
  const Interval box[1] = {{10, 40}};
  query.AddBox(box);

  RegistrySnapshot before = Registry::Global().Snapshot();
  const auto* wall_before = before.FindHistogram("dslog.query.wall_us");
  const int64_t wall_count_before =
      wall_before != nullptr ? wall_before->count : 0;
  const int64_t events_before = trace::EventCount();

  QueryOptions options;  // profile defaults to false
  QueryProfile ignored;
  // Even with a profile object handed in, profile=false must keep the
  // fast path: the struct stays empty and nothing profile-only moves.
  BoxTable result = InSituQuery(hops, query, options, &ignored);
  EXPECT_GT(result.num_boxes(), 0);
  EXPECT_TRUE(ignored.hops.empty());

  RegistrySnapshot after = Registry::Global().Snapshot();
  EXPECT_EQ(after.CounterValue("dslog.query.profiled"),
            before.CounterValue("dslog.query.profiled"));
  const auto* wall_after = after.FindHistogram("dslog.query.wall_us");
  const int64_t wall_count_after =
      wall_after != nullptr ? wall_after->count : 0;
  EXPECT_EQ(wall_count_after, wall_count_before);
  EXPECT_EQ(trace::EventCount(), events_before);
  // The unprofiled counterpart metrics *do* move (they are relaxed adds
  // outside the join loops, not per-candidate work).
  EXPECT_EQ(after.CounterValue("dslog.query.count"),
            before.CounterValue("dslog.query.count") + 1);

  // No clock read either. The between-hop merge is the only step inside a
  // hop that times itself, and its timer sits on the profiled path with its
  // BoxTable.Merge span. With tracing forced on, an unprofiled merging
  // query still records no span at all.
  trace::EnabledScope tracing(true);
  const int64_t traced_before = trace::EventCount();
  BoxTable traced = InSituQuery(hops, query, options);
  EXPECT_EQ(trace::EventCount(), traced_before);
  EXPECT_EQ(traced.num_boxes(), result.num_boxes());
}

// ProvRC times its two steps into always-on histograms, once per call, and
// records its ProvRC.Compress span only while tracing is on.
TEST(ZeroOverheadTest, ProvRcSpanOnlyWhenTracing) {
  LineageRelation rel(1, 1);
  rel.set_shapes({64}, {64});
  for (int64_t c = 63; c >= 0; --c) {  // unsorted, with one duplicate row
    const int64_t tuple[2] = {c, c};
    rel.AddTuple(tuple);
  }
  const int64_t dup[2] = {5, 5};
  rel.AddTuple(dup);
  auto count = [](const char* name) {
    const RegistrySnapshot snapshot = Registry::Global().Snapshot();
    const auto* h = snapshot.FindHistogram(name);
    return h != nullptr ? h->count : 0;
  };
  const int64_t range_encode_before = count("dslog.ingest.range_encode_us");
  const int64_t relative_before = count("dslog.ingest.relative_us");

  trace::Clear();
  ASSERT_FALSE(trace::Enabled());
  EXPECT_EQ(ProvRcCompress(rel).num_rows(), 1);
  EXPECT_EQ(trace::EventCount(), 0);
  EXPECT_EQ(count("dslog.ingest.range_encode_us"), range_encode_before + 1);
  EXPECT_EQ(count("dslog.ingest.relative_us"), relative_before + 1);

  // Without step 2 only the range-encoding histogram moves.
  ProvRcOptions step1_only;
  step1_only.enable_relative_transform = false;
  EXPECT_EQ(ProvRcCompress(rel, step1_only).num_rows(), 64);
  EXPECT_EQ(count("dslog.ingest.range_encode_us"), range_encode_before + 2);
  EXPECT_EQ(count("dslog.ingest.relative_us"), relative_before + 1);

  if (!trace::kCompiledIn) return;
  {
    trace::EnabledScope on(true);
    ProvRcCompress(rel);
  }
  EXPECT_EQ(trace::EventCount(), 1);
  const std::string json = trace::ExportJson();
  EXPECT_NE(json.find("\"ProvRC.Compress\""), std::string::npos);
  EXPECT_NE(json.find("\"rows_in\": 65"), std::string::npos);
  EXPECT_NE(json.find("\"rows_step1\": 64"), std::string::npos);
  EXPECT_NE(json.find("\"rows_out\": 1"), std::string::npos);
  trace::Clear();
}

// Counters are opt-in (nullptr at every unprofiled call site): passing a
// JoinCounters only changes the join's instrumentation, never its result.
TEST(ZeroOverheadTest, CountersAreOptInAndResultInvariant) {
  CompressedTable table = MakeSmallTable();
  BoxTable query(1);
  const Interval box[1] = {{10, 40}};
  query.AddBox(box);

  BoxTable plain = BackwardThetaJoin(query, table);
  JoinCounters counters;
  BoxTable counted = BackwardThetaJoin(query, table, &counters);
  ASSERT_EQ(plain.num_boxes(), counted.num_boxes());
  EXPECT_EQ(counters.probes, 1);
  EXPECT_GT(counters.rows_scanned, 0);
  EXPECT_EQ(counters.rows_emitted, counted.num_boxes());

  // A profiled query times each hop's merge into HopProfile::merge_us and
  // emits one BoxTable.Merge span carrying the box counts; with the merge
  // off merge_us reads 0.
  std::vector<QueryHop> hops;
  hops.emplace_back(&table, /*forward=*/false);
  QueryOptions options;
  options.profile = true;
  options.merge_between_hops = false;
  QueryProfile unmerged_profile;
  InSituQuery(hops, query, options, &unmerged_profile);
  ASSERT_EQ(unmerged_profile.hops.size(), 1u);
  EXPECT_EQ(unmerged_profile.hops[0].merge_us, 0);
  EXPECT_EQ(unmerged_profile.hops[0].result_boxes, counted.num_boxes());

  options.merge_between_hops = true;
  QueryProfile profile;
  const int64_t events_before = trace::EventCount();
  BoxTable merged = InSituQuery(hops, query, options, &profile);
  ASSERT_EQ(profile.hops.size(), 1u);
  const HopProfile& hop = profile.hops[0];
  EXPECT_LT(merged.num_boxes(), counted.num_boxes());
  EXPECT_EQ(hop.rows_emitted, counted.num_boxes());
  EXPECT_EQ(hop.result_boxes, merged.num_boxes());
  EXPECT_GE(hop.merge_us, 0);
  EXPECT_LE(static_cast<double>(hop.merge_us), hop.wall_ms * 1000.0 + 1.0)
      << "the merge runs inside the hop's timer";
  if (trace::kCompiledIn) {
    // InSituQuery, the hop and its merge.
    EXPECT_EQ(trace::EventCount(), events_before + 3);
    const std::string json = trace::ExportJson();
    EXPECT_NE(json.find("\"BoxTable.Merge\""), std::string::npos);
    EXPECT_NE(json.find("\"boxes_in\": " +
                        std::to_string(counted.num_boxes())),
              std::string::npos);
    EXPECT_NE(json.find("\"boxes_out\": " +
                        std::to_string(merged.num_boxes())),
              std::string::npos);
  }
}

}  // namespace
}  // namespace dslog
