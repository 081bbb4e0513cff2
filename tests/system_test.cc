// System-level tests: relational capture ops, explainable-AI capture, the
// DSLog storage manager (registration, path queries, reuse prediction,
// persistence), and the workload generators — the full
// capture -> compress -> store -> query integration.

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "array/ndarray.h"
#include "array/op_registry.h"
#include "common/hash.h"
#include "common/io.h"
#include "common/random.h"
#include "explain/explain.h"
#include "provrc/provrc.h"
#include "query/query_engine.h"
#include "relational/relational_ops.h"
#include "storage/dslog.h"
#include "storage/signatures.h"
#include "workloads/kaggle_sim.h"
#include "workloads/workflows.h"

namespace dslog {
namespace {

std::set<std::vector<int64_t>> ToTupleSet(const std::vector<int64_t>& flat,
                                          int arity) {
  std::set<std::vector<int64_t>> out;
  for (size_t off = 0; off < flat.size(); off += static_cast<size_t>(arity))
    out.insert(std::vector<int64_t>(flat.begin() + static_cast<long>(off),
                                    flat.begin() + static_cast<long>(off) +
                                        arity));
  return out;
}

// -------------------------------------------------------------- relational --

TEST(RelationalOpsTest, InnerJoinMatchesAndLineage) {
  // A: ids {0,1,2}, B: ids {1,2,2,5}: matches (1,1), (2,2) twice.
  NDArray a = NDArray::FromValues({3, 2}, {0, 10, 1, 11, 2, 12});
  NDArray b = NDArray::FromValues({4, 2}, {1, 21, 2, 22, 2, 23, 5, 25});
  auto r = InnerJoin(a, b, 0, 0).ValueOrDie();
  EXPECT_EQ(r.output.shape()[0], 3);  // (1,1), (2,2), (2,2')
  EXPECT_EQ(r.output.shape()[1], 3);  // a's 2 cols + b's non-key col
  // Every output row's key must exist in both inputs.
  for (int64_t k = 0; k < r.output.shape()[0]; ++k) {
    double key = r.output[k * 3];
    EXPECT_TRUE(key == 1.0 || key == 2.0);
  }
  // Lineage: key column cells trace to B as well.
  EXPECT_GT(r.lineage[1].num_rows(), r.output.shape()[0]);
  EXPECT_EQ(r.lineage.size(), 2u);
}

TEST(RelationalOpsTest, InnerJoinSortedKeysProduceStructuredLineage) {
  // Sorted keys on both sides give near-diagonal match lineage that ProvRC
  // compresses well (Table VII "Inner Join" behaviour).
  int64_t n = 2000;
  NDArray a({n, 2});
  NDArray b({n, 2});
  for (int64_t i = 0; i < n; ++i) {
    a[i * 2] = static_cast<double>(i);
    a[i * 2 + 1] = static_cast<double>(i % 7);
    b[i * 2] = static_cast<double>(i);
    b[i * 2 + 1] = static_cast<double>(i % 5);
  }
  auto r = InnerJoin(a, b, 0, 0).ValueOrDie();
  CompressedTable t = ProvRcCompress(r.lineage[0]);
  EXPECT_LT(t.num_rows(), r.lineage[0].num_rows() / 100);
  EXPECT_TRUE(t.Decompress().EqualAsSet(r.lineage[0]));
}

TEST(RelationalOpsTest, GroupByAllToAllWithinGroups) {
  NDArray t = NDArray::FromValues({6, 2}, {1, 10, 0, 20, 1, 30,
                                           0, 40, 1, 50, 0, 60});
  auto r = GroupByAggregate(t, 0, 1).ValueOrDie();
  ASSERT_EQ(r.output.shape()[0], 2);
  EXPECT_EQ(r.output[0], 0.0);
  EXPECT_EQ(r.output[1], 120.0);  // 20+40+60
  EXPECT_EQ(r.output[2], 1.0);
  EXPECT_EQ(r.output[3], 90.0);  // 10+30+50
  EXPECT_EQ(r.lineage[0].num_rows(), 12);  // 6 rows x 2 output cells
}

TEST(RelationalOpsTest, DropNaNColumnsKeepsClean) {
  NDArray t = NDArray::FromValues({2, 3}, {1, std::nan(""), 3, 4, 5, 6});
  auto r = DropNaNColumns(t).ValueOrDie();
  EXPECT_EQ(r.output.shape()[1], 2);
  EXPECT_EQ(r.output[0], 1.0);
  EXPECT_EQ(r.output[1], 3.0);
}

TEST(RelationalOpsTest, OneHotAppendsIndicators) {
  NDArray t = NDArray::FromValues({2, 1}, {0, 2});
  auto r = OneHotEncode(t, 0, 3).ValueOrDie();
  EXPECT_EQ(r.output.shape()[1], 4);
  EXPECT_EQ(r.output[1], 1.0);  // row 0 one-hot position 0
  EXPECT_EQ(r.output[4 + 3], 1.0);  // row 1 one-hot position 2
}

TEST(RelationalOpsTest, AddColumnsAndConstant) {
  NDArray t = NDArray::FromValues({2, 2}, {1, 2, 3, 4});
  auto r1 = AddColumns(t, 0, 1).ValueOrDie();
  EXPECT_EQ(r1.output[2], 3.0);
  auto r2 = AddConstant(r1.output, 0, 10).ValueOrDie();
  EXPECT_EQ(r2.output[0], 11.0);
}

// ----------------------------------------------------------------- explain --

TEST(ExplainTest, DetectorFindsBrightBlob) {
  NDArray frame = NDArray::Zeros({32, 32});
  for (int64_t y = 10; y < 14; ++y)
    for (int64_t x = 20; x < 24; ++x) frame[y * 32 + x] = 200.0;
  TinyDetector det;
  NDArray d = det.Evaluate(frame).ValueOrDie();
  EXPECT_NEAR(d[0], 22, 2);  // x near the blob
  EXPECT_NEAR(d[1], 12, 2);  // y near the blob
  EXPECT_GT(d[4], 1.0);      // confident
}

TEST(ExplainTest, LimeLineageCoversDetectionCells) {
  NDArray frame = MakeSurveillanceFrame(48, 48, 5);
  TinyDetector det;
  Rng rng(6);
  LimeOptions opts;
  opts.num_samples = 64;
  LineageRelation rel = LimeCapture(frame, det, opts, &rng).ValueOrDie();
  EXPECT_GT(rel.num_rows(), 0);
  EXPECT_EQ(rel.out_ndim(), 1);
  EXPECT_EQ(rel.in_ndim(), 2);
  // Indices in bounds; lineage compresses to far fewer rows (segments are
  // rectangles).
  for (int64_t r = 0; r < rel.num_rows(); ++r) {
    EXPECT_LT(rel.Row(r)[0], 6);
    EXPECT_LT(rel.Row(r)[1], 48);
    EXPECT_LT(rel.Row(r)[2], 48);
  }
  CompressedTable t = ProvRcCompress(rel);
  EXPECT_LT(t.num_rows() * 20, rel.num_rows());
  EXPECT_TRUE(t.Decompress().EqualAsSet(rel));
}

TEST(ExplainTest, DRiseLineageThresholded) {
  NDArray frame = MakeSurveillanceFrame(40, 40, 7);
  TinyDetector det;
  Rng rng(8);
  DRiseOptions opts;
  opts.num_masks = 48;
  LineageRelation rel = DRiseCapture(frame, det, opts, &rng).ValueOrDie();
  EXPECT_GT(rel.num_rows(), 0);
  // Thresholding keeps well under the full bipartite size.
  EXPECT_LT(rel.num_rows(), 6 * 40 * 40);
  CompressedTable t = ProvRcCompress(rel);
  EXPECT_TRUE(t.Decompress().EqualAsSet(rel));
}

// ------------------------------------------------------------------ DSLog --

TEST(DSLogTest, DefineAndRegisterAndQuery) {
  DSLog log;
  ASSERT_TRUE(log.DefineArray("x", {16}).ok());
  ASSERT_TRUE(log.DefineArray("y", {16}).ok());
  ASSERT_TRUE(log.DefineArray("z", {1}).ok());
  EXPECT_FALSE(log.DefineArray("x", {2}).ok());  // duplicate

  Rng rng(9);
  NDArray x = NDArray::Random({16}, &rng);
  const ArrayOp* neg = OpRegistry::Global().Find("negative");
  NDArray y = neg->Apply({&x}, OpArgs()).ValueOrDie();
  auto rel1 = neg->Capture({&x}, y, OpArgs()).ValueOrDie();
  const ArrayOp* sum = OpRegistry::Global().Find("sum");
  NDArray z = sum->Apply({&y}, OpArgs()).ValueOrDie();
  auto rel2 = sum->Capture({&y}, z, OpArgs()).ValueOrDie();

  OperationRegistration r1{"negative", {"x"}, "y", {rel1[0]}, OpArgs(), 1, true};
  OperationRegistration r2{"sum", {"y"}, "z", {rel2[0]}, OpArgs(), 2, true};
  ASSERT_TRUE(log.RegisterOperation(std::move(r1)).ok());
  ASSERT_TRUE(log.RegisterOperation(std::move(r2)).ok());

  // Forward x -> z.
  BoxTable q = BoxTable::FromCells(1, {3});
  auto fwd = log.ProvQuery({"x", "y", "z"}, q);
  ASSERT_TRUE(fwd.ok()) << fwd.status().ToString();
  EXPECT_EQ(fwd.value().NumDistinctCells(), 1);  // the single sum cell
  // Backward z -> x: everything contributed.
  BoxTable qz = BoxTable::FromCells(1, {0});
  auto bwd = log.ProvQuery({"z", "y", "x"}, qz);
  ASSERT_TRUE(bwd.ok());
  EXPECT_EQ(bwd.value().NumDistinctCells(), 16);
  // Unknown path segment.
  EXPECT_FALSE(log.ProvQuery({"x", "nope"}, q).ok());
}

// Arity errors are typed: a query or captured lineage whose arity
// disagrees with the arrays is InvalidArgument (never an abort inside a
// θ-join kernel), and a rejected registration changes no catalog or reuse
// state.
void ExpectSameReuseStats(const ReuseStats& a, const ReuseStats& b) {
  EXPECT_EQ(a.base_hits, b.base_hits);
  EXPECT_EQ(a.dim_hits, b.dim_hits);
  EXPECT_EQ(a.gen_hits, b.gen_hits);
  EXPECT_EQ(a.dim_promotions, b.dim_promotions);
  EXPECT_EQ(a.gen_promotions, b.gen_promotions);
  EXPECT_EQ(a.dim_rejections, b.dim_rejections);
  EXPECT_EQ(a.gen_rejections, b.gen_rejections);
  EXPECT_EQ(a.mispredictions, b.mispredictions);
}

/// Registers negative(in) -> out over 1-d arrays of length 8.
Status RegisterNegative(DSLog* log, const std::string& in,
                        const std::string& out) {
  Rng rng(17);
  NDArray xv = NDArray::Random({8}, &rng);
  const ArrayOp* neg = OpRegistry::Global().Find("negative");
  NDArray yv = neg->Apply({&xv}, OpArgs()).ValueOrDie();
  auto rels = neg->Capture({&xv}, yv, OpArgs()).ValueOrDie();
  OperationRegistration reg{"negative", {in}, out, {rels[0]}, OpArgs(), 0,
                            true};
  return log->RegisterOperation(std::move(reg)).status();
}

/// negative-shaped lineage with a 2-d output side: wrong for 1-d arrays.
LineageRelation TwoDimOutputRelation() {
  LineageRelation rel(2, 1);
  rel.set_shapes({4, 2}, {8});
  for (int64_t i = 0; i < 8; ++i)
    rel.Add(std::vector<int64_t>{i / 2, i % 2}, std::vector<int64_t>{i});
  return rel;
}

TEST(DSLogTest, WrongArityQueryIsInvalidArgument) {
  DSLog log;
  ASSERT_TRUE(log.DefineArray("A", {8}).ok());
  ASSERT_TRUE(log.DefineArray("B", {8}).ok());
  ASSERT_TRUE(RegisterNegative(&log, "A", "B").ok());
  const int64_t footprint = log.StorageFootprintBytes();

  const BoxTable box2d = BoxTable::FromCells(2, {1, 1});
  for (const std::vector<std::string>& path :
       {std::vector<std::string>{"A", "B"},
        std::vector<std::string>{"B", "A"}}) {
    auto r = log.ProvQuery(path, box2d);
    ASSERT_FALSE(r.ok()) << path[0] << " -> " << path[1];
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("hop 0"), std::string::npos)
        << r.status().ToString();
  }
  auto batch = log.ProvQueryBatch({{"A", "B"}}, {box2d});
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);

  // The catalog still answers well-formed queries.
  auto ok = log.ProvQuery({"A", "B"}, BoxTable::FromCells(1, {3}));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().ExpandToCells(), std::vector<int64_t>{3});
  EXPECT_EQ(log.StorageFootprintBytes(), footprint);
}

TEST(DSLogTest, WrongArityRegistrationChangesNothing) {
  DSLog log;
  for (const char* name : {"x0", "y0", "x1", "y1", "x2", "y2"})
    ASSERT_TRUE(log.DefineArray(name, {8}).ok());
  ASSERT_TRUE(RegisterNegative(&log, "x0", "y0").ok());
  const ReuseStats stats = log.reuse_stats();
  const int64_t footprint = log.StorageFootprintBytes();

  // Same op and array shapes as the verified call, so a predictor update
  // would have recorded a misprediction.
  OperationRegistration bad{
      "negative", {"x1"}, "y1", {TwoDimOutputRelation()}, OpArgs(), 0, true};
  auto r = log.RegisterOperation(std::move(bad));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(log.FindEdge("x1", "y1"), nullptr);
  EXPECT_EQ(log.StorageFootprintBytes(), footprint);
  ExpectSameReuseStats(log.reuse_stats(), stats);
  EXPECT_FALSE(log.ProvQuery({"x1", "y1"}, BoxTable::FromCells(1, {0})).ok());

  // The next well-formed call is served exactly as if the rejected one
  // never happened: the mapping verified by the first call still promotes.
  ASSERT_TRUE(RegisterNegative(&log, "x1", "y1").ok());
  OperationRegistration predicted{"negative", {"x2"}, "y2", {}, OpArgs(), 0,
                                  true};
  auto served = log.RegisterOperation(std::move(predicted));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(served.value().dim_hit);
  EXPECT_EQ(log.reuse_stats().mispredictions, 0);
}

TEST(DSLogTest, WrongArityStagedDrainChangesNothing) {
  DSLog log;
  for (const char* name : {"x0", "y0", "x1", "y1"})
    ASSERT_TRUE(log.DefineArray(name, {8}).ok());
  ASSERT_TRUE(RegisterNegative(&log, "x0", "y0").ok());
  const ReuseStats stats = log.reuse_stats();
  const int64_t footprint = log.StorageFootprintBytes();

  // Add takes no locks and cannot see the arrays, so it stages the op;
  // Drain rejects it before any predictor update or edge commit.
  StagedIngest stager(&log);
  OperationRegistration bad{
      "negative", {"x1"}, "y1", {TwoDimOutputRelation()}, OpArgs(), 0, true};
  ASSERT_TRUE(stager.Add(std::move(bad)).ok());
  auto drained = stager.Drain();
  ASSERT_FALSE(drained.ok());
  EXPECT_EQ(drained.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(stager.staged(), 1);  // kept, as for any error drain
  EXPECT_EQ(log.FindEdge("x1", "y1"), nullptr);
  EXPECT_EQ(log.StorageFootprintBytes(), footprint);
  ExpectSameReuseStats(log.reuse_stats(), stats);

  // Lineage ProvRC cannot encode never reaches the compressor.
  OperationRegistration empty_arity{"negative", {"x1"}, "y1",
                                    {LineageRelation(0, 1)}, OpArgs(), 0,
                                    true};
  Status st = StagedIngest(&log).Add(std::move(empty_arity));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(DSLogTest, DimSigReuseAfterOneVerification) {
  DSLog log;
  Rng rng(10);
  const ArrayOp* neg = OpRegistry::Global().Find("negative");
  for (int call = 0; call < 3; ++call) {
    std::string x = std::string("x").append(std::to_string(call));
    std::string y = std::string("y").append(std::to_string(call));
    ASSERT_TRUE(log.DefineArray(x, {32}).ok());
    ASSERT_TRUE(log.DefineArray(y, {32}).ok());
    NDArray xv = NDArray::Random({32}, &rng);
    NDArray yv = neg->Apply({&xv}, OpArgs()).ValueOrDie();
    auto rels = neg->Capture({&xv}, yv, OpArgs()).ValueOrDie();
    OperationRegistration reg{"negative", {x},     y,
                              {rels[0]},  OpArgs(), xv.ContentHash(),
                              true};
    auto outcome = log.RegisterOperation(std::move(reg));
    ASSERT_TRUE(outcome.ok());
    if (call >= 1) {
      EXPECT_TRUE(outcome.value().dim_hit) << call;
    }
  }
  EXPECT_EQ(log.reuse_stats().dim_promotions, 1);
  EXPECT_GE(log.reuse_stats().gen_promotions, 0);
}

TEST(DSLogTest, ReuseServesLineageWithoutCapture) {
  DSLog log;
  Rng rng(11);
  const ArrayOp* neg = OpRegistry::Global().Find("negative");
  // Two captured calls promote the dim_sig mapping.
  for (int call = 0; call < 2; ++call) {
    std::string x = std::string("a").append(std::to_string(call));
    std::string y = std::string("b").append(std::to_string(call));
    ASSERT_TRUE(log.DefineArray(x, {24}).ok());
    ASSERT_TRUE(log.DefineArray(y, {24}).ok());
    NDArray xv = NDArray::Random({24}, &rng);
    NDArray yv = neg->Apply({&xv}, OpArgs()).ValueOrDie();
    auto rels = neg->Capture({&xv}, yv, OpArgs()).ValueOrDie();
    OperationRegistration reg{"negative", {x}, y, {rels[0]}, OpArgs(),
                              xv.ContentHash(), true};
    ASSERT_TRUE(log.RegisterOperation(std::move(reg)).ok());
  }
  // Third call: no capture provided; lineage served from the index.
  ASSERT_TRUE(log.DefineArray("a2", {24}).ok());
  ASSERT_TRUE(log.DefineArray("b2", {24}).ok());
  OperationRegistration reg{"negative", {"a2"}, "b2", {}, OpArgs(), 0, true};
  auto outcome = log.RegisterOperation(std::move(reg));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome.value().dim_hit);
  // The served lineage answers queries correctly.
  auto fwd = log.ProvQuery({"a2", "b2"}, BoxTable::FromCells(1, {5}));
  ASSERT_TRUE(fwd.ok());
  auto cells = fwd.value().ExpandToCells();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0], 5);
}

TEST(DSLogTest, GenSigServesDifferentShape) {
  DSLog log;
  Rng rng(12);
  const ArrayOp* neg = OpRegistry::Global().Find("negative");
  // Calls with two different shapes promote gen_sig.
  int64_t sizes[2] = {16, 28};
  for (int call = 0; call < 2; ++call) {
    std::string x = std::string("g").append(std::to_string(call));
    std::string y = std::string("h").append(std::to_string(call));
    ASSERT_TRUE(log.DefineArray(x, {sizes[call]}).ok());
    ASSERT_TRUE(log.DefineArray(y, {sizes[call]}).ok());
    NDArray xv = NDArray::Random({sizes[call]}, &rng);
    NDArray yv = neg->Apply({&xv}, OpArgs()).ValueOrDie();
    auto rels = neg->Capture({&xv}, yv, OpArgs()).ValueOrDie();
    OperationRegistration reg{"negative", {x}, y, {rels[0]}, OpArgs(),
                              xv.ContentHash(), true};
    ASSERT_TRUE(log.RegisterOperation(std::move(reg)).ok());
  }
  EXPECT_EQ(log.reuse_stats().gen_promotions, 1);
  // A third, previously-unseen shape is served without capture.
  ASSERT_TRUE(log.DefineArray("g2", {99}).ok());
  ASSERT_TRUE(log.DefineArray("h2", {99}).ok());
  OperationRegistration reg{"negative", {"g2"}, "h2", {}, OpArgs(), 0, true};
  auto outcome = log.RegisterOperation(std::move(reg));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  auto fwd = log.ProvQuery({"g2", "h2"}, BoxTable::FromCells(1, {98}));
  ASSERT_TRUE(fwd.ok());
  auto cells = fwd.value().ExpandToCells();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0], 98);
}

TEST(DSLogTest, MaterializedForwardMatchesDirect) {
  // Forward hops de-relativize on the fly over the backward table (§IV.C's
  // forward table is never stored), whether the edge is resident or mapped
  // from a LogStore: both answer every forward path query identically, and
  // equal to the uncompressed oracle.
  auto wfr = BuildRandomNumpyWorkflow(4, 400, 97);
  ASSERT_TRUE(wfr.ok());
  const Workflow& wf = wfr.value();
  DSLog resident;
  for (size_t i = 0; i < wf.array_names.size(); ++i)
    ASSERT_TRUE(resident.DefineArray(wf.array_names[i], wf.shapes[i]).ok());
  std::vector<RelationHop> rhops;
  for (size_t i = 0; i < wf.steps.size(); ++i) {
    OperationRegistration reg;
    reg.op_name = wf.steps[i].op_name;
    reg.in_arrs = {wf.array_names[i]};
    reg.out_arr = wf.array_names[i + 1];
    reg.captured = {wf.steps[i].relation};
    ASSERT_TRUE(resident.RegisterOperation(std::move(reg)).ok());
    rhops.push_back({&wf.steps[i].relation, true});
  }
  const std::string store_path = ScratchDir() + "/dslog_forward_insitu.dsl";
  ASSERT_TRUE(resident.SaveLogStore(store_path).ok());
  auto opened = DSLog::OpenInSitu(store_path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const DSLog& insitu = opened.value();

  const int arity = static_cast<int>(wf.shapes.back().size());
  std::vector<std::string> path(wf.array_names.begin(), wf.array_names.end());
  for (int64_t cell : {int64_t{0}, int64_t{17}, int64_t{399}}) {
    BoxTable q = BoxTable::FromCells(1, {cell});
    auto r1 = resident.ProvQuery(path, q);
    auto r2 = insitu.ProvQuery(path, q);
    ASSERT_TRUE(r1.ok() && r2.ok());
    const auto want = ToTupleSet(UncompressedQuery(rhops, {cell}), arity);
    EXPECT_EQ(ToTupleSet(r1.value().ExpandToCells(), arity), want)
        << "resident cell " << cell;
    EXPECT_EQ(ToTupleSet(r2.value().ExpandToCells(), arity), want)
        << "in-situ cell " << cell;
  }
}

TEST(DSLogTest, SaveLoadRoundTrip) {
  const std::string path = ScratchDir() + "/dslog_saveload.dsl";
  DSLog log;
  ASSERT_TRUE(log.DefineArray("x", {8}).ok());
  ASSERT_TRUE(log.DefineArray("y", {8}).ok());
  Rng rng(13);
  NDArray xv = NDArray::Random({8}, &rng);
  const ArrayOp* neg = OpRegistry::Global().Find("negative");
  NDArray yv = neg->Apply({&xv}, OpArgs()).ValueOrDie();
  auto rels = neg->Capture({&xv}, yv, OpArgs()).ValueOrDie();
  OperationRegistration reg{"negative", {"x"}, "y", {rels[0]}, OpArgs(), 1,
                            true};
  ASSERT_TRUE(log.RegisterOperation(std::move(reg)).ok());
  ASSERT_TRUE(log.SaveLogStore(path).ok());

  auto restored = DSLog::OpenInSitu(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored.value().HasArray("x"));
  auto q = restored.value().ProvQuery({"y", "x"}, BoxTable::FromCells(1, {2}));
  ASSERT_TRUE(q.ok());
  auto cells = q.value().ExpandToCells();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0], 2);
}

TEST(DSLogTest, ReusePredictorStateSurvivesSaveLoad) {
  // A promoted dim_sig mapping must keep serving capture-free
  // registrations after the catalog is saved and reopened in situ, with
  // the counters intact.
  const std::string path = ScratchDir() + "/dslog_reuse_persist.dsl";
  DSLog log;
  Rng rng(22);
  const ArrayOp* neg = OpRegistry::Global().Find("negative");
  for (int call = 0; call < 2; ++call) {
    std::string x = std::string("p").append(std::to_string(call));
    std::string y = std::string("q").append(std::to_string(call));
    ASSERT_TRUE(log.DefineArray(x, {24}).ok());
    ASSERT_TRUE(log.DefineArray(y, {24}).ok());
    NDArray xv = NDArray::Random({24}, &rng);
    NDArray yv = neg->Apply({&xv}, OpArgs()).ValueOrDie();
    auto rels = neg->Capture({&xv}, yv, OpArgs()).ValueOrDie();
    OperationRegistration reg{"negative", {x}, y, {rels[0]}, OpArgs(),
                              xv.ContentHash(), true};
    ASSERT_TRUE(log.RegisterOperation(std::move(reg)).ok());
  }
  ASSERT_EQ(log.reuse_stats().dim_promotions, 1);
  ASSERT_TRUE(log.SaveLogStore(path).ok());

  auto opened = DSLog::OpenInSitu(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  DSLog& restored = opened.value();
  EXPECT_EQ(restored.reuse_stats().dim_promotions, 1);
  EXPECT_EQ(restored.reuse_stats().dim_hits, log.reuse_stats().dim_hits);

  // Third call, no capture: served from the restored reuse index.
  ASSERT_TRUE(restored.DefineArray("p2", {24}).ok());
  ASSERT_TRUE(restored.DefineArray("q2", {24}).ok());
  OperationRegistration reg{"negative", {"p2"}, "q2", {}, OpArgs(), 0, true};
  auto outcome = restored.RegisterOperation(std::move(reg));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome.value().dim_hit);
  auto fwd = restored.ProvQuery({"p2", "q2"}, BoxTable::FromCells(1, {7}));
  ASSERT_TRUE(fwd.ok());
  EXPECT_EQ(fwd.value().ExpandToCells(), (std::vector<int64_t>{7}));
}

// ----------------------------------------------------- predictor state blob --

namespace predictor_state_test {

/// Identity lineage over 8 cells, the shared payload for promoted entries.
std::vector<CompressedTable> IdentityTables() {
  LineageRelation rel(1, 1);
  rel.set_shapes({8}, {8});
  for (int64_t i = 0; i < 8; ++i) {
    const int64_t tuple[2] = {i, i};
    rel.AddTuple(tuple);
  }
  return {ProvRcCompress(rel)};
}

/// A predictor with `n` promoted dim signatures op0..op(n-1), each
/// registered twice with identical lineage (the m = 1 promotion).
ReusePredictor Promoted(int n, const std::vector<CompressedTable>& tables) {
  ReusePredictor p;
  for (int i = 0; i < n; ++i) {
    OpArgs args;
    args.SetInt("k", i);
    for (int rep = 0; rep < 2; ++rep)
      p.ProcessRegistration("op" + std::to_string(i), args, {{8}}, {8},
                            static_cast<uint64_t>(i), tables);
  }
  return p;
}

/// Promoted ops op0..op(n-1) hit with `tables`; an absent op or another
/// shape is a clean miss.
void ExpectPromotedLookups(const ReusePredictor& r, int n,
                           const std::vector<CompressedTable>& tables) {
  for (int i = 0; i < n; ++i) {
    OpArgs args;
    args.SetInt("k", i);
    auto predicted = r.Predict("op" + std::to_string(i), args, {{8}}, {8});
    ASSERT_EQ(predicted.size(), 1u);
    EXPECT_TRUE(predicted[0] == tables[0]);
    EXPECT_TRUE(
        r.Predict("nope" + std::to_string(i), args, {{8}}, {8}).empty());
    EXPECT_TRUE(r.Predict("op" + std::to_string(i), args, {{9}}, {9}).empty());
  }
}

/// Lineage over `n` cells: identity, or out i <- in (i + 1) mod n.
CompressedTable LineTable(int64_t n, bool shifted) {
  LineageRelation rel(1, 1);
  rel.set_shapes({n}, {n});
  for (int64_t i = 0; i < n; ++i) {
    const int64_t tuple[2] = {i, shifted ? (i + 1) % n : i};
    rel.AddTuple(tuple);
  }
  return ProvRcCompress(rel);
}

/// One registration of TransitionScript().
struct ScriptStep {
  const char* op;
  int64_t n;  // input and output length
  uint64_t content;
  bool shifted;  // shifted lineage instead of identity
};

/// Registrations that walk dim and gen entries through every promotion
/// state: tentative, promoted, rejected by mismatch and by misprediction,
/// plus base hits.
std::vector<ScriptStep> TransitionScript() {
  return {
      {"ew", 8, 1, false},   // dim + gen tentative
      {"ew", 8, 1, false},   // base hit; dim promoted
      {"ew", 12, 2, false},  // gen promoted (other shape)
      {"t", 8, 3, false},    // tentative
      {"t", 8, 4, true},     // dim rejected (mismatch)
      {"t", 12, 9, true},    // gen rejected (mismatch at another shape)
      {"ew", 8, 5, true},    // dim misprediction -> rejected
      {"ew", 16, 6, true},   // gen misprediction -> rejected
      {"g", 8, 7, false},    // tentative
      {"g", 10, 8, false},   // gen promoted, dim entry per shape
      {"g", 8, 7, false},    // base hit; dim promoted
      {"t", 8, 3, false},    // rejected entries stay rejected
  };
}

void Feed(ReusePredictor* p, const std::vector<ScriptStep>& steps,
          size_t from, size_t to) {
  for (size_t i = from; i < to; ++i) {
    const ScriptStep& s = steps[i];
    OpArgs args;
    args.SetInt("k", 1);
    p->ProcessRegistration(s.op, args, {{s.n}}, {s.n}, s.content,
                           {LineTable(s.n, s.shifted)});
  }
}

}  // namespace predictor_state_test

TEST(ReusePredictorTest, SealedStateRoundTripsAndServesPromotedLookups) {
  const std::vector<CompressedTable> tables =
      predictor_state_test::IdentityTables();
  ReusePredictor p = predictor_state_test::Promoted(4, tables);
  ASSERT_EQ(p.stats().dim_promotions, 4);
  const std::string blob = p.SerializeState();

  ReusePredictor r;
  ASSERT_TRUE(r.RestoreState(blob).ok());
  EXPECT_EQ(r.stats().dim_promotions, 4);
  predictor_state_test::ExpectPromotedLookups(r, 4, tables);

  // Trailing bytes after the payload are ignored.
  ASSERT_TRUE(r.RestoreState(blob + "trailer").ok());
  predictor_state_test::ExpectPromotedLookups(r, 4, tables);
}

TEST(ReusePredictorTest, PromotionStateChangeUnsealsAndStaysCorrect) {
  const std::vector<CompressedTable> tables =
      predictor_state_test::IdentityTables();
  ReusePredictor r;
  ASSERT_TRUE(
      r.RestoreState(predictor_state_test::Promoted(3, tables).SerializeState())
          .ok());

  // A misprediction after the restore demotes op1 (promoted -> rejected);
  // the still-promoted ops keep hitting.
  LineageRelation other(1, 1);
  other.set_shapes({8}, {8});
  const int64_t tuple[2] = {0, 7};
  other.AddTuple(tuple);
  OpArgs args1;
  args1.SetInt("k", 1);
  r.ProcessRegistration("op1", args1, {{8}}, {8}, 99, {ProvRcCompress(other)});
  EXPECT_EQ(r.stats().mispredictions, 1);
  EXPECT_TRUE(r.Predict("op1", args1, {{8}}, {8}).empty());
  OpArgs args0;
  args0.SetInt("k", 0);
  EXPECT_EQ(r.Predict("op0", args0, {{8}}, {8}).size(), 1u);
  OpArgs args2;
  args2.SetInt("k", 2);
  EXPECT_EQ(r.Predict("op2", args2, {{8}}, {8}).size(), 1u);
}

TEST(ReusePredictorTest, CorruptSealSectionIsRejectedWithoutStateChange) {
  const std::vector<CompressedTable> tables =
      predictor_state_test::IdentityTables();
  const std::string blob =
      predictor_state_test::Promoted(4, tables).SerializeState();
  ReusePredictor r;
  ASSERT_TRUE(r.RestoreState(blob).ok());

  // A truncated or flipped RPS1 blob is Corruption and leaves the prior
  // state untouched. The flip hits op0's dim entry state byte, which
  // directly follows its length-prefixed key "op0#<args hash>|8".
  OpArgs args0;
  args0.SetInt("k", 0);
  const std::string dim_key = "op0#" + std::to_string(args0.Hash()) + "|8";
  const size_t key_at = blob.find(dim_key);
  ASSERT_NE(key_at, std::string::npos);
  std::string flipped = blob;
  flipped[key_at + dim_key.size()] = 0x7F;  // not a valid promotion state
  for (const std::string& bad :
       {flipped, blob.substr(0, blob.size() - 1),
        blob.substr(0, blob.size() / 2), blob.substr(0, 3)}) {
    Status st = r.RestoreState(bad);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
    predictor_state_test::ExpectPromotedLookups(r, 4, tables);
  }
}

/// Size and Hash64 of the RPS1 blob of the whole TransitionScript. Entries
/// keep cached encodings, so these pin the bytes a predictor that encodes
/// every table afresh writes; every store file's predictor blob depends on
/// them.
constexpr size_t kTransitionScriptBlobSize = 861;
constexpr uint64_t kTransitionScriptBlobHash = 13337331073806809898ull;

TEST(ReusePredictorTest, RestoredStateReserializesByteForByte) {
  const auto steps = predictor_state_test::TransitionScript();
  for (size_t cut = 0; cut <= steps.size(); ++cut) {
    ReusePredictor p;
    predictor_state_test::Feed(&p, steps, 0, cut);
    const std::string blob = p.SerializeState();
    ReusePredictor r;
    ASSERT_TRUE(r.RestoreState(blob).ok());
    EXPECT_EQ(r.SerializeState(), blob) << "cut " << cut;
  }
  // The full script reaches every state.
  ReusePredictor p;
  predictor_state_test::Feed(&p, steps, 0, steps.size());
  const ReuseStats st = p.stats();
  EXPECT_GT(st.base_hits, 0);
  EXPECT_GT(st.dim_promotions, 0);
  EXPECT_GT(st.gen_promotions, 0);
  EXPECT_GT(st.dim_rejections, 0);
  EXPECT_GT(st.gen_rejections, 0);
  EXPECT_GT(st.mispredictions, 0);
  // The RPS1 bytes of this script as the format defines them; a change
  // here changes every store file's predictor blob.
  const std::string blob = p.SerializeState();
  EXPECT_EQ(blob.size(), kTransitionScriptBlobSize);
  EXPECT_EQ(Hash64(blob), kTransitionScriptBlobHash);
}

TEST(ReusePredictorTest, TransitionsAfterRestoreMatchAFreshPredictor) {
  // Entries restored from a blob carry their encoded bytes from the blob;
  // the state changes that follow must never leave a stale encoding.
  const auto steps = predictor_state_test::TransitionScript();
  for (size_t cut = 0; cut <= steps.size(); ++cut) {
    ReusePredictor head;
    predictor_state_test::Feed(&head, steps, 0, cut);
    ReusePredictor resumed;
    ASSERT_TRUE(resumed.RestoreState(head.SerializeState()).ok());
    ReusePredictor fresh;
    predictor_state_test::Feed(&fresh, steps, 0, cut);
    for (size_t i = cut; i < steps.size(); ++i) {
      predictor_state_test::Feed(&resumed, steps, i, i + 1);
      predictor_state_test::Feed(&fresh, steps, i, i + 1);
      EXPECT_EQ(resumed.SerializeState(), fresh.SerializeState())
          << "cut " << cut << " step " << i;
    }
  }
}

// -------------------------------------------------------------- workflows --

TEST(WorkflowTest, ImageWorkflowShape) {
  auto wf = BuildImageWorkflow(48, 48, 3);
  ASSERT_TRUE(wf.ok()) << wf.status().ToString();
  EXPECT_EQ(wf.value().steps.size(), 5u);
  EXPECT_EQ(wf.value().array_names.size(), 6u);
  // Final array is the 6-cell detection vector.
  EXPECT_EQ(wf.value().shapes.back(), (std::vector<int64_t>{6}));
}

TEST(WorkflowTest, RelationalWorkflowShape) {
  auto wf = BuildRelationalWorkflow(400, 200, 4);
  ASSERT_TRUE(wf.ok()) << wf.status().ToString();
  EXPECT_EQ(wf.value().steps.size(), 5u);
  for (const auto& step : wf.value().steps)
    EXPECT_GT(step.relation.num_rows(), 0) << step.op_name;
}

TEST(WorkflowTest, ResNetWorkflowSevenSteps) {
  auto wf = BuildResNetWorkflow(24, 24, 5);
  ASSERT_TRUE(wf.ok());
  EXPECT_EQ(wf.value().steps.size(), 7u);
  // Conv lineage has ~9 entries per cell; elementwise exactly 1.
  EXPECT_GT(wf.value().steps[0].relation.num_rows(),
            wf.value().steps[1].relation.num_rows() * 7);
}

TEST(WorkflowTest, RandomNumpyWorkflowChains) {
  auto wf = BuildRandomNumpyWorkflow(5, 500, 77);
  ASSERT_TRUE(wf.ok()) << wf.status().ToString();
  EXPECT_EQ(wf.value().steps.size(), 5u);
}

TEST(WorkflowTest, WorkflowQueriesMatchGroundTruthEndToEnd) {
  auto wfr = BuildRandomNumpyWorkflow(4, 300, 11);
  ASSERT_TRUE(wfr.ok());
  const Workflow& wf = wfr.value();
  std::vector<CompressedTable> tables;
  std::vector<QueryHop> hops;
  std::vector<RelationHop> rhops;
  for (const auto& step : wf.steps) tables.push_back(ProvRcCompress(step.relation));
  for (size_t i = 0; i < tables.size(); ++i) {
    hops.push_back({&tables[i], true});
    rhops.push_back({&wf.steps[i].relation, true});
  }
  std::vector<int64_t> cells = {0, 5, 42, 299};
  BoxTable q = BoxTable::FromCells(1, cells);
  BoxTable got = InSituQuery(hops, q);
  std::vector<int64_t> want = UncompressedQuery(rhops, cells);
  int arity = wf.steps.back().relation.out_ndim();
  EXPECT_EQ(ToTupleSet(got.ExpandToCells(), arity), ToTupleSet(want, arity));
}

TEST(WorkflowTest, SurveillanceFrameStatistics) {
  NDArray f = MakeSurveillanceFrame(64, 64, 9);
  double lo = 1e300, hi = -1e300;
  for (int64_t i = 0; i < f.size(); ++i) {
    lo = std::min(lo, f[i]);
    hi = std::max(hi, f[i]);
  }
  EXPECT_GT(lo, 0.0);
  EXPECT_GT(hi, 150.0);  // blobs present
}

TEST(WorkflowTest, TitleBasicsSchemaProperties) {
  NDArray t = MakeTitleBasics(500, 1);
  // tconst sorted; startYear non-decreasing; isAdult in {0, 1}.
  for (int64_t i = 1; i < 500; ++i) {
    EXPECT_LT(t[(i - 1) * 6 + 0], t[i * 6 + 0]);
    EXPECT_LE(t[(i - 1) * 6 + 3], t[i * 6 + 3]);
  }
  for (int64_t i = 0; i < 500; ++i)
    EXPECT_TRUE(t[i * 6 + 2] == 0.0 || t[i * 6 + 2] == 1.0);
}

// -------------------------------------------------------------- kaggle sim --

TEST(KaggleSimTest, SummaryInPlausibleBands) {
  KaggleSummary flight = SimulateKaggleDataset(FlightProfile(), 20, 1);
  KaggleSummary netflix = SimulateKaggleDataset(NetflixProfile(), 20, 2);
  // Compressible share should land in the paper's 60-85% region.
  EXPECT_GT(flight.pct_mean, 55.0);
  EXPECT_LT(flight.pct_mean, 90.0);
  EXPECT_GT(netflix.pct_mean, 50.0);
  EXPECT_LT(netflix.pct_mean, 90.0);
  EXPECT_GT(flight.chain_mean, 4.0);
  EXPECT_GT(flight.total_mean, 20.0);
}

TEST(KaggleSimTest, NotebooksDeterministicPerSeed) {
  NotebookStats a = SimulateNotebook(true, 42);
  NotebookStats b = SimulateNotebook(true, 42);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.compressible_ops, b.compressible_ops);
  EXPECT_EQ(a.longest_chain, b.longest_chain);
}

}  // namespace
}  // namespace dslog
