// Tests for the ProvRC compressor: paper worked examples, pattern-specific
// row counts, serialization round-trips, index reshaping, the central
// losslessness property (Decompress(Compress(R)) == R as sets) over both
// captured op lineage and randomized relations, and the exact output bytes
// (step 1 against its original implementation, the full output against
// pinned digests).

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "array/ndarray.h"
#include "array/op.h"
#include "array/op_registry.h"
#include "common/hash.h"
#include "common/random.h"
#include "lineage/lineage_relation.h"
#include "provrc/compressed_table.h"
#include "provrc/provrc.h"
#include "provrc/reshape.h"
#include "provrc/serialize.h"
#include "test_util.h"
#include "workloads/workflows.h"

namespace dslog {
namespace {

LineageRelation CaptureOp(const char* op_name,
                          const std::vector<const NDArray*>& inputs,
                          const OpArgs& args, int which = 0) {
  const ArrayOp* op = OpRegistry::Global().Find(op_name);
  EXPECT_NE(op, nullptr) << op_name;
  NDArray out = op->Apply(inputs, args).ValueOrDie();
  auto rels = op->Capture(inputs, out, args).ValueOrDie();
  return std::move(rels[static_cast<size_t>(which)]);
}

// --------------------------------------------------------- paper examples --

TEST(ProvRcTest, PaperFigure1SumExample) {
  // The running example: B = sum(A, axis=1) over a 3x2 array. After step 1
  // the table is 3 rows (Table I); after step 2 it collapses to one row
  // with b1 = [0,2], a1 relative delta 0, a2 absolute [0,1] (Table II,
  // 0-based here).
  NDArray a = NDArray::FromValues({3, 2}, {0, 3, 1, 5, 2, 1});
  OpArgs args;
  args.SetInt("axis", 1);
  LineageRelation rel = CaptureOp("sum", {&a}, args);

  // Step 1 only (ablation): 3 rows.
  ProvRcOptions step1_only;
  step1_only.enable_relative_transform = false;
  CompressedTable t1 = ProvRcCompress(rel, step1_only);
  EXPECT_EQ(t1.num_rows(), 3);

  // Full ProvRC: 1 row.
  CompressedTable t2 = ProvRcCompress(rel);
  ASSERT_EQ(t2.num_rows(), 1);
  const CompressedRow row = t2.Row(0);
  EXPECT_EQ(row.out[0], (Interval{0, 2}));
  ASSERT_TRUE(row.in[0].is_relative());
  EXPECT_EQ(row.in[0].ref, 0);
  EXPECT_EQ(row.in[0].iv, (Interval{0, 0}));
  ASSERT_FALSE(row.in[1].is_relative());
  EXPECT_EQ(row.in[1].iv, (Interval{0, 1}));

  // Lossless.
  EXPECT_TRUE(t2.Decompress().EqualAsSet(rel));
  EXPECT_TRUE(t1.Decompress().EqualAsSet(rel));
}

TEST(ProvRcTest, PaperFigure2AggregateAllToOne) {
  // 4x4 -> 1x1 aggregate: the all-to-all relationship compresses to a
  // single row of full ranges (paper Fig 2).
  Rng rng(1);
  NDArray a = NDArray::Random({4, 4}, &rng);
  LineageRelation rel = CaptureOp("sum", {&a}, OpArgs());
  CompressedTable t = ProvRcCompress(rel);
  ASSERT_EQ(t.num_rows(), 1);
  EXPECT_EQ(t.Row(0).out[0], (Interval{0, 0}));
  EXPECT_FALSE(t.Row(0).in[0].is_relative());
  EXPECT_EQ(t.Row(0).in[0].iv, (Interval{0, 3}));
  EXPECT_EQ(t.Row(0).in[1].iv, (Interval{0, 3}));
  EXPECT_EQ(t.NumPairsRepresented(), 16);
}

TEST(ProvRcTest, PaperFigure3OneToOne) {
  // Element-wise op: one compressed row with relative delta zero.
  Rng rng(2);
  NDArray a = NDArray::Random({1000}, &rng);
  LineageRelation rel = CaptureOp("negative", {&a}, OpArgs());
  CompressedTable t = ProvRcCompress(rel);
  ASSERT_EQ(t.num_rows(), 1);
  EXPECT_EQ(t.Row(0).out[0], (Interval{0, 999}));
  ASSERT_TRUE(t.Row(0).in[0].is_relative());
  EXPECT_EQ(t.Row(0).in[0].iv, (Interval{0, 0}));
  EXPECT_TRUE(t.Decompress().EqualAsSet(rel));
}

TEST(ProvRcTest, TwoDimElementwiseSingleRow) {
  Rng rng(3);
  NDArray a = NDArray::Random({20, 30}, &rng);
  NDArray b = NDArray::Random({20, 30}, &rng);
  LineageRelation rel = CaptureOp("add", {&a, &b}, OpArgs(), 1);
  CompressedTable t = ProvRcCompress(rel);
  EXPECT_EQ(t.num_rows(), 1);
  EXPECT_TRUE(t.Decompress().EqualAsSet(rel));
}

TEST(ProvRcTest, RepetitionCompressesToRepsRows) {
  // tile with reps=4: four runs, each relative to the output with a
  // different delta -> 4 rows (or fewer if merged; must be <= 4).
  NDArray x = NDArray::FromValues({100}, std::vector<double>(100, 1.0));
  OpArgs args;
  args.SetInt("reps", 4);
  LineageRelation rel = CaptureOp("tile", {&x}, args);
  CompressedTable t = ProvRcCompress(rel);
  EXPECT_LE(t.num_rows(), 4);
  EXPECT_TRUE(t.Decompress().EqualAsSet(rel));
}

TEST(ProvRcTest, MatVecCompressesToOneRowPerRelation) {
  Rng rng(4);
  NDArray a = NDArray::Random({16, 8}, &rng);
  NDArray v = NDArray::Random({8}, &rng);
  const ArrayOp* op = OpRegistry::Global().Find("matmul");
  NDArray out = op->Apply({&a, &v}, OpArgs()).ValueOrDie();
  auto rels = op->Capture({&a, &v}, out, OpArgs()).ValueOrDie();
  // out(i) <- A(i, [0,7]): relative on rows, absolute range on cols.
  CompressedTable ta = ProvRcCompress(rels[0]);
  EXPECT_EQ(ta.num_rows(), 1);
  // out(i) <- v([0,7]): all-to-all.
  CompressedTable tv = ProvRcCompress(rels[1]);
  EXPECT_EQ(tv.num_rows(), 1);
  EXPECT_TRUE(ta.Decompress().EqualAsSet(rels[0]));
  EXPECT_TRUE(tv.Decompress().EqualAsSet(rels[1]));
}

TEST(ProvRcTest, SortWorstCaseKeepsRows) {
  // Random permutation lineage has no contiguous structure: row count stays
  // at the original cardinality (the paper's worst case).
  Rng rng(5);
  NDArray x = NDArray::Random({256}, &rng);
  LineageRelation rel = CaptureOp("sort", {&x}, OpArgs());
  CompressedTable t = ProvRcCompress(rel);
  EXPECT_GT(t.num_rows(), 200);  // essentially incompressible
  EXPECT_TRUE(t.Decompress().EqualAsSet(rel));
}

// ------------------------------------------------------ losslessness sweep --

// The lineage of one registry op over small seeded inputs, one relation
// per input array; nullopt when the op takes none of these shapes.
std::optional<std::vector<LineageRelation>> CaptureRegistryOp(
    const std::string& name) {
  const ArrayOp* op = OpRegistry::Global().Find(name);
  Rng rng(17);
  std::vector<NDArray> storage;
  std::vector<int64_t> shape;
  if (op->num_inputs() == 1) {
    shape = op->SupportsUnaryShape({6, 5}) ? std::vector<int64_t>{6, 5}
                                           : std::vector<int64_t>{30};
    if (!op->SupportsUnaryShape(shape)) return std::nullopt;
    storage.push_back(NDArray::Random(shape, &rng));
  } else if (op->num_inputs() == 2) {
    if (name == "matmul" || name == "kron") {
      storage.push_back(NDArray::Random({5, 6}, &rng));
      storage.push_back(NDArray::Random({6, 4}, &rng));
    } else if (name == "cross") {
      storage.push_back(NDArray::Random({5, 3}, &rng));
      storage.push_back(NDArray::Random({5, 3}, &rng));
    } else if (name == "convolve" || name == "correlate") {
      storage.push_back(NDArray::Random({24}, &rng));
      storage.push_back(NDArray::Random({5}, &rng));
    } else if (name == "searchsorted") {
      storage.push_back(NDArray::Arange(16));
      storage.push_back(NDArray::Random({8}, &rng));
    } else {
      storage.push_back(NDArray::Random({18}, &rng));
      storage.push_back(NDArray::Random({18}, &rng));
    }
    shape = storage[0].shape();
  } else {
    storage.push_back(NDArray::RandomInts({12}, 0, 1, &rng));
    storage.push_back(NDArray::Random({12}, &rng));
    storage.push_back(NDArray::Random({12}, &rng));
    shape = {12};
  }
  std::vector<const NDArray*> inputs;
  for (const auto& s : storage) inputs.push_back(&s);
  OpArgs args = op->SampleArgs(shape, &rng);
  auto out = op->Apply(inputs, args);
  if (!out.ok()) return std::nullopt;
  return op->Capture(inputs, out.value(), args).ValueOrDie();
}

class OpLosslessTest : public ::testing::TestWithParam<std::string> {};

TEST_P(OpLosslessTest, CompressDecompressRoundTrip) {
  ASSERT_NE(OpRegistry::Global().Find(GetParam()), nullptr);
  auto rels = CaptureRegistryOp(GetParam());
  if (!rels) GTEST_SKIP();
  for (auto& rel : *rels) {
    if (rel.num_rows() == 0) continue;
    CompressedTable t = ProvRcCompress(rel);
    EXPECT_TRUE(t.Decompress().EqualAsSet(rel)) << GetParam();
    // Step-1-only ablation must also be lossless.
    ProvRcOptions opt;
    opt.enable_relative_transform = false;
    CompressedTable t1 = ProvRcCompress(rel, opt);
    EXPECT_TRUE(t1.Decompress().EqualAsSet(rel)) << GetParam();
    // Full ProvRC never has more rows than step 1 alone.
    EXPECT_LE(t.num_rows(), t1.num_rows()) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, OpLosslessTest,
                         ::testing::ValuesIn(OpRegistry::Global().AllNames()));

// Random relations: arbitrary tuple sets must survive the round trip even
// with no exploitable structure.
class RandomRelationTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RandomRelationTest, LosslessOnNoise) {
  auto [l, m, rows] = GetParam();
  Rng rng(static_cast<uint64_t>(l * 100 + m * 10 + rows));
  LineageRelation rel(l, m);
  std::vector<int64_t> out_shape(static_cast<size_t>(l), 8);
  std::vector<int64_t> in_shape(static_cast<size_t>(m), 8);
  rel.set_shapes(out_shape, in_shape);
  std::vector<int64_t> tuple(static_cast<size_t>(l + m));
  for (int r = 0; r < rows; ++r) {
    for (auto& v : tuple) v = rng.UniformRange(0, 7);
    rel.AddTuple(tuple);
  }
  rel.SortAndDedup();
  CompressedTable t = ProvRcCompress(rel);
  EXPECT_TRUE(t.Decompress().EqualAsSet(rel));
  EXPECT_EQ(t.NumPairsRepresented(), rel.num_rows());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomRelationTest,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Values(1, 2, 3),
                       ::testing::Values(1, 10, 100, 500)));

// Structured random relations: random boxes (unions of Cartesian products)
// exercise partial mergeability.
class RandomBoxRelationTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomBoxRelationTest, LosslessOnRandomBoxes) {
  int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  LineageRelation rel(2, 2);
  rel.set_shapes({16, 16}, {16, 16});
  std::vector<int64_t> tuple(4);
  for (int box = 0; box < 6; ++box) {
    int64_t b0 = rng.UniformRange(0, 12), b1 = rng.UniformRange(0, 12);
    int64_t a0 = rng.UniformRange(0, 12), a1 = rng.UniformRange(0, 12);
    int64_t w = rng.UniformRange(1, 3);
    for (int64_t i = 0; i < w; ++i)
      for (int64_t j = 0; j < w; ++j)
        for (int64_t k = 0; k < w; ++k)
          for (int64_t n = 0; n < w; ++n) {
            tuple = {b0 + i, b1 + j, a0 + k, a1 + n};
            rel.AddTuple(tuple);
          }
  }
  rel.SortAndDedup();
  CompressedTable t = ProvRcCompress(rel);
  EXPECT_TRUE(t.Decompress().EqualAsSet(rel));
  EXPECT_LT(t.num_rows(), rel.num_rows());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBoxRelationTest,
                         ::testing::Range(0, 12));

// ------------------------------------------------------- pinned output --

// Step 1 alone emits exactly the rows of the original comparator-sorted
// step 1 (test_util::ReferenceRangeEncodeInputs), in its order, over random
// relations: l, m in 1..3, 0 and 1 rows, duplicates, unsorted and sorted
// rows, and coordinates too wide for one packed key (the comparator path).
TEST(ProvRcTest, StepOneMatchesReferenceOnRandomRelations) {
  ProvRcOptions step1_only;
  step1_only.enable_relative_transform = false;
  Rng rng(20241020);
  static constexpr int64_t kRows[] = {0, 1, 2, 5, 40, 300, 1200};
  for (int l = 1; l <= 3; ++l) {
    for (int m = 1; m <= 3; ++m) {
      for (int trial = 0; trial < 40; ++trial) {
        const int width = l + m;
        const int64_t rows = kRows[trial % std::size(kRows)];
        const bool wide = trial % 3 == 2;
        // Per attribute: a few anchors (2^40 apart when wide), then small
        // boxes around them, so runs touch and repeat.
        std::vector<std::vector<int64_t>> anchors(static_cast<size_t>(width));
        for (auto& a : anchors)
          for (uint64_t j = 0, n = 1 + wide + rng.Uniform(2); j < n; ++j)
            a.push_back(wide ? rng.UniformRange(-4, 4) * (int64_t{1} << 40)
                             : 0);
        LineageRelation rel(l, m);
        rel.set_shapes(std::vector<int64_t>(static_cast<size_t>(l), 8),
                       std::vector<int64_t>(static_cast<size_t>(m), 8));
        std::vector<int64_t> tuple(static_cast<size_t>(width));
        while (rel.num_rows() < rows) {
          if (rel.num_rows() > 0 && rng.Bernoulli(0.2)) {  // a duplicate
            auto prev = rel.Row(static_cast<int64_t>(
                rng.Uniform(static_cast<uint64_t>(rel.num_rows()))));
            tuple.assign(prev.begin(), prev.end());
            rel.AddTuple(tuple);
            continue;
          }
          for (size_t k = 0; k < tuple.size(); ++k) {
            const auto& a = anchors[k];
            tuple[k] = a[rng.Uniform(a.size())] + rng.UniformRange(0, 5);
          }
          rel.AddTuple(tuple);
        }
        if (trial % 4 == 1) rel.SortAndDedup();  // presorted input
        const std::vector<Interval> want =
            test_util::ReferenceRangeEncodeInputs(rel);
        const CompressedTable got = ProvRcCompress(rel, step1_only);
        const std::string what = "l " + std::to_string(l) + " m " +
                                 std::to_string(m) + " trial " +
                                 std::to_string(trial);
        ASSERT_EQ(got.num_rows() * width, static_cast<int64_t>(want.size()))
            << what;
        std::vector<int64_t> want_lo, want_hi;
        for (const Interval& iv : want) {
          want_lo.push_back(iv.lo);
          want_hi.push_back(iv.hi);
        }
        EXPECT_EQ(std::vector<int64_t>(got.lo_data(),
                                       got.lo_data() + want_lo.size()),
                  want_lo)
            << what;
        EXPECT_EQ(std::vector<int64_t>(got.hi_data(),
                                       got.hi_data() + want_hi.size()),
                  want_hi)
            << what;
        EXPECT_EQ(std::vector<int32_t>(got.ref_data(),
                                       got.ref_data() + got.num_rows() * m),
                  std::vector<int32_t>(
                      static_cast<size_t>(got.num_rows() * m), -1))
            << what;
        if (HasFailure()) return;
      }
    }
  }
}

// Hash64 of the columnar bytes of every table full ProvRC emits, recorded
// with the original comparator-sorted step 1: over the lineage of every
// registry op (CaptureRegistryOp's inputs) and over each Fig-8 workflow at
// a small size. Any change in which rows ProvRC keeps, or in their order,
// moves these.
constexpr uint64_t kRegistryOpsDigest = 6107745491696213345ull;
constexpr uint64_t kImageWorkflowDigest = 17063599761893819952ull;
constexpr uint64_t kRelationalWorkflowDigest = 8276735019888859486ull;
constexpr uint64_t kResNetWorkflowDigest = 15941075102770457258ull;

TEST(ProvRcTest, OutputBytesMatchPinnedDigests) {
  std::string registry_bytes;
  for (const std::string& name : OpRegistry::Global().AllNames()) {
    auto rels = CaptureRegistryOp(name);
    if (!rels) continue;
    for (const LineageRelation& rel : *rels)
      if (rel.num_rows() > 0)
        registry_bytes += SerializeCompressedTableColumnar(ProvRcCompress(rel));
  }
  EXPECT_EQ(Hash64(registry_bytes), kRegistryOpsDigest);

  auto digest = [](const Result<Workflow>& wf) {
    EXPECT_TRUE(wf.ok());
    std::string bytes;
    for (const Workflow::Step& step : wf.value().steps)
      bytes += SerializeCompressedTableColumnar(ProvRcCompress(step.relation));
    return Hash64(bytes);
  };
  EXPECT_EQ(digest(BuildImageWorkflow(32, 32, 7)), kImageWorkflowDigest);
  EXPECT_EQ(digest(BuildRelationalWorkflow(2000, 1200, 7)),
            kRelationalWorkflowDigest);
  EXPECT_EQ(digest(BuildResNetWorkflow(16, 16, 7)), kResNetWorkflowDigest);
}

// ------------------------------------------------------------- serialization --

TEST(SerializeTest, RoundTripElementwise) {
  Rng rng(6);
  NDArray a = NDArray::Random({50, 2}, &rng);
  LineageRelation rel = CaptureOp("negative", {&a}, OpArgs());
  CompressedTable t = ProvRcCompress(rel);
  std::string data = SerializeCompressedTable(t);
  auto back = DeserializeCompressedTable(data);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back.value() == t);
}

TEST(SerializeTest, RoundTripGzip) {
  Rng rng(7);
  NDArray x = NDArray::Random({300}, &rng);
  LineageRelation rel = CaptureOp("sort", {&x}, OpArgs());
  CompressedTable t = ProvRcCompress(rel);
  std::string data = SerializeCompressedTableGzip(t);
  auto back = DeserializeCompressedTableGzip(data);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back.value() == t);
}

TEST(SerializeTest, CorruptionRejected) {
  CompressedTable t({4}, {4});
  CompressedRow row;
  row.out = {{0, 3}};
  row.in = {InputCell::Relative(0, {0, 0})};
  t.AddRow(row);
  std::string data = SerializeCompressedTable(t);
  data[0] = 'X';
  EXPECT_FALSE(DeserializeCompressedTable(data).ok());
}

TEST(SerializeTest, ZeroArityHeaderRejected) {
  // A crafted header claiming 0 output or input attributes must be
  // Corruption, not a divide-by-zero or an unbounded empty-row loop.
  for (const std::string& data :
       {std::string("PRC1\x00\x00\xff", 7), std::string("PRC1\x00\x01\xff", 7),
        std::string("PRC1\x01\x00\xff", 7)}) {
    auto r = DeserializeCompressedTable(data);
    ASSERT_FALSE(r.ok());
  }
}

TEST(SerializeTest, TruncationFuzzNeverCrashes) {
  // Every prefix of a valid serialization must either decode cleanly (the
  // full buffer) or fail with a Status — never crash or loop.
  Rng rng(77);
  NDArray x = NDArray::Random({64}, &rng);
  LineageRelation rel = CaptureOp("sort", {&x}, OpArgs());
  std::string data = SerializeCompressedTable(ProvRcCompress(rel));
  for (size_t cut = 0; cut < data.size(); ++cut) {
    auto r = DeserializeCompressedTable(data.substr(0, cut));
    EXPECT_FALSE(r.ok()) << "prefix of length " << cut << " decoded";
  }
  EXPECT_TRUE(DeserializeCompressedTable(data).ok());
}

TEST(SerializeTest, ByteFlipFuzzNeverCrashes) {
  Rng rng(78);
  NDArray x = NDArray::Random({32}, &rng);
  LineageRelation rel = CaptureOp("negative", {&x}, OpArgs());
  std::string data = SerializeCompressedTable(ProvRcCompress(rel));
  for (int trial = 0; trial < 200; ++trial) {
    std::string corrupted = data;
    size_t pos = rng.Uniform(corrupted.size());
    corrupted[pos] = static_cast<char>(rng.Next() & 0xFF);
    auto r = DeserializeCompressedTable(corrupted);
    // Either rejected or decoded to *some* table; both acceptable, the
    // invariant is no crash / no hang.
    (void)r;
  }
}

TEST(SerializeTest, CompressedElementwiseIsTiny) {
  // A 100k-cell element-wise lineage must serialize to a few dozen bytes —
  // the heart of Table VII's storage reductions.
  Rng rng(8);
  NDArray a = NDArray::Random({100000}, &rng);
  LineageRelation rel = CaptureOp("negative", {&a}, OpArgs());
  CompressedTable t = ProvRcCompress(rel);
  std::string data = SerializeCompressedTable(t);
  EXPECT_LT(data.size(), 64u);
  EXPECT_GT(rel.PayloadBytes(), 1000000);
}

// ---------------------------------------------------------------- reshape --

TEST(ReshapeTest, PaperFigure6AggregateGeneralization) {
  // Aggregate over a 2-cell array -> generalized -> instantiate for 4 cells
  // (paper Fig 6).
  Rng rng(9);
  NDArray small = NDArray::Random({2}, &rng);
  LineageRelation rel2 = CaptureOp("sum", {&small}, OpArgs());
  CompressedTable t2 = ProvRcCompress(rel2);
  GeneralizedTable gen = GeneralizedTable::Generalize(t2);
  EXPECT_TRUE(gen.has_symbolic_cells());

  auto t4 = gen.Instantiate({1}, {4});
  ASSERT_TRUE(t4.ok());
  NDArray big = NDArray::Random({4}, &rng);
  LineageRelation rel4 = CaptureOp("sum", {&big}, OpArgs());
  EXPECT_TRUE(t4.value().Decompress().EqualAsSet(rel4));
}

TEST(ReshapeTest, ElementwiseGeneralizesAcrossShapes) {
  Rng rng(10);
  NDArray a = NDArray::Random({8}, &rng);
  LineageRelation rel = CaptureOp("negative", {&a}, OpArgs());
  GeneralizedTable gen = GeneralizedTable::Generalize(ProvRcCompress(rel));
  for (int64_t n : {3, 17, 100}) {
    NDArray b = NDArray::Random({n}, &rng);
    LineageRelation reln = CaptureOp("negative", {&b}, OpArgs());
    auto t = gen.Instantiate({n}, {n});
    ASSERT_TRUE(t.ok());
    EXPECT_TRUE(t.value().Decompress().EqualAsSet(reln)) << n;
  }
}

TEST(ReshapeTest, TileDoesNotGeneralize) {
  // tile's compressed deltas are shape-dependent: instantiating for another
  // shape must NOT reproduce the true lineage (gen_sig verification fails).
  NDArray x4 = NDArray::FromValues({4}, {1, 2, 3, 4});
  OpArgs args;
  args.SetInt("reps", 2);
  LineageRelation rel4 = CaptureOp("tile", {&x4}, args);
  GeneralizedTable gen = GeneralizedTable::Generalize(ProvRcCompress(rel4));
  NDArray x6 = NDArray::FromValues({6}, {1, 2, 3, 4, 5, 6});
  LineageRelation rel6 = CaptureOp("tile", {&x6}, args);
  auto t6 = gen.Instantiate({12}, {6});
  ASSERT_TRUE(t6.ok());
  EXPECT_FALSE(t6.value().Decompress().EqualAsSet(rel6));
}

TEST(ReshapeTest, CrossDim3TrapGeneralizesWrongly) {
  // The `cross` trap: with (n,3) inputs the last-dimension interval [0,2]
  // generalizes; instantiating at (n,2) produces wrong lineage — the
  // mechanism behind Table IX's one misprediction.
  Rng rng(11);
  NDArray a = NDArray::Random({4, 3}, &rng);
  NDArray b = NDArray::Random({4, 3}, &rng);
  const ArrayOp* op = OpRegistry::Global().Find("cross");
  NDArray out = op->Apply({&a, &b}, OpArgs()).ValueOrDie();
  auto rels = op->Capture({&a, &b}, out, OpArgs()).ValueOrDie();
  GeneralizedTable gen = GeneralizedTable::Generalize(ProvRcCompress(rels[0]));
  // Instantiate for 5 rows and dim 3 works (shape-based reuse)...
  NDArray a5 = NDArray::Random({5, 3}, &rng);
  NDArray b5 = NDArray::Random({5, 3}, &rng);
  NDArray out5 = op->Apply({&a5, &b5}, OpArgs()).ValueOrDie();
  auto rels5 = op->Capture({&a5, &b5}, out5, OpArgs()).ValueOrDie();
  auto t5 = gen.Instantiate(out5.shape(), a5.shape());
  ASSERT_TRUE(t5.ok());
  EXPECT_TRUE(t5.value().Decompress().EqualAsSet(rels5[0]));
  // ...but the pattern silently differs for dim-2 inputs (different output
  // arity) — Instantiate cannot even be applied, or applies incorrectly.
  NDArray a2 = NDArray::Random({5, 2}, &rng);
  NDArray b2 = NDArray::Random({5, 2}, &rng);
  NDArray out2 = op->Apply({&a2, &b2}, OpArgs()).ValueOrDie();
  auto rels2 = op->Capture({&a2, &b2}, out2, OpArgs()).ValueOrDie();
  auto t2 = gen.Instantiate(out2.shape(), a2.shape());
  EXPECT_TRUE(!t2.ok() || !t2.value().Decompress().EqualAsSet(rels2[0]));
}

TEST(ReshapeTest, NoSymbolicCellsForConstantLineage) {
  // A relation whose intervals never span a full dimension stays concrete.
  LineageRelation rel(1, 1);
  rel.set_shapes({10}, {10});
  int64_t o = 3, i = 5;
  rel.Add({&o, 1}, {&i, 1});
  GeneralizedTable gen = GeneralizedTable::Generalize(ProvRcCompress(rel));
  EXPECT_FALSE(gen.has_symbolic_cells());
}

// ------------------------------------------------------- columnar digest --

/// The digest the appender trusts: {size, Hash64} of the columnar image,
/// computed from scratch.
ColumnarDigest FreshDigest(const CompressedTable& table) {
  const std::string image = SerializeCompressedTableColumnar(table);
  return {image.size(), Hash64(image)};
}

CompressedTable DigestTestTable() {
  CompressedTable table({8}, {8});
  table.AddRow(CompressedRow{{{0, 3}}, {InputCell::Relative(0, {0, 0})}});
  table.AddRow(CompressedRow{{{4, 7}}, {InputCell::Absolute({1, 2})}});
  return table;
}

TEST(ColumnarDigestTest, EqualsSizeAndHashOfColumnarImage) {
  const CompressedTable table = DigestTestTable();
  EXPECT_EQ(table.columnar_digest(), FreshDigest(table));
  EXPECT_EQ(table.columnar_digest(), FreshDigest(table));  // memoized
  const CompressedTable empty;
  EXPECT_EQ(empty.columnar_digest(), FreshDigest(empty));
}

TEST(ColumnarDigestTest, EveryMutationDropsTheMemo) {
  // Each mutator runs on a table whose digest was already taken; the memo
  // must follow the new content, never the stale image.
  CompressedTable table = DigestTestTable();
  ColumnarDigest before = table.columnar_digest();

  table.set_out_iv(1, 0, {5, 7});
  EXPECT_NE(table.columnar_digest(), before);
  EXPECT_EQ(table.columnar_digest(), FreshDigest(table));
  before = table.columnar_digest();

  table.set_in_iv(0, 0, {-1, 1});
  EXPECT_NE(table.columnar_digest(), before);
  EXPECT_EQ(table.columnar_digest(), FreshDigest(table));
  before = table.columnar_digest();

  table.AddRow(CompressedRow{{{0, 0}}, {InputCell::Absolute({7, 7})}});
  EXPECT_NE(table.columnar_digest(), before);
  EXPECT_EQ(table.columnar_digest(), FreshDigest(table));
}

TEST(ColumnarDigestTest, CopyAndMoveTargetsCarryTheirOwnContentsDigest) {
  CompressedTable source = DigestTestTable();
  const ColumnarDigest digest = source.columnar_digest();

  CompressedTable copy(source);
  EXPECT_EQ(copy.columnar_digest(), digest);
  copy.set_out_iv(0, 0, {0, 2});  // the copy's mutation leaves source alone
  EXPECT_EQ(copy.columnar_digest(), FreshDigest(copy));
  EXPECT_EQ(source.columnar_digest(), digest);

  CompressedTable assigned = DigestTestTable();
  assigned.AddRow(CompressedRow{{{1, 1}}, {InputCell::Absolute({0, 0})}});
  (void)assigned.columnar_digest();  // a memo the assignment must replace
  assigned = copy;
  EXPECT_EQ(assigned.columnar_digest(), FreshDigest(copy));

  CompressedTable moved(std::move(copy));
  EXPECT_EQ(moved.columnar_digest(), FreshDigest(moved));
  CompressedTable move_assigned = DigestTestTable();
  (void)move_assigned.columnar_digest();
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.columnar_digest(), FreshDigest(move_assigned));
  EXPECT_EQ(move_assigned.columnar_digest(), FreshDigest(assigned));

  // A moved-from table is valid and empty; its digest is its own.
  EXPECT_EQ(moved.columnar_digest(), FreshDigest(moved));
  EXPECT_NE(moved.columnar_digest(), digest);
}

}  // namespace
}  // namespace dslog
