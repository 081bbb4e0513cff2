// Tests for the in-situ query processor: the paper's worked θ-join example,
// forward/backward equivalence against uncompressed natural joins (the
// central correctness property), multi-hop pipelines, and the merge
// optimization.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "array/ndarray.h"
#include "array/op.h"
#include "array/op_registry.h"
#include "common/random.h"
#include "provrc/provrc.h"
#include "provrc/range_encode.h"
#include "query/box.h"
#include "query/query_engine.h"
#include "query/theta_join.h"
#include "test_util.h"

namespace dslog {
namespace {

LineageRelation CaptureOp(const char* op_name,
                          const std::vector<const NDArray*>& inputs,
                          const OpArgs& args, NDArray* output,
                          int which = 0) {
  const ArrayOp* op = OpRegistry::Global().Find(op_name);
  EXPECT_NE(op, nullptr) << op_name;
  *output = op->Apply(inputs, args).ValueOrDie();
  auto rels = op->Capture(inputs, *output, args).ValueOrDie();
  return std::move(rels[static_cast<size_t>(which)]);
}

std::set<std::vector<int64_t>> ToTupleSet(const std::vector<int64_t>& flat,
                                          int arity) {
  std::set<std::vector<int64_t>> out;
  for (size_t off = 0; off < flat.size(); off += static_cast<size_t>(arity))
    out.insert(std::vector<int64_t>(flat.begin() + static_cast<long>(off),
                                    flat.begin() + static_cast<long>(off) +
                                        arity));
  return out;
}

// ---------------------------------------------------------------- BoxTable --

TEST(BoxTableTest, FromCellsMergesAdjacent) {
  BoxTable t = BoxTable::FromCells(1, {1, 2, 3, 4, 9, 12, 13, 14, 15});
  // The paper's range() example: {[1,4], [9], [12,15]}.
  EXPECT_EQ(t.num_boxes(), 3);
}

TEST(BoxTableTest, Merge2DGrid) {
  // A full 4x4 grid of cells collapses to a single box.
  std::vector<int64_t> cells;
  for (int64_t i = 0; i < 4; ++i)
    for (int64_t j = 0; j < 4; ++j) {
      cells.push_back(i);
      cells.push_back(j);
    }
  BoxTable t = BoxTable::FromCells(2, cells);
  ASSERT_EQ(t.num_boxes(), 1);
  EXPECT_EQ(t.Box(0)[0], (Interval{0, 3}));
  EXPECT_EQ(t.Box(0)[1], (Interval{0, 3}));
}

TEST(BoxTableTest, MergeDropsDuplicates) {
  BoxTable t(1);
  Interval iv{3, 7};
  t.AddBox({&iv, 1});
  t.AddBox({&iv, 1});
  t.Merge();
  EXPECT_EQ(t.num_boxes(), 1);
}

TEST(BoxTableTest, MergeCoalescesOverlaps) {
  BoxTable t(1);
  Interval a{0, 5}, b{3, 9};
  t.AddBox({&a, 1});
  t.AddBox({&b, 1});
  t.Merge();
  ASSERT_EQ(t.num_boxes(), 1);
  EXPECT_EQ(t.Box(0)[0], (Interval{0, 9}));
}

TEST(BoxTableTest, ExpandToCellsDedups) {
  BoxTable t(1);
  Interval a{0, 3}, b{2, 5};
  t.AddBox({&a, 1});
  t.AddBox({&b, 1});
  EXPECT_EQ(t.NumDistinctCells(), 6);
}

// Byte identity: same arity, same boxes in the same order.
void ExpectIdenticalBoxes(const BoxTable& got, const BoxTable& want,
                          const std::string& what) {
  ASSERT_EQ(got.ndim(), want.ndim()) << what;
  ASSERT_EQ(got.num_boxes(), want.num_boxes())
      << what << "\ngot " << got.DebugString() << "want "
      << want.DebugString();
  for (int64_t i = 0; i < got.num_boxes(); ++i) {
    auto a = got.Box(i);
    auto b = want.Box(i);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
        << what << ": box " << i << " differs\ngot " << got.DebugString()
        << "want " << want.DebugString();
  }
}

// Random box tables in the shapes Merge has to handle: narrow ranges that
// pack into one 64-bit key and coalesce heavily, wide ranges with negative
// values (62-bit lo columns, so from two attributes on the key exceeds 64
// bits and the pass takes the comparator fallback), per-attribute spreads
// that straddle the 64-bit boundary, injected duplicates, and
// already-sorted input.
BoxTable RandomMergeInput(int ndim, Rng* rng) {
  enum Kind { kNarrow, kWide, kMixed };
  const Kind kind = static_cast<Kind>(rng->Uniform(3));
  // Sizes around and above the radix cut-over, plus the trivial ones.
  static constexpr int64_t kSizes[] = {0, 1, 2, 3, 7, 40, 255, 256, 600, 2000};
  const int64_t n = kSizes[rng->Uniform(std::size(kSizes))];
  // Per attribute: a few anchors spread over 2^bits, then small offsets
  // and widths, so even wide tables have runs that touch or overlap.
  std::vector<std::vector<int64_t>> anchors(static_cast<size_t>(ndim));
  for (auto& a : anchors) {
    int bits = kind == kNarrow ? 0
               : kind == kWide ? 61
                               : static_cast<int>(rng->Uniform(48));
    for (uint64_t j = 0, m = 1 + rng->Uniform(4); j < m; ++j) {
      const int64_t span = int64_t{1} << bits;
      a.push_back(bits == 0 ? 0 : rng->UniformRange(-span, span));
    }
  }
  const int64_t reach =
      kind == kNarrow ? 1 + static_cast<int64_t>(rng->Uniform(12)) : 8;
  BoxTable t(ndim);
  std::vector<Interval> box(static_cast<size_t>(ndim));
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0 && rng->Bernoulli(0.15)) {  // duplicate an earlier box
      auto prev = t.Box(
          static_cast<int64_t>(rng->Uniform(static_cast<uint64_t>(i))));
      box.assign(prev.begin(), prev.end());
    } else {
      for (size_t k = 0; k < box.size(); ++k) {
        const auto& a = anchors[k];
        const int64_t lo =
            a[rng->Uniform(a.size())] + rng->UniformRange(0, reach);
        box[k] = {lo, lo + rng->UniformRange(0, 3)};
      }
    }
    t.AddBox(box);
  }
  if (rng->Bernoulli(0.2)) {  // already in the first pass's order
    std::vector<std::vector<Interval>> rows;
    for (int64_t i = 0; i < t.num_boxes(); ++i)
      rows.emplace_back(t.Box(i).begin(), t.Box(i).end());
    std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
      return std::lexicographical_compare(
          x.begin(), x.end(), y.begin(), y.end(),
          [](const Interval& p, const Interval& q) {
            return CompareIntervals(p, q) < 0;
          });
    });
    BoxTable sorted(ndim);
    for (const auto& r : rows) sorted.AddBox(r);
    t = std::move(sorted);
  }
  return t;
}

TEST(BoxTableTest, MergeMatchesReferenceOnRandomTables) {
  Rng rng(20240417);
  for (int ndim = 1; ndim <= 6; ++ndim) {
    for (int trial = 0; trial < 300; ++trial) {
      const BoxTable input = RandomMergeInput(ndim, &rng);
      BoxTable merged = input;
      merged.Merge();
      const std::string what = "ndim " + std::to_string(ndim) + " trial " +
                               std::to_string(trial);
      ExpectIdenticalBoxes(merged, test_util::ReferenceMerge(input), what);
      // Merged output is sorted input for a second merge (which may still
      // coalesce: the greedy passes are not idempotent).
      BoxTable again = merged;
      again.Merge();
      ExpectIdenticalBoxes(again, test_util::ReferenceMerge(merged),
                           what + " (re-merge)");
      // The shared pass stopped at a first attribute > 0 (how ProvRC step 1
      // leaves the output attributes alone) runs only those passes.
      if (ndim > 1) {
        const int first = 1 + trial % (ndim - 1);
        std::vector<Interval> flat;
        for (int64_t i = 0; i < input.num_boxes(); ++i)
          flat.insert(flat.end(), input.Box(i).begin(), input.Box(i).end());
        RangeEncodeBoxes(&flat, ndim, first);
        BoxTable partial(ndim);
        for (size_t at = 0; at < flat.size(); at += static_cast<size_t>(ndim))
          partial.AddBox(std::span<const Interval>(flat).subspan(
              at, static_cast<size_t>(ndim)));
        ExpectIdenticalBoxes(partial, test_util::ReferenceMerge(input, first),
                             what + " (from attribute " +
                                 std::to_string(first) + ")");
      }
      if (HasFatalFailure()) return;
    }
  }
}

// Bounds at INT64_MIN and INT64_MAX: the adjacency test must not compute
// hi + 1 past INT64_MAX (UB, fatal under -fsanitize=undefined), and the
// packed-key ranges must not overflow. ReferenceMerge is itself UB here, so
// the expected boxes are spelled out.
TEST(BoxTableTest, MergeHandlesInt64Extremes) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  auto table = [](int ndim, std::vector<std::vector<Interval>> boxes) {
    BoxTable t(ndim);
    for (const auto& b : boxes) t.AddBox(b);
    return t;
  };

  // Narrow ranges next to INT64_MAX (packed key): the run ending at kMax
  // absorbs the duplicate point kMax; the gap at kMax - 4 survives.
  BoxTable near_max = table(1, {{{kMax - 1, kMax}},
                                {{kMax, kMax}},
                                {{kMax - 6, kMax - 5}},
                                {{kMax - 3, kMax - 2}}});
  near_max.Merge();
  ExpectIdenticalBoxes(near_max,
                       table(1, {{{kMax - 6, kMax - 5}}, {{kMax - 3, kMax}}}),
                       "near INT64_MAX");

  // Full-range fields (comparator fallback): everything unions to one box.
  BoxTable full =
      table(1, {{{0, kMax}}, {{kMin, -1}}, {{5, kMax}}, {{kMin, kMin}}});
  full.Merge();
  ExpectIdenticalBoxes(full, table(1, {{{kMin, kMax}}}), "full range");

  // 2-D: attribute 1 coalesces within each attribute-0 group; the groups
  // stay apart, ordered by attribute 1 then attribute 0.
  BoxTable grid = table(2, {{{kMax, kMax}, {0, 4}},
                            {{kMax, kMax}, {5, kMax}},
                            {{kMin, kMin}, {kMin, 0}},
                            {{kMin, kMin}, {1, 1}},
                            {{kMax, kMax}, {kMax, kMax}}});
  grid.Merge();
  ExpectIdenticalBoxes(grid,
                       table(2, {{{kMin, kMin}, {kMin, 1}},
                                 {{kMax, kMax}, {0, kMax}}}),
                       "2-D extremes");

  // 2-D packed: attribute 0 coalesces up to INT64_MAX.
  BoxTable corner =
      table(2, {{{kMax, kMax}, {7, 7}}, {{kMax - 1, kMax - 1}, {7, 7}}});
  corner.Merge();
  ExpectIdenticalBoxes(corner, table(2, {{{kMax - 1, kMax}, {7, 7}}}),
                       "2-D corner");
}

// ------------------------------------------------------- worked example --

TEST(ThetaJoinTest, PaperSectionVExample) {
  // Stored table (paper Table II, 0-based): b1=[0,2], a1 rel delta 0,
  // a2 abs [0,1]. Backward query for b1 in [0,1] must return
  // a1 in [0,1], a2 in [0,1] (paper Table VI).
  CompressedTable table({3}, {3, 2});
  CompressedRow row;
  row.out = {{0, 2}};
  row.in = {InputCell::Relative(0, {0, 0}), InputCell::Absolute({0, 1})};
  table.AddRow(row);

  BoxTable q(1);
  Interval qiv{0, 1};
  q.AddBox({&qiv, 1});
  BoxTable result = BackwardThetaJoin(q, table);
  ASSERT_EQ(result.num_boxes(), 1);
  EXPECT_EQ(result.Box(0)[0], (Interval{0, 1}));
  EXPECT_EQ(result.Box(0)[1], (Interval{0, 1}));
}

TEST(ThetaJoinTest, RangeJoinNoOverlapYieldsEmpty) {
  CompressedTable table({10}, {10});
  CompressedRow row;
  row.out = {{0, 4}};
  row.in = {InputCell::Absolute({0, 4})};
  table.AddRow(row);
  BoxTable q(1);
  Interval qiv{7, 9};
  q.AddBox({&qiv, 1});
  EXPECT_TRUE(BackwardThetaJoin(q, table).empty());
  EXPECT_TRUE(ForwardThetaJoin(q, table).empty());
}

TEST(ThetaJoinTest, ForwardClampsToRowBound) {
  // Row: out [5, 9], input relative delta [-2, 0] (a = b - 2 .. b).
  // Querying inputs [3, 4]: implied inputs are [3, 9]; t = [3,4];
  // feasible outputs = [3 - 0, 4 + 2] = [3, 6] clamped to [5, 9] -> [5, 6].
  CompressedTable table({10}, {10});
  CompressedRow row;
  row.out = {{5, 9}};
  row.in = {InputCell::Relative(0, {-2, 0})};
  table.AddRow(row);
  BoxTable q(1);
  Interval qiv{3, 4};
  q.AddBox({&qiv, 1});
  BoxTable result = ForwardThetaJoin(q, table);
  ASSERT_EQ(result.num_boxes(), 1);
  EXPECT_EQ(result.Box(0)[0], (Interval{5, 6}));
}

// ------------------------------------------------------ probe attribute --

// Identity lineage over an n x n array stored as column stripes: row r
// covers out (*, r) <- in (*, r). Every row spans all of attribute 0 and
// one cell of attribute 1, on both sides.
CompressedTable ColumnStripeTable(int64_t n) {
  CompressedTable table({n, n}, {n, n});
  CompressedRow row;
  row.in = {InputCell::Relative(0, {0, 0}), InputCell::Relative(1, {0, 0})};
  for (int64_t r = 0; r < n; ++r) {
    row.out = {{0, n - 1}, {r, r}};
    table.AddRow(row);
  }
  return table;
}

TEST(ThetaJoinTest, IndexProbesTheLeastHitAttribute) {
  constexpr int64_t n = 48;
  const CompressedTable table = ColumnStripeTable(n);
  EXPECT_EQ(table.BackwardIndex()->attr(), 1);
  EXPECT_EQ(table.ForwardIndex()->attr(), 1);

  // An attribute-0 index, as every table had before the choice existed.
  // Both directions' attribute-0 intervals are [0, n - 1] on every row.
  std::vector<int64_t> lo0(static_cast<size_t>(n), 0);
  std::vector<int64_t> hi0(static_cast<size_t>(n), n - 1);
  const IntervalIndex index0(lo0.data(), hi0.data(), n, 1, 0);

  Rng rng(21);
  BoxTable q(2);
  for (int i = 0; i < 64; ++i) {
    const Interval box[2] = {Interval::Point(rng.UniformRange(0, n - 1)),
                             Interval::Point(rng.UniformRange(0, n - 1))};
    q.AddBox(box);
  }
  BoxTable expected = q;
  expected.Merge();

  for (bool forward : {false, true}) {
    JoinCounters chosen, attr0;
    BoxTable got = forward ? ForwardThetaJoin(q, table, &chosen)
                           : BackwardThetaJoin(q, table, &chosen);
    BoxTable old = forward
                       ? ForwardThetaJoin(q, table.view(), &index0, &attr0)
                       : BackwardThetaJoin(q, table.view(), &index0, &attr0);
    got.Merge();
    old.Merge();
    ExpectIdenticalBoxes(got, expected, forward ? "forward" : "backward");
    ExpectIdenticalBoxes(old, expected, forward ? "forward/0" : "backward/0");
    EXPECT_EQ(chosen.probes, q.num_boxes());
    EXPECT_LE(chosen.rows_scanned, 2 * chosen.probes)
        << (forward ? "forward" : "backward");
    EXPECT_EQ(attr0.rows_scanned, n * attr0.probes)
        << (forward ? "forward" : "backward");
  }
}

TEST(ThetaJoinTest, EqualCostAttributesKeepAttributeZero) {
  // One elementwise row over a square array: both attributes cost 1.
  CompressedTable table({8, 8}, {8, 8});
  CompressedRow row;
  row.out = {{0, 7}, {0, 7}};
  row.in = {InputCell::Relative(0, {0, 0}), InputCell::Relative(1, {0, 0})};
  table.AddRow(row);
  EXPECT_EQ(table.BackwardIndex()->attr(), 0);
  EXPECT_EQ(table.ForwardIndex()->attr(), 0);
}

TEST(ThetaJoinTest, ForwardIndexIsCachedSharedAndInvalidated) {
  CompressedTable table = ColumnStripeTable(8);
  const std::shared_ptr<const IntervalIndex> forward = table.ForwardIndex();
  const std::shared_ptr<const IntervalIndex> backward = table.BackwardIndex();
  EXPECT_EQ(table.ForwardIndex(), forward);
  EXPECT_NE(forward, backward);

  // Copies share both indexes until they mutate.
  CompressedTable copy = table;
  EXPECT_EQ(copy.ForwardIndex(), forward);
  EXPECT_EQ(copy.BackwardIndex(), backward);

  copy.set_out_iv(0, 1, {0, 7});
  EXPECT_NE(copy.ForwardIndex(), forward);
  EXPECT_NE(copy.BackwardIndex(), backward);
  EXPECT_EQ(table.ForwardIndex(), forward);  // the original keeps its own

  CompressedTable grown = table;
  EXPECT_EQ(grown.ForwardIndex(), forward);
  CompressedRow row;
  row.out = {{0, 7}, {0, 0}};
  row.in = {InputCell::Relative(0, {0, 0}), InputCell::Relative(1, {0, 0})};
  grown.AddRow(row);
  const std::shared_ptr<const IntervalIndex> rebuilt = grown.ForwardIndex();
  EXPECT_NE(rebuilt, forward);
  EXPECT_EQ(rebuilt->size(), 9);
}

// ----------------------------------------- equivalence with ground truth --

// For each single-op lineage: random queries, both directions, in-situ
// result must equal the uncompressed natural-join result.
class SingleHopEquivalenceTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(SingleHopEquivalenceTest, MatchesUncompressedJoin) {
  const ArrayOp* op = OpRegistry::Global().Find(GetParam());
  ASSERT_NE(op, nullptr);
  if (op->num_inputs() != 1) GTEST_SKIP();
  Rng rng(23);
  std::vector<int64_t> shape = op->SupportsUnaryShape({7, 5})
                                   ? std::vector<int64_t>{7, 5}
                                   : std::vector<int64_t>{35};
  if (!op->SupportsUnaryShape(shape)) GTEST_SKIP();
  NDArray x = NDArray::Random(shape, &rng);
  OpArgs args = op->SampleArgs(shape, &rng);
  auto outr = op->Apply({&x}, args);
  if (!outr.ok()) GTEST_SKIP();
  NDArray out = outr.ValueOrDie();
  auto rels = op->Capture({&x}, out, args).ValueOrDie();
  LineageRelation& rel = rels[0];
  if (rel.num_rows() == 0) GTEST_SKIP();
  CompressedTable table = ProvRcCompress(rel);

  for (int trial = 0; trial < 4; ++trial) {
    // Backward: random output cells.
    {
      std::vector<int64_t> cells;
      std::vector<int64_t> idx(static_cast<size_t>(out.ndim()));
      int64_t k = std::max<int64_t>(1, out.size() / 4);
      for (int64_t flat : rng.SampleWithoutReplacement(out.size(), k)) {
        out.UnravelIndex(flat, idx);
        cells.insert(cells.end(), idx.begin(), idx.end());
      }
      BoxTable q = BoxTable::FromCells(out.ndim(), cells);
      BoxTable got = BackwardThetaJoin(q, table);
      got.Merge();
      std::vector<int64_t> want =
          RelationJoinStep(rel, /*forward=*/false, cells);
      EXPECT_EQ(ToTupleSet(got.ExpandToCells(), rel.in_ndim()),
                ToTupleSet(want, rel.in_ndim()))
          << GetParam() << " backward";
    }
    // Forward: random input cells; the direct join over the backward
    // table must match.
    {
      std::vector<int64_t> cells;
      std::vector<int64_t> idx(static_cast<size_t>(x.ndim()));
      int64_t k = std::max<int64_t>(1, x.size() / 4);
      for (int64_t flat : rng.SampleWithoutReplacement(x.size(), k)) {
        x.UnravelIndex(flat, idx);
        cells.insert(cells.end(), idx.begin(), idx.end());
      }
      BoxTable q = BoxTable::FromCells(x.ndim(), cells);
      BoxTable got = ForwardThetaJoin(q, table);
      got.Merge();
      std::vector<int64_t> want = RelationJoinStep(rel, /*forward=*/true, cells);
      EXPECT_EQ(ToTupleSet(got.ExpandToCells(), rel.out_ndim()),
                ToTupleSet(want, rel.out_ndim()))
          << GetParam() << " forward";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllUnaryOps, SingleHopEquivalenceTest,
    ::testing::ValuesIn(OpRegistry::Global().UnaryPipelineNames()));

// Random-relation equivalence: no structure at all.
class RandomRelationQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomRelationQueryTest, BothDirectionsMatch) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919);
  LineageRelation rel(2, 2);
  rel.set_shapes({10, 10}, {10, 10});
  std::vector<int64_t> tuple(4);
  for (int r = 0; r < 300; ++r) {
    for (auto& v : tuple) v = rng.UniformRange(0, 9);
    rel.AddTuple(tuple);
  }
  rel.SortAndDedup();
  CompressedTable table = ProvRcCompress(rel);

  std::vector<int64_t> cells;
  for (int i = 0; i < 5; ++i) {
    cells.push_back(rng.UniformRange(0, 9));
    cells.push_back(rng.UniformRange(0, 9));
  }
  BoxTable q = BoxTable::FromCells(2, cells);

  BoxTable back = BackwardThetaJoin(q, table);
  EXPECT_EQ(ToTupleSet(back.ExpandToCells(), 2),
            ToTupleSet(RelationJoinStep(rel, false, cells), 2));
  BoxTable fwd = ForwardThetaJoin(q, table);
  EXPECT_EQ(ToTupleSet(fwd.ExpandToCells(), 2),
            ToTupleSet(RelationJoinStep(rel, true, cells), 2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRelationQueryTest,
                         ::testing::Range(0, 10));

// ------------------------------------------------------------- multi-hop --

TEST(MultiHopTest, ForwardPipelineMatchesGroundTruth) {
  // x -> negative -> y -> sum(axis) -> z over a 2-D array; forward query
  // from x cells to z cells.
  Rng rng(42);
  NDArray x = NDArray::Random({8, 6}, &rng);
  NDArray y, z;
  LineageRelation r1 = CaptureOp("negative", {&x}, OpArgs(), &y);
  OpArgs sum_args;
  sum_args.SetInt("axis", 1);
  LineageRelation r2 = CaptureOp("sum", {&y}, sum_args, &z);
  CompressedTable t1 = ProvRcCompress(r1);
  CompressedTable t2 = ProvRcCompress(r2);

  std::vector<int64_t> cells = {0, 0, 3, 4, 7, 5};
  BoxTable q = BoxTable::FromCells(2, cells);
  BoxTable got = InSituQuery({{&t1, true}, {&t2, true}}, q);
  std::vector<int64_t> want =
      UncompressedQuery({{&r1, true}, {&r2, true}}, cells);
  EXPECT_EQ(ToTupleSet(got.ExpandToCells(), 1), ToTupleSet(want, 1));
}

TEST(MultiHopTest, BackwardPipelineMatchesGroundTruth) {
  Rng rng(43);
  NDArray x = NDArray::Random({40}, &rng);
  NDArray y, z;
  OpArgs roll_args;
  roll_args.SetInt("shift", 7);
  LineageRelation r1 = CaptureOp("roll", {&x}, roll_args, &y);
  LineageRelation r2 = CaptureOp("cumsum", {&y}, OpArgs(), &z);
  CompressedTable t1 = ProvRcCompress(r1);
  CompressedTable t2 = ProvRcCompress(r2);

  std::vector<int64_t> cells = {5, 17, 39};
  BoxTable q = BoxTable::FromCells(1, cells);
  // Backward: z -> y -> x.
  BoxTable got = InSituQuery({{&t2, false}, {&t1, false}}, q);
  std::vector<int64_t> want =
      UncompressedQuery({{&r2, false}, {&r1, false}}, cells);
  EXPECT_EQ(ToTupleSet(got.ExpandToCells(), 1), ToTupleSet(want, 1));
}

TEST(MultiHopTest, MixedDirectionPath) {
  // Two ops sharing input x: y1 = negative(x), y2 = flip(x). Path
  // y1 -> x -> y2 uses a backward hop then a forward hop.
  Rng rng(44);
  NDArray x = NDArray::Random({30}, &rng);
  NDArray y1, y2;
  LineageRelation r1 = CaptureOp("negative", {&x}, OpArgs(), &y1);
  LineageRelation r2 = CaptureOp("flip", {&x}, OpArgs(), &y2);
  CompressedTable t1 = ProvRcCompress(r1);
  CompressedTable t2 = ProvRcCompress(r2);

  std::vector<int64_t> cells = {3, 4, 5, 20};
  BoxTable q = BoxTable::FromCells(1, cells);
  BoxTable got = InSituQuery({{&t1, false}, {&t2, true}}, q);
  std::vector<int64_t> want =
      UncompressedQuery({{&r1, false}, {&r2, true}}, cells);
  EXPECT_EQ(ToTupleSet(got.ExpandToCells(), 1), ToTupleSet(want, 1));
}

TEST(MultiHopTest, NoMergeMatchesMergedResults) {
  Rng rng(45);
  NDArray x = NDArray::Random({64}, &rng);
  NDArray y, z;
  LineageRelation r1 = CaptureOp("sqrt", {&x}, OpArgs(), &y);
  OpArgs args;
  args.SetInt("reps", 2);
  LineageRelation r2 = CaptureOp("tile", {&y}, args, &z);
  CompressedTable t1 = ProvRcCompress(r1);
  CompressedTable t2 = ProvRcCompress(r2);
  std::vector<int64_t> cells = {0, 1, 2, 3, 10, 63};
  BoxTable q = BoxTable::FromCells(1, cells);
  QueryOptions no_merge;
  no_merge.merge_between_hops = false;
  BoxTable merged = InSituQuery({{&t1, true}, {&t2, true}}, q);
  BoxTable unmerged = InSituQuery({{&t1, true}, {&t2, true}}, q, no_merge);
  EXPECT_EQ(ToTupleSet(merged.ExpandToCells(), 1),
            ToTupleSet(unmerged.ExpandToCells(), 1));
  EXPECT_LE(merged.num_boxes(), unmerged.num_boxes());
}

// Longer random pipelines: chain 4 random unary ops, compare forward query
// results against ground truth (integration property).
class RandomPipelineQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomPipelineQueryTest, ForwardMatchesGroundTruth) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 1337 + 5);
  auto pool = OpRegistry::Global().UnaryPipelineNames();
  NDArray current = NDArray::Random({48}, &rng);
  NDArray first = current;
  std::vector<LineageRelation> rels;
  std::vector<CompressedTable> tables;
  int steps = 0;
  int guard = 0;
  while (steps < 4 && guard < 200) {
    ++guard;
    const ArrayOp* op =
        OpRegistry::Global().Find(pool[rng.Uniform(pool.size())]);
    if (!op->SupportsUnaryShape(current.shape())) continue;
    OpArgs args = op->SampleArgs(current.shape(), &rng);
    auto out = op->Apply({&current}, args);
    if (!out.ok()) continue;
    NDArray next = out.ValueOrDie();
    if (next.size() == 0 || next.size() > 200000) continue;
    auto captured = op->Capture({&current}, next, args);
    if (!captured.ok() || captured.value()[0].num_rows() == 0) continue;
    rels.push_back(std::move(captured.ValueOrDie()[0]));
    tables.push_back(ProvRcCompress(rels.back()));
    current = std::move(next);
    ++steps;
  }
  ASSERT_EQ(steps, 4);

  std::vector<int64_t> cells;
  std::vector<int64_t> idx(first.shape().size());
  for (int64_t flat : rng.SampleWithoutReplacement(first.size(), 6)) {
    first.UnravelIndex(flat, idx);
    cells.insert(cells.end(), idx.begin(), idx.end());
  }
  BoxTable q = BoxTable::FromCells(first.ndim(), cells);
  std::vector<QueryHop> hops;
  std::vector<RelationHop> rhops;
  for (size_t i = 0; i < tables.size(); ++i) {
    hops.push_back({&tables[i], true});
    rhops.push_back({&rels[i], true});
  }
  BoxTable got = InSituQuery(hops, q);
  std::vector<int64_t> want = UncompressedQuery(rhops, cells);
  int arity = rels.back().out_ndim();
  EXPECT_EQ(ToTupleSet(got.ExpandToCells(), arity), ToTupleSet(want, arity));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPipelineQueryTest,
                         ::testing::Range(0, 15));

}  // namespace
}  // namespace dslog
