// Tests for the interval index behind the θ-join kernels: exhaustive
// equivalence against the quadratic nested-loop reference on randomized
// interval sets, for the tree probe and the sorted-sweep access path.

#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "common/random.h"
#include "provrc/interval_index.h"

namespace dslog {
namespace {

/// (row, probe) pairs the index over `rows` emits for each of `probes`
/// along `path`. `stride` > 1 interleaves decoy cells the index must skip.
std::set<std::pair<int64_t, int64_t>> IndexPairs(
    const std::vector<Interval>& rows, const std::vector<Interval>& probes,
    int64_t stride = 1, AccessPath path = AccessPath::kIndexProbe) {
  std::vector<int64_t> lo, hi;
  for (const Interval& iv : rows) {
    lo.push_back(iv.lo);
    hi.push_back(iv.hi);
    for (int64_t pad = 1; pad < stride; ++pad) {
      lo.push_back(-1000000);  // decoy cells the stride must skip
      hi.push_back(-1000000);
    }
  }
  IntervalIndex index(lo.data(), hi.data(), static_cast<int64_t>(rows.size()),
                      stride);
  std::vector<int32_t> scratch;
  std::set<std::pair<int64_t, int64_t>> pairs;
  for (size_t j = 0; j < probes.size(); ++j) {
    index.ForEachOverlapping(probes[j], path, &scratch, [&](int64_t r) {
      auto [it, inserted] = pairs.insert({r, static_cast<int64_t>(j)});
      EXPECT_TRUE(inserted) << "row emitted twice: " << r << "," << j;
    });
  }
  return pairs;
}

/// Interval-join pairs (i in left, j in right) through the index's
/// sorted-sweep path: `left` is indexed, every `right` interval probes it.
std::set<std::pair<int64_t, int64_t>> SweepPairs(
    const std::vector<Interval>& left, const std::vector<Interval>& right) {
  return IndexPairs(left, right, 1, AccessPath::kSortedSweep);
}

std::set<std::pair<int64_t, int64_t>> ReferencePairs(
    const std::vector<Interval>& left, const std::vector<Interval>& right) {
  std::set<std::pair<int64_t, int64_t>> pairs;
  for (size_t i = 0; i < left.size(); ++i)
    for (size_t j = 0; j < right.size(); ++j)
      if (left[i].Intersects(right[j]))
        pairs.insert({static_cast<int64_t>(i), static_cast<int64_t>(j)});
  return pairs;
}

TEST(IntervalSweepTest, EmptySides) {
  EXPECT_TRUE(SweepPairs({}, {}).empty());
  EXPECT_TRUE(SweepPairs({{0, 5}}, {}).empty());
  EXPECT_TRUE(SweepPairs({}, {{0, 5}}).empty());
}

TEST(IntervalSweepTest, TouchingEndpointsCount) {
  // [0,5] and [5,9] overlap at exactly one point.
  auto pairs = SweepPairs({{0, 5}}, {{5, 9}});
  EXPECT_EQ(pairs.size(), 1u);
  // [0,4] and [5,9] do not.
  EXPECT_TRUE(SweepPairs({{0, 4}}, {{5, 9}}).empty());
}

TEST(IntervalSweepTest, DuplicateIntervalsAllPaired) {
  std::vector<Interval> left = {{2, 4}, {2, 4}, {2, 4}};
  std::vector<Interval> right = {{3, 3}, {3, 3}};
  EXPECT_EQ(SweepPairs(left, right).size(), 6u);
}

class IntervalSweepRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(IntervalSweepRandomTest, MatchesNestedLoop) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 7);
  std::vector<Interval> left, right;
  int n = 5 + static_cast<int>(rng.Uniform(120));
  int m = 5 + static_cast<int>(rng.Uniform(120));
  for (int i = 0; i < n; ++i) {
    int64_t lo = rng.UniformRange(0, 200);
    left.push_back({lo, lo + rng.UniformRange(0, 30)});
  }
  for (int j = 0; j < m; ++j) {
    int64_t lo = rng.UniformRange(0, 200);
    right.push_back({lo, lo + rng.UniformRange(0, 30)});
  }
  EXPECT_EQ(SweepPairs(left, right), ReferencePairs(left, right));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSweepRandomTest,
                         ::testing::Range(0, 20));

// Skewed-input stress for the sweep path's lo-prefix search and SIMD
// hi-filter: point intervals (short prefixes, few survivors), long
// intervals (long prefixes, most rows survive), clustered low endpoints
// (many lo ties at the search boundary), and lopsided sizes.
class IntervalSweepStressTest : public ::testing::TestWithParam<int> {};

TEST_P(IntervalSweepStressTest, MatchesNestedLoopOnSkewedInputs) {
  const int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 101 + 13);
  const int distribution = seed % 4;
  auto make_side = [&](int n) {
    std::vector<Interval> side;
    for (int i = 0; i < n; ++i) {
      int64_t lo, span;
      switch (distribution) {
        case 0:  // points only: every insertion expires almost immediately
          lo = rng.UniformRange(0, 500);
          span = 0;
          break;
        case 1:  // long intervals: active sets grow large, little pruning
          lo = rng.UniformRange(0, 1000);
          span = rng.UniformRange(200, 600);
          break;
        case 2:  // clustered lows: heavy lo ties across both sides
          lo = 100 + rng.UniformRange(0, 8);
          span = rng.UniformRange(0, 40);
          break;
        default:  // mixed points and wide spans
          lo = rng.UniformRange(0, 300);
          span = rng.Bernoulli(0.5) ? 0 : rng.UniformRange(0, 250);
          break;
      }
      side.push_back({lo, lo + span});
    }
    return side;
  };
  // Lopsided sizes included (one side may be empty or a singleton).
  const int n = static_cast<int>(rng.Uniform(400));
  const int m = seed % 5 == 0 ? static_cast<int>(rng.Uniform(2))
                              : static_cast<int>(rng.Uniform(400));
  std::vector<Interval> left = make_side(n);
  std::vector<Interval> right = make_side(m);
  EXPECT_EQ(SweepPairs(left, right), ReferencePairs(left, right));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSweepStressTest,
                         ::testing::Range(0, 24));

// ------------------------------------------------------------ IntervalIndex --

TEST(IntervalIndexTest, EmptyAndSingleton) {
  IntervalIndex empty;
  int hits = 0;
  empty.ForEachOverlapping({0, 100}, [&](int64_t) { ++hits; });
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(IndexPairs({{5, 9}}, {{0, 4}, {9, 9}, {10, 20}}),
            (std::set<std::pair<int64_t, int64_t>>{{0, 1}}));
}

TEST(IntervalIndexTest, StridedColumnsSkipDecoyCells) {
  // Stride 3 mimics the lo/hi arenas of a 1-out/2-in table where only the
  // first attribute is indexed.
  EXPECT_EQ(IndexPairs({{0, 3}, {10, 12}, {2, 7}}, {{3, 10}}, 3),
            (std::set<std::pair<int64_t, int64_t>>{{0, 0}, {1, 0}, {2, 0}}));
}

class IntervalIndexRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(IntervalIndexRandomTest, MatchesNestedLoop) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 2467 + 11);
  auto make_side = [&rng](int count, int64_t domain) {
    std::vector<Interval> side;
    for (int i = 0; i < count; ++i) {
      int64_t lo = rng.UniformRange(0, domain);
      side.push_back({lo, lo + (rng.Bernoulli(0.4)
                                    ? 0
                                    : rng.UniformRange(0, domain / 4))});
    }
    return side;
  };
  const int n = static_cast<int>(rng.Uniform(300));
  const int m = static_cast<int>(rng.Uniform(40));
  std::vector<Interval> rows = make_side(n, 200);
  std::vector<Interval> probes = make_side(m, 200);
  EXPECT_EQ(IndexPairs(rows, probes), ReferencePairs(rows, probes));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalIndexRandomTest,
                         ::testing::Range(0, 16));

}  // namespace
}  // namespace dslog
