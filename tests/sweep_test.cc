// Tests for the interval index behind the θ-join kernels and for the
// joins built on it: the tree probe must match the quadratic nested-loop
// reference on randomized interval sets, emit rows in nondecreasing-lo
// order with each overlapping row once, and the backward/forward joins
// must match a brute-force oracle as a set and return bit-identical rows
// from every entry point, profiled or not.

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "provrc/compressed_table.h"
#include "provrc/interval_index.h"
#include "query/box.h"
#include "query/theta_join.h"

namespace dslog {
namespace {

/// (row, probe) pairs the index over `rows` emits for each of `probes`.
/// `stride` > 1 interleaves decoy cells the index must skip.
std::set<std::pair<int64_t, int64_t>> IndexPairs(
    const std::vector<Interval>& rows, const std::vector<Interval>& probes,
    int64_t stride = 1) {
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
  std::set<std::pair<int64_t, int64_t>> pairs;
  for (size_t j = 0; j < probes.size(); ++j) {
    index.ForEachOverlapping(probes[j], [&](int64_t r) {
      auto [it, inserted] = pairs.insert({r, static_cast<int64_t>(j)});
      EXPECT_TRUE(inserted) << "row emitted twice: " << r << "," << j;
    });
  }
  return pairs;
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
  EXPECT_TRUE(IndexPairs({}, {}).empty());
  EXPECT_TRUE(IndexPairs({{0, 5}}, {}).empty());
  EXPECT_TRUE(IndexPairs({}, {{0, 5}}).empty());
}

TEST(IntervalSweepTest, TouchingEndpointsCount) {
  // [0,5] and [5,9] overlap at exactly one point.
  auto pairs = IndexPairs({{0, 5}}, {{5, 9}});
  EXPECT_EQ(pairs.size(), 1u);
  // [0,4] and [5,9] do not.
  EXPECT_TRUE(IndexPairs({{0, 4}}, {{5, 9}}).empty());
}

TEST(IntervalSweepTest, DuplicateIntervalsAllPaired) {
  std::vector<Interval> left = {{2, 4}, {2, 4}, {2, 4}};
  std::vector<Interval> right = {{3, 3}, {3, 3}};
  EXPECT_EQ(IndexPairs(left, right).size(), 6u);
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
  EXPECT_EQ(IndexPairs(left, right), ReferencePairs(left, right));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSweepRandomTest,
                         ::testing::Range(0, 20));

// Skewed-input stress for the tree probe's two prunes (sorted lo, subtree
// max-hi): point intervals (few survivors), long intervals (most rows
// survive, little pruning), clustered low endpoints (many lo ties at the
// prune boundary), and lopsided sizes.
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
  EXPECT_EQ(IndexPairs(left, right), ReferencePairs(left, right));
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

// ------------------------------------------------------ join differentials --

/// Bit-identical comparison: same boxes in the same order.
::testing::AssertionResult SameTable(const BoxTable& a, const BoxTable& b) {
  if (a.ndim() != b.ndim())
    return ::testing::AssertionFailure() << "ndim " << a.ndim() << " vs "
                                         << b.ndim();
  if (a.num_boxes() != b.num_boxes())
    return ::testing::AssertionFailure()
           << "num_boxes " << a.num_boxes() << " vs " << b.num_boxes();
  for (int64_t i = 0; i < a.num_boxes(); ++i) {
    auto ba = a.Box(i);
    auto bb = b.Box(i);
    for (size_t k = 0; k < ba.size(); ++k) {
      if (!(ba[k] == bb[k]))
        return ::testing::AssertionFailure()
               << "box " << i << " attr " << k << ": [" << ba[k].lo << ","
               << ba[k].hi << "] vs [" << bb[k].lo << "," << bb[k].hi << "]";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Canonically sorted box list (set/multiset comparison for the oracle,
/// which emits in row order while the index probe emits in sorted-lo order).
std::vector<std::vector<Interval>> SortedBoxes(const BoxTable& t) {
  std::vector<std::vector<Interval>> boxes;
  boxes.reserve(static_cast<size_t>(t.num_boxes()));
  for (int64_t i = 0; i < t.num_boxes(); ++i) {
    auto b = t.Box(i);
    boxes.emplace_back(b.begin(), b.end());
  }
  std::sort(boxes.begin(), boxes.end(),
            [](const std::vector<Interval>& a, const std::vector<Interval>& b) {
              for (size_t k = 0; k < a.size(); ++k) {
                if (a[k].lo != b[k].lo) return a[k].lo < b[k].lo;
                if (a[k].hi != b[k].hi) return a[k].hi < b[k].hi;
              }
              return false;
            });
  return boxes;
}

/// Naive branchy backward join, independent of the index: scans every row
/// per query box in row order.
std::vector<std::vector<Interval>> BruteForceBackward(
    const BoxTable& query, const CompressedTableView& t) {
  const int32_t l = t.out_ndim;
  const int32_t m = t.in_ndim;
  const int64_t w = t.stride();
  std::vector<std::vector<Interval>> out;
  for (int64_t qb = 0; qb < query.num_boxes(); ++qb) {
    auto q = query.Box(qb);
    for (int64_t r = 0; r < t.num_rows; ++r) {
      const int64_t* row_lo = t.lo + r * w;
      const int64_t* row_hi = t.hi + r * w;
      std::vector<Interval> ti(static_cast<size_t>(l));
      bool hit = true;
      for (int32_t k = 0; k < l && hit; ++k) {
        ti[static_cast<size_t>(k)] = {
            std::max(q[static_cast<size_t>(k)].lo, row_lo[k]),
            std::min(q[static_cast<size_t>(k)].hi, row_hi[k])};
        hit = ti[static_cast<size_t>(k)].lo <= ti[static_cast<size_t>(k)].hi;
      }
      if (!hit) continue;
      std::vector<Interval> box(static_cast<size_t>(m));
      const int32_t* refs = t.ref + r * m;
      for (int32_t i = 0; i < m; ++i) {
        if (refs[i] >= 0) {
          const Interval& base = ti[static_cast<size_t>(refs[i])];
          box[static_cast<size_t>(i)] = {base.lo + row_lo[l + i],
                                         base.hi + row_hi[l + i]};
        } else {
          box[static_cast<size_t>(i)] = {row_lo[l + i], row_hi[l + i]};
        }
      }
      out.push_back(std::move(box));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const std::vector<Interval>& a, const std::vector<Interval>& b) {
              for (size_t k = 0; k < a.size(); ++k) {
                if (a[k].lo != b[k].lo) return a[k].lo < b[k].lo;
                if (a[k].hi != b[k].hi) return a[k].hi < b[k].hi;
              }
              return false;
            });
  return out;
}

/// The micro-bench's wide table (l=2, m=3): out attr 0 tiles [0, 4*rows) in
/// width-4 strips, so a probe of width W overlaps ~W/4 rows — selectivity
/// is directly controllable.
CompressedTable MakeWideTable(int64_t rows, uint64_t seed) {
  const int64_t domain = rows * 4;
  CompressedTable table({domain, 64}, {domain, 64, 16});
  Rng rng(seed);
  CompressedRow row;
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t base = r * 4;
    row.out = {{base, base + 3}, {rng.UniformRange(0, 60), 0}};
    row.out[1].hi = row.out[1].lo + 3;
    row.in = {InputCell::Relative(0, {rng.UniformRange(-2, 2),
                                      rng.UniformRange(3, 5)}),
              InputCell::Absolute({rng.UniformRange(0, 32), 0}),
              InputCell::Absolute({rng.UniformRange(0, 12), 0})};
    row.in[1].iv.hi = row.in[1].iv.lo + rng.UniformRange(0, 8);
    row.in[2].iv.hi = row.in[2].iv.lo + rng.UniformRange(0, 3);
    table.AddRow(row);
  }
  return table;
}

/// Query at a target selectivity: probe width = frac * domain.
BoxTable MakeSweepQuery(int64_t rows, double frac, uint64_t seed) {
  const int64_t domain = rows * 4;
  const int64_t width = std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(domain) * frac));
  Rng rng(seed);
  BoxTable q(2);
  for (int i = 0; i < 12; ++i) {
    Interval box[2] = {{0, 0}, {0, 63}};
    box[0].lo = rng.UniformRange(0, std::max<int64_t>(0, domain - width));
    box[0].hi = box[0].lo + width - 1;
    q.AddBox(box);
  }
  return q;
}

constexpr double kSelectivities[] = {0.001, 0.01, 0.1, 0.5, 1.0};

TEST(AccessPathTest, AllPathsEmitIdenticalRowsInIdenticalOrder) {
  // The tree probe emits every overlapping row exactly once, in
  // nondecreasing-lo order, and exactly the rows brute force finds.
  Rng rng(42);
  for (int64_t n : {0ll, 1ll, 3ll, 64ll, 257ll, 1000ll}) {
    std::vector<int64_t> lo(static_cast<size_t>(std::max<int64_t>(1, n)));
    std::vector<int64_t> hi(lo.size());
    for (int64_t i = 0; i < n; ++i) {
      lo[static_cast<size_t>(i)] = rng.UniformRange(0, 500);
      hi[static_cast<size_t>(i)] =
          lo[static_cast<size_t>(i)] + rng.UniformRange(0, 40);
    }
    IntervalIndex index(lo.data(), hi.data(), n, 1);
    for (int p = 0; p < 200; ++p) {
      Interval probe{rng.UniformRange(-50, 550), 0};
      probe.hi = probe.lo + rng.UniformRange(0, 120);
      std::vector<int64_t> got;
      index.ForEachOverlapping(probe, [&](int64_t r) { got.push_back(r); });
      std::vector<int64_t> brute;
      for (int64_t r = 0; r < n; ++r)
        if (lo[static_cast<size_t>(r)] <= probe.hi &&
            hi[static_cast<size_t>(r)] >= probe.lo)
          brute.push_back(r);
      for (size_t k = 1; k < got.size(); ++k)
        ASSERT_LE(lo[static_cast<size_t>(got[k - 1])],
                  lo[static_cast<size_t>(got[k])])
            << "n=" << n << " probe=[" << probe.lo << "," << probe.hi << "]";
      std::vector<int64_t> sorted = got;
      std::sort(sorted.begin(), sorted.end());
      ASSERT_EQ(sorted, brute)
          << "n=" << n << " probe=[" << probe.lo << "," << probe.hi << "]";
    }
  }
}

TEST(JoinPathSweepTest, BackwardJoinBitIdenticalAcrossPathsAndOracle) {
  // Across a selectivity sweep: the unmerged join equals the brute-force
  // oracle as a set, and the owned-table overload, the view overload with
  // an ephemeral index and the profiled call all return the same rows in
  // the same order per (query, num_threads, merge).
  for (int64_t rows : {257ll, 4096ll}) {
    CompressedTable table = MakeWideTable(rows, 99);
    for (double frac : kSelectivities) {
      BoxTable q = MakeSweepQuery(rows, frac, 7);
      const auto oracle = BruteForceBackward(q, table.view());
      for (int num_threads : {1, 4}) {
        for (bool merge : {false, true}) {
          const BoxTable reference =
              BackwardThetaJoin(q, table, num_threads, merge);
          if (!merge) {
            EXPECT_EQ(SortedBoxes(reference), oracle)
                << "rows=" << rows << " frac=" << frac
                << " threads=" << num_threads;
          }
          JoinCounters counters;
          EXPECT_TRUE(SameTable(
              BackwardThetaJoin(q, table.view(), nullptr, num_threads, merge,
                                &counters),
              reference))
              << "rows=" << rows << " frac=" << frac
              << " threads=" << num_threads << " merge=" << merge;
          EXPECT_EQ(counters.probes.load(), q.num_boxes());
        }
      }
    }
  }
}

TEST(JoinPathSweepTest, ForwardJoinBitIdenticalAcrossPaths) {
  // The direct forward join and the materialized ForwardTable probe the
  // same input-attribute-0 column, so they return the same rows in the same
  // order; profiling must not change either.
  for (int64_t rows : {257ll, 2048ll}) {
    CompressedTable table = MakeWideTable(rows, 77);
    ForwardTable fwd = ForwardTable::FromBackward(table.view());
    for (double frac : kSelectivities) {
      // Forward queries probe the input side (3 attrs; attr 0 spans the
      // same domain as out attr 0, shifted by the relative deltas).
      const int64_t domain = rows * 4;
      const int64_t width = std::max<int64_t>(
          1, static_cast<int64_t>(static_cast<double>(domain) * frac));
      Rng rng(13);
      BoxTable q(3);
      for (int i = 0; i < 8; ++i) {
        Interval box[3] = {{0, 0}, {0, 63}, {0, 15}};
        box[0].lo = rng.UniformRange(0, std::max<int64_t>(0, domain - width));
        box[0].hi = box[0].lo + width - 1;
        q.AddBox(box);
      }
      for (int num_threads : {1, 4}) {
        const BoxTable direct = ForwardThetaJoin(q, table, num_threads, false);
        EXPECT_TRUE(SameTable(fwd.Join(q, num_threads, false), direct))
            << "rows=" << rows << " frac=" << frac
            << " threads=" << num_threads;
        JoinCounters direct_counters, fwd_counters;
        EXPECT_TRUE(SameTable(ForwardThetaJoin(q, table.view(), num_threads,
                                               false, &direct_counters),
                              direct))
            << "direct rows=" << rows << " frac=" << frac
            << " threads=" << num_threads;
        EXPECT_TRUE(SameTable(fwd.Join(q, num_threads, false, &fwd_counters),
                              direct))
            << "fwd rows=" << rows << " frac=" << frac
            << " threads=" << num_threads;
        EXPECT_EQ(direct_counters.rows_scanned.load(),
                  fwd_counters.rows_scanned.load());
      }
    }
  }
}

}  // namespace
}  // namespace dslog
