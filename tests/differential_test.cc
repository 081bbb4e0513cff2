// Randomized differential test: seeded random multi-hop pipelines over the
// op registry, registered into DSLog catalogs and queried in situ, compared
// cell-for-cell (expanded, deduped) against the UncompressedQuery ground
// truth — across query direction (forward, backward, mixed), the
// merge_between_hops knob, resident versus in-situ catalogs, and single
// ProvQuery versus a ProvQueryBatch fanned across 4 threads. This extends
// the hand-built equivalence cases in query_test.cc with pipeline-level
// randomized coverage.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "array/ndarray.h"
#include "array/op.h"
#include "array/op_registry.h"
#include "common/io.h"
#include "common/random.h"
#include "provrc/provrc.h"
#include "query/box.h"
#include "query/query_engine.h"
#include "query/theta_join.h"
#include "storage/dslog.h"
#include "storage/logstore.h"
#include "test_util.h"

namespace dslog {
namespace {

using test_util::GenerateDag;
using test_util::RandomDag;
using test_util::RegisterDag;
using test_util::SampleCells;
using test_util::ToTupleSet;
using test_util::TupleSet;

// Runs one path query against every catalog variant (in-memory and the
// save -> OpenInSitu leg), merged and unmerged, alone and as every entry of
// a 4-thread ProvQueryBatch, and compares the expanded, deduplicated cell
// set to the oracle.
struct LogVariant {
  const DSLog* log;
  const char* name;
};

void ExpectMatchesOracle(const std::vector<LogVariant>& variants,
                         const std::vector<std::string>& path,
                         const BoxTable& query,
                         const std::vector<RelationHop>& rhops,
                         const std::vector<int64_t>& query_cells,
                         int result_arity, const std::string& label) {
  const TupleSet want =
      ToTupleSet(UncompressedQuery(rhops, query_cells), result_arity);
  for (const LogVariant& variant : variants) {
    for (bool merge : {true, false}) {
      QueryOptions options;
      options.merge_between_hops = merge;
      auto got = variant.log->ProvQuery(path, query, options);
      ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
      EXPECT_EQ(ToTupleSet(got.value().ExpandToCells(), result_arity), want)
          << label << " variant=" << variant.name << " merge=" << merge;

      options.num_threads = 4;
      auto batch = variant.log->ProvQueryBatch(
          std::vector<std::vector<std::string>>(4, path),
          std::vector<BoxTable>(4, query), options);
      ASSERT_TRUE(batch.ok()) << label << ": " << batch.status().ToString();
      for (size_t i = 0; i < batch.value().size(); ++i)
        EXPECT_EQ(ToTupleSet(batch.value()[i].ExpandToCells(), result_arity),
                  want)
            << label << " variant=" << variant.name << " merge=" << merge
            << " batch entry " << i;
    }
  }
}

class DifferentialPipelineTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialPipelineTest, InSituMatchesUncompressedOracle) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  RandomDag dag = GenerateDag(seed);
  const int n = static_cast<int>(dag.rels.size());
  ASSERT_GE(n, 2) << "pipeline generation starved, seed " << seed;

  DSLog plain;
  ASSERT_TRUE(RegisterDag(dag, &plain).ok());

  // In-situ leg: persist the catalog as a LogStore file and serve the same
  // queries through the mapped, lazily-decoded path.
  const std::string store_path =
      ScratchDir() + "/differential_" + std::to_string(seed) + ".dsl";
  ASSERT_TRUE(plain.SaveLogStore(store_path).ok());
  auto insitu_opened = DSLog::OpenInSitu(store_path);
  ASSERT_TRUE(insitu_opened.ok()) << insitu_opened.status().ToString();
  const DSLog& insitu = insitu_opened.value();
  const std::vector<LogVariant> variants = {
      {&plain, "plain"}, {&insitu, "insitu"}};

  Rng rng(seed * 31 + 7);

  // Forward: x0 -> xn.
  {
    std::vector<int64_t> cells = SampleCells(dag.shapes[0], 8, &rng);
    BoxTable q =
        BoxTable::FromCells(static_cast<int>(dag.shapes[0].size()), cells);
    std::vector<RelationHop> rhops;
    for (int i = 0; i < n; ++i) rhops.push_back({&dag.rels[i], true});
    ExpectMatchesOracle(variants, dag.names, q, rhops, cells,
                        static_cast<int>(dag.shapes.back().size()),
                        "forward seed=" + std::to_string(seed));
  }

  // Backward: xn -> x0.
  {
    std::vector<int64_t> cells = SampleCells(dag.shapes.back(), 8, &rng);
    BoxTable q = BoxTable::FromCells(
        static_cast<int>(dag.shapes.back().size()), cells);
    std::vector<std::string> path(dag.names.rbegin(), dag.names.rend());
    std::vector<RelationHop> rhops;
    for (int i = n - 1; i >= 0; --i) rhops.push_back({&dag.rels[i], false});
    ExpectMatchesOracle(variants, path, q, rhops, cells,
                        static_cast<int>(dag.shapes[0].size()),
                        "backward seed=" + std::to_string(seed));
  }

  // Mixed direction: branch -> x_{branch_from} (backward) -> ... -> xn
  // (forward).
  if (dag.has_branch) {
    std::vector<int64_t> cells = SampleCells(dag.branch_shape, 8, &rng);
    BoxTable q =
        BoxTable::FromCells(static_cast<int>(dag.branch_shape.size()), cells);
    std::vector<std::string> path = {"branch"};
    std::vector<RelationHop> rhops = {{&dag.branch_rel, false}};
    for (int i = dag.branch_from; i < n; ++i) {
      path.push_back(dag.names[static_cast<size_t>(i)]);
      rhops.push_back({&dag.rels[i], true});
    }
    path.push_back(dag.names.back());
    ExpectMatchesOracle(variants, path, q, rhops, cells,
                        static_cast<int>(dag.shapes.back().size()),
                        "mixed seed=" + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialPipelineTest,
                         ::testing::Range(0, 12));

// ------------------------------------------------------ append vs save --

/// Registers `dag` with every array name prefixed, so several dags share
/// one catalog.
Status RegisterPrefixed(const RandomDag& dag, const std::string& prefix,
                        DSLog* log) {
  for (size_t i = 0; i < dag.names.size(); ++i)
    DSLOG_RETURN_IF_ERROR(
        log->DefineArray(prefix + dag.names[i], dag.shapes[i]));
  if (dag.has_branch)
    DSLOG_RETURN_IF_ERROR(
        log->DefineArray(prefix + "branch", dag.branch_shape));
  for (OperationRegistration& reg : dag.Registrations()) {
    reg.in_arrs[0] = prefix + reg.in_arrs[0];
    reg.out_arr = prefix + reg.out_arr;
    auto outcome = log->RegisterOperation(std::move(reg));
    if (!outcome.ok()) return outcome.status();
  }
  return Status::OK();
}

class AppendDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(AppendDifferentialTest, AppendPerPipelineEqualsOneSave) {
  // One store grows by an AppendLogStore after every pipeline (most of
  // whose edges are then skipped as already persisted); the other is one
  // SaveLogStore at the end. Both must hold the same bytes per edge and
  // the same predictor blob, and answer like the oracle.
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  const std::string base =
      ScratchDir() + "/append_diff_" + std::to_string(seed);
  const std::string appended_path = base + "_appended.dsl";
  const std::string saved_path = base + "_saved.dsl";
  std::vector<RandomDag> dags;
  for (uint64_t k = 0; k < 3; ++k) dags.push_back(GenerateDag(seed + 40 * k));

  DSLog log;
  ASSERT_TRUE(log.SaveLogStore(appended_path).ok());  // the empty store
  for (size_t k = 0; k < dags.size(); ++k) {
    ASSERT_TRUE(
        RegisterPrefixed(dags[k], "p" + std::to_string(k) + "_", &log).ok());
    ASSERT_TRUE(log.AppendLogStore(appended_path).ok());
  }
  ASSERT_TRUE(log.SaveLogStore(saved_path).ok());

  auto appended = LogStore::Open(appended_path);
  auto saved = LogStore::Open(saved_path);
  ASSERT_TRUE(appended.ok() && saved.ok());
  const LogStore& a = *appended.value();
  const LogStore& b = *saved.value();
  EXPECT_EQ(a.arrays(), b.arrays());
  EXPECT_EQ(a.predictor_state(), b.predictor_state());
  ASSERT_EQ(a.segment_count(), b.segment_count());
  for (size_t i = 0; i < b.segment_count(); ++i) {
    const LogStore::SegmentInfo want = b.segment_info(i);
    auto id = a.FindSegmentId(want.in_arr, want.out_arr);
    ASSERT_TRUE(id.ok());
    ASSERT_GE(id.value(), 0) << want.in_arr << " -> " << want.out_arr;
    const LogStore::SegmentInfo got =
        a.segment_info(static_cast<size_t>(id.value()));
    EXPECT_EQ(got.layout, want.layout) << want.in_arr << " -> " << want.out_arr;
    EXPECT_EQ(got.length, want.length) << want.in_arr << " -> " << want.out_arr;
    EXPECT_EQ(got.checksum, want.checksum)
        << want.in_arr << " -> " << want.out_arr;
    EXPECT_EQ(a.SegmentView(static_cast<size_t>(id.value())),
              b.SegmentView(i));
  }

  auto appended_log = DSLog::OpenInSitu(appended_path);
  auto saved_log = DSLog::OpenInSitu(saved_path);
  ASSERT_TRUE(appended_log.ok() && saved_log.ok());
  const std::vector<LogVariant> variants = {
      {&appended_log.value(), "appended"}, {&saved_log.value(), "saved"}};
  Rng rng(seed * 17 + 3);
  for (size_t k = 0; k < dags.size(); ++k) {
    const RandomDag& dag = dags[k];
    const int n = static_cast<int>(dag.rels.size());
    if (n == 0) continue;
    const std::string prefix = "p" + std::to_string(k) + "_";
    std::vector<std::string> path;
    for (const std::string& name : dag.names) path.push_back(prefix + name);
    {
      std::vector<int64_t> cells = SampleCells(dag.shapes[0], 8, &rng);
      BoxTable q =
          BoxTable::FromCells(static_cast<int>(dag.shapes[0].size()), cells);
      std::vector<RelationHop> rhops;
      for (int i = 0; i < n; ++i) rhops.push_back({&dag.rels[i], true});
      ExpectMatchesOracle(variants, path, q, rhops, cells,
                          static_cast<int>(dag.shapes.back().size()),
                          "append forward dag=" + std::to_string(k));
    }
    {
      std::vector<int64_t> cells = SampleCells(dag.shapes.back(), 8, &rng);
      BoxTable q = BoxTable::FromCells(
          static_cast<int>(dag.shapes.back().size()), cells);
      std::vector<std::string> back(path.rbegin(), path.rend());
      std::vector<RelationHop> rhops;
      for (int i = n - 1; i >= 0; --i) rhops.push_back({&dag.rels[i], false});
      ExpectMatchesOracle(variants, back, q, rhops, cells,
                          static_cast<int>(dag.shapes[0].size()),
                          "append backward dag=" + std::to_string(k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AppendDifferentialTest, ::testing::Range(0, 6));

// ---------------------------------------------------------- AoS join oracle --

// Reference θ-joins over materialized array-of-structs rows — a direct
// port of the pre-columnar kernels (per-row vectors, linear scan, no
// interval index). The SoA kernels must stay set-equal to these on every
// hop of the randomized pipelines, in both directions.
BoxTable AosBackwardJoin(const BoxTable& query,
                         const std::vector<CompressedRow>& rows, int l,
                         int m) {
  BoxTable result(m);
  std::vector<Interval> t(static_cast<size_t>(l));
  std::vector<Interval> out_box(static_cast<size_t>(m));
  for (int64_t qb = 0; qb < query.num_boxes(); ++qb) {
    auto q = query.Box(qb);
    for (const CompressedRow& row : rows) {
      bool hit = true;
      for (int k = 0; k < l && hit; ++k) {
        t[static_cast<size_t>(k)] =
            q[static_cast<size_t>(k)].Intersect(row.out[static_cast<size_t>(k)]);
        hit = t[static_cast<size_t>(k)].valid();
      }
      if (!hit) continue;
      for (int i = 0; i < m; ++i) {
        const InputCell& cell = row.in[static_cast<size_t>(i)];
        out_box[static_cast<size_t>(i)] =
            cell.is_relative() ? t[static_cast<size_t>(cell.ref)].ShiftBy(cell.iv)
                               : cell.iv;
      }
      result.AddBox(out_box);
    }
  }
  return result;
}

BoxTable AosForwardJoin(const BoxTable& query,
                        const std::vector<CompressedRow>& rows, int l, int m) {
  BoxTable result(l);
  std::vector<Interval> t(static_cast<size_t>(m));
  std::vector<Interval> out_box(static_cast<size_t>(l));
  auto implied = [](const CompressedRow& row, int i) {
    const InputCell& cell = row.in[static_cast<size_t>(i)];
    return cell.is_relative()
               ? row.out[static_cast<size_t>(cell.ref)].ShiftBy(cell.iv)
               : cell.iv;
  };
  for (int64_t qb = 0; qb < query.num_boxes(); ++qb) {
    auto q = query.Box(qb);
    for (const CompressedRow& row : rows) {
      bool hit = true;
      for (int i = 0; i < m && hit; ++i) {
        t[static_cast<size_t>(i)] =
            q[static_cast<size_t>(i)].Intersect(implied(row, i));
        hit = t[static_cast<size_t>(i)].valid();
      }
      if (!hit) continue;
      for (int j = 0; j < l; ++j)
        out_box[static_cast<size_t>(j)] = row.out[static_cast<size_t>(j)];
      bool feasible = true;
      for (int i = 0; i < m && feasible; ++i) {
        const InputCell& cell = row.in[static_cast<size_t>(i)];
        if (!cell.is_relative()) continue;
        const Interval& ti = t[static_cast<size_t>(i)];
        Interval& target = out_box[static_cast<size_t>(cell.ref)];
        target = target.Intersect({ti.lo - cell.iv.hi, ti.hi - cell.iv.lo});
        feasible = target.valid();
      }
      if (!feasible) continue;
      result.AddBox(out_box);
    }
  }
  return result;
}

class SoAVsAosJoinTest : public ::testing::TestWithParam<int> {};

TEST_P(SoAVsAosJoinTest, KernelsMatchAosOracleOnRandomPipelines) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) + 100;
  RandomDag dag = GenerateDag(seed);
  ASSERT_GE(dag.rels.size(), 2u) << "pipeline generation starved, seed "
                                 << seed;
  Rng rng(seed * 101 + 3);

  for (size_t h = 0; h < dag.rels.size(); ++h) {
    CompressedTable table = ProvRcCompress(dag.rels[h]);
    const int l = table.out_ndim();
    const int m = table.in_ndim();
    std::vector<CompressedRow> rows;
    rows.reserve(static_cast<size_t>(table.num_rows()));
    for (int64_t r = 0; r < table.num_rows(); ++r) rows.push_back(table.Row(r));

    BoxTable back_q = BoxTable::FromCells(
        l, SampleCells(dag.shapes[h + 1], 6, &rng));
    BoxTable fwd_q =
        BoxTable::FromCells(m, SampleCells(dag.shapes[h], 6, &rng));
    const std::string label =
        "seed=" + std::to_string(seed) + " hop=" + std::to_string(h);

    for (bool merge : {true, false}) {
      BoxTable back = BackwardThetaJoin(back_q, table);
      BoxTable want_back = AosBackwardJoin(back_q, rows, l, m);
      if (merge) {
        back.Merge();
        want_back.Merge();
      }
      EXPECT_EQ(ToTupleSet(back.ExpandToCells(), m),
                ToTupleSet(want_back.ExpandToCells(), m))
          << label << " backward merge=" << merge;

      BoxTable fwd = ForwardThetaJoin(fwd_q, table);
      BoxTable want_fwd = AosForwardJoin(fwd_q, rows, l, m);
      if (merge) {
        fwd.Merge();
        want_fwd.Merge();
      }
      EXPECT_EQ(ToTupleSet(fwd.ExpandToCells(), l),
                ToTupleSet(want_fwd.ExpandToCells(), l))
          << label << " forward merge=" << merge;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoAVsAosJoinTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace dslog
