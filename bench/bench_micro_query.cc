// Micro-benchmarks (google-benchmark) for the query kernels: ProvRC
// compression itself, backward/forward θ-joins, and box-table merging.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "array/ndarray.h"
#include "array/op.h"
#include "array/op_registry.h"
#include "bench_util.h"
#include "common/random.h"
#include "common/simd.h"
#include "provrc/provrc.h"
#include "query/box.h"
#include "query/theta_join.h"
#include "storage/signatures.h"

namespace dslog {
namespace {

LineageRelation MakeSortLineage(int64_t n) {
  Rng rng(4);
  NDArray x = NDArray::Random({n}, &rng);
  const ArrayOp* op = OpRegistry::Global().Find("sort");
  NDArray out = op->Apply({&x}, OpArgs()).ValueOrDie();
  return std::move(op->Capture({&x}, out, OpArgs()).ValueOrDie()[0]);
}

LineageRelation MakeAggregateLineage(int64_t rows) {
  Rng rng(5);
  NDArray x = NDArray::Random({rows, 100}, &rng);
  OpArgs args;
  args.SetInt("axis", 1);
  const ArrayOp* op = OpRegistry::Global().Find("sum");
  NDArray out = op->Apply({&x}, args).ValueOrDie();
  return std::move(op->Capture({&x}, out, args).ValueOrDie()[0]);
}

void BM_ProvRcCompressStructured(benchmark::State& state) {
  LineageRelation rel = MakeAggregateLineage(state.range(0));
  for (auto _ : state) {
    CompressedTable t = ProvRcCompress(rel);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations() * rel.num_rows());
}
BENCHMARK(BM_ProvRcCompressStructured)->Arg(100)->Arg(1000);

void BM_ProvRcCompressUnstructured(benchmark::State& state) {
  LineageRelation rel = MakeSortLineage(state.range(0));
  for (auto _ : state) {
    CompressedTable t = ProvRcCompress(rel);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations() * rel.num_rows());
}
BENCHMARK(BM_ProvRcCompressUnstructured)->Arg(1 << 12)->Arg(1 << 15);

void BM_BackwardThetaJoin(benchmark::State& state) {
  // Unstructured table (many rows) joined with a moderate query.
  CompressedTable table = ProvRcCompress(MakeSortLineage(state.range(0)));
  Rng rng(6);
  std::vector<int64_t> cells;
  for (int i = 0; i < 64; ++i) cells.push_back(rng.UniformRange(0, state.range(0) - 1));
  BoxTable q = BoxTable::FromCells(1, cells);
  for (auto _ : state) {
    BoxTable r = BackwardThetaJoin(q, table);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * table.num_rows());
}
BENCHMARK(BM_BackwardThetaJoin)->Arg(1 << 12)->Arg(1 << 15);

// The wide-table case: many rows, multi-attribute (l=2, m=3), built
// directly so row count and interval spread are controlled. Backward joins
// over it are the headline kernel for the columnar layout + interval index.
CompressedTable MakeWideTable(int64_t rows) {
  const int64_t domain = rows * 4;
  CompressedTable table({domain, 64}, {domain, 64, 16});
  Rng rng(9);
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

void BM_BackwardThetaJoinWide(benchmark::State& state) {
  CompressedTable table = MakeWideTable(state.range(0));
  const int64_t domain = state.range(0) * 4;
  Rng rng(10);
  BoxTable q(2);
  for (int i = 0; i < 64; ++i) {
    Interval box[2] = {{0, 0}, {0, 63}};
    box[0].lo = rng.UniformRange(0, domain - 16);
    box[0].hi = box[0].lo + 15;
    q.AddBox(box);
  }
  for (auto _ : state) {
    BoxTable r = BackwardThetaJoin(q, table);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * table.num_rows());
}
BENCHMARK(BM_BackwardThetaJoinWide)->Arg(1 << 12)->Arg(1 << 15);

void BM_ForwardThetaJoin(benchmark::State& state) {
  CompressedTable table = ProvRcCompress(MakeSortLineage(state.range(0)));
  Rng rng(7);
  std::vector<int64_t> cells;
  for (int i = 0; i < 64; ++i) cells.push_back(rng.UniformRange(0, state.range(0) - 1));
  BoxTable q = BoxTable::FromCells(1, cells);
  for (auto _ : state) {
    BoxTable r = ForwardThetaJoin(q, table);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * table.num_rows());
}
BENCHMARK(BM_ForwardThetaJoin)->Arg(1 << 12)->Arg(1 << 15);

// ------------------------------------------------- reuse-predictor keys --
//
// A Predict hashes the op arguments once, builds the dim key into a
// reserved string and probes the signature map (then the gen key on a
// dim miss).

constexpr int64_t kPredictorOps = 512;

std::string PredictorOpName(int64_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "op%05lld", static_cast<long long>(i));
  return buf;
}

/// Predictor with kPredictorOps promoted dim/gen signatures (each op
/// registered twice with identical lineage, the §VI.C m = 1 promotion).
ReusePredictor MakePromotedPredictor() {
  LineageRelation rel(1, 1);
  rel.set_shapes({4}, {4});
  rel.mutable_flat() = {0, 0};
  const std::vector<CompressedTable> tables = {ProvRcCompress(rel)};
  ReusePredictor p;
  for (int64_t i = 0; i < kPredictorOps; ++i) {
    OpArgs args;
    args.SetInt("k", i);
    for (int rep = 0; rep < 2; ++rep)
      p.ProcessRegistration(PredictorOpName(i), args, {{4}}, {4},
                            /*content_hash=*/static_cast<uint64_t>(i), tables);
  }
  return p;
}

// range(0): 0 = promoted hit, 1 = absent op (miss).
void BM_PredictorPredict(benchmark::State& state) {
  const ReusePredictor p = MakePromotedPredictor();
  const bool miss = state.range(0) == 1;
  std::vector<OpArgs> args(static_cast<size_t>(kPredictorOps));
  std::vector<std::string> ops(static_cast<size_t>(kPredictorOps));
  for (int64_t i = 0; i < kPredictorOps; ++i) {
    args[static_cast<size_t>(i)].SetInt("k", i);
    ops[static_cast<size_t>(i)] =
        miss ? "absent" + PredictorOpName(i) : PredictorOpName(i);
  }
  int64_t i = 0;
  for (auto _ : state) {
    const auto idx = static_cast<size_t>(i++ % kPredictorOps);
    auto tables = p.Predict(ops[idx], args[idx], {{4}}, {4});
    benchmark::DoNotOptimize(tables);
  }
  state.SetLabel(miss ? "miss" : "hit");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictorPredict)->ArgName("miss")->Arg(0)->Arg(1);

void BM_BoxTableMerge(benchmark::State& state) {
  Rng rng(8);
  for (auto _ : state) {
    state.PauseTiming();
    BoxTable t(2);
    for (int64_t i = 0; i < state.range(0); ++i) {
      Interval box[2] = {Interval::Point(rng.UniformRange(0, 99)),
                         Interval::Point(rng.UniformRange(0, 99))};
      t.AddBox(box);
    }
    state.ResumeTiming();
    t.Merge();
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BoxTableMerge)->Arg(1 << 10)->Arg(1 << 14);

}  // namespace
}  // namespace dslog

// Custom main instead of BENCHMARK_MAIN(): stamps the dslog build type and
// SIMD ISA into the benchmark context so every emitted JSON/console report
// says what was actually measured (the library_build_type field describes
// the libbenchmark package, not this code).
int main(int argc, char** argv) {
  benchmark::AddCustomContext("dslog_build_type", dslog::bench::kBuildType);
  benchmark::AddCustomContext("dslog_simd_isa", dslog::simd::kIsaName);
  if (dslog::bench::kDebugBuild) {
    std::fprintf(stderr,
                 "WARNING: dslog compiled without NDEBUG; these numbers are "
                 "not comparable to release measurements\n");
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
