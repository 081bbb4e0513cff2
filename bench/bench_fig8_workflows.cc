// Reproduces ICDE'24 Fig 8 (A, B, C): forward query latency versus query
// selectivity over three workflows — (A) the image/CV-debugging pipeline,
// (B) the relational pre-processing pipeline, (C) a ResNet block — for
// DSLog (in-situ over ProvRC-GZip) against Parquet, Parquet-GZip, Turbo-RC
// and the vectorized Array baseline.

#include <cstdio>

#include "bench_util.h"
#include "common/strings.h"

using namespace dslog;
using namespace dslog::bench;

namespace {

constexpr double kTimeoutSeconds = 30.0;

void RunWorkflow(const Workflow& wf, JsonReporter* json) {
  std::printf("--- %s workflow (%zu steps, first array %s cells) ---\n",
              wf.name.c_str(), wf.steps.size(),
              JoinInts(wf.shapes[0], "x").c_str());
  PreparedWorkflow prep = PrepareWorkflow(wf);
  auto formats = MakeAllBaselineFormats();

  int64_t total_cells = 1;
  for (int64_t d : wf.shapes[0]) total_cells *= d;

  std::printf("%12s %10s | %10s %10s %10s %10s %10s\n", "selectivity",
              "cells", "DSLog", "Parquet", "Parq-GZip", "Turbo-RC", "Array");
  PrintRule(94);
  Rng rng(88);
  for (double sel : {0.0005, 0.005, 0.05, 0.25}) {
    int64_t count = std::max<int64_t>(1, static_cast<int64_t>(
                                             sel * static_cast<double>(total_cells)));
    std::vector<int64_t> cells = SampleQueryCells(wf, count, &rng);
    int qdim = static_cast<int>(wf.shapes[0].size());

    // DSLog pays its decode per query, as the baselines do.
    double decode_s = 0.0;
    const std::vector<CompressedTable> tables =
        DecodeDSLogTables(prep.dslog_buffers, &decode_s);
    double dslog_s =
        decode_s + QueryDSLog(tables, cells, qdim, /*merge=*/true);
    // Formats: index 2 = Parquet, 3 = Parquet-GZip, 4 = Turbo-RC.
    double parquet_s = QueryBaselineFormat(*formats[2], prep.format_buffers[2],
                                           cells, kTimeoutSeconds);
    double pgzip_s = QueryBaselineFormat(*formats[3], prep.format_buffers[3],
                                         cells, kTimeoutSeconds);
    double turbo_s = QueryBaselineFormat(*formats[4], prep.format_buffers[4],
                                         cells, kTimeoutSeconds);
    double array_s = QueryArrayVectorized(prep.format_buffers[1], cells, qdim,
                                          kTimeoutSeconds);
    auto print = [](double s) {
      if (s < 0)
        std::printf(" %10s", "timeout");
      else
        std::printf(" %10.4f", s);
    };
    std::printf("%12.4f %10lld |", sel, static_cast<long long>(count));
    print(dslog_s);
    print(parquet_s);
    print(pgzip_s);
    print(turbo_s);
    print(array_s);
    std::printf("\n");
    json->Add()
        .Str("workflow", wf.name)
        .Num("selectivity", sel)
        .Num("query_cells", static_cast<double>(count))
        .Num("dslog_s", dslog_s)
        .Num("parquet_s", parquet_s)
        .Num("parquet_gzip_s", pgzip_s)
        .Num("turbo_rc_s", turbo_s)
        .Num("array_s", array_s);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  JsonReporter json("fig8_workflows", argc, argv);
  std::printf("=== Fig 8: query latency vs selectivity (seconds) ===\n\n");

  auto image = BuildImageWorkflow(128, 128, 81);
  DSLOG_CHECK(image.ok()) << image.status().ToString();
  RunWorkflow(image.value(), &json);

  auto relational = BuildRelationalWorkflow(40000, 25000, 82);
  DSLOG_CHECK(relational.ok()) << relational.status().ToString();
  RunWorkflow(relational.value(), &json);

  auto resnet = BuildResNetWorkflow(48, 48, 83);
  DSLOG_CHECK(resnet.ok()) << resnet.status().ToString();
  RunWorkflow(resnet.value(), &json);

  std::printf(
      "Expected shape (paper): DSLog lowest latency except possibly the most\n"
      "selective image queries; Array worst (timeouts on less selective\n"
      "queries); Turbo-RC pays full decompression; DSLog's advantage is\n"
      "largest on the highly regular ResNet workflow.\n");
  return 0;
}
