// Cold-open time-to-first-result: lazy in-situ LogStore queries versus an
// eager open that decodes the whole catalog first, across both segment
// layouts. Registers the three Fig-8 workflows (image, relational, ResNet)
// plus a population of Fig-9 random numpy workflows in one catalog (a
// serving catalog holds far more lineage than any one query touches),
// persists it twice — v1 ProvRC-GZip LogStore, v2 columnar LogStore — then
// measures, per Fig-8 workflow, how long a cold process takes to answer
// its first backward full-path query. The eager leg opens the gzip store
// and resolves every segment before querying (what a load-everything
// catalog pays); in-situ v1 gunzips only the path's segments; in-situ v2
// borrows them zero-copy from the mapping (bytes_decompressed and
// rows_materialized both 0). Emits the machine-readable BENCH_storage.json
// baseline (override with `--json <path>`).

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/io.h"
#include "common/timer.h"
#include "query/box.h"
#include "storage/dslog.h"

using namespace dslog;
using namespace dslog::bench;

namespace {

struct WorkflowPath {
  std::string name;
  std::vector<std::string> backward_path;  // last array -> first array
  BoxTable query;                          // one box over the last array
};

void RegisterWorkflow(const Workflow& wf, DSLog* log, WorkflowPath* out) {
  std::vector<std::string> names;
  for (size_t i = 0; i < wf.array_names.size(); ++i) {
    names.push_back(wf.name + "_" + std::to_string(i));
    Status st = log->DefineArray(names.back(), wf.shapes[i]);
    DSLOG_CHECK(st.ok()) << st.ToString();
  }
  for (size_t s = 0; s < wf.steps.size(); ++s) {
    OperationRegistration reg;
    reg.op_name = wf.steps[s].op_name;
    reg.in_arrs = {names[s]};
    reg.out_arr = names[s + 1];
    reg.captured.push_back(wf.steps[s].relation);
    reg.reuse = false;
    auto outcome = log->RegisterOperation(std::move(reg));
    DSLOG_CHECK(outcome.ok()) << outcome.status().ToString();
  }
  out->name = wf.name;
  out->backward_path.assign(names.rbegin(), names.rend());
  std::vector<Interval> box;
  for (int64_t d : wf.shapes.back())
    box.push_back({0, std::max<int64_t>(0, d / 8)});
  out->query = BoxTable::FromBox(std::move(box));
}

}  // namespace

int main(int argc, char** argv) {
  JsonReporter json("storage_insitu", argc, argv, "BENCH_storage.json");
  int reps = 5;
  int extra_workflows = 32;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0) reps = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--extra-workflows") == 0)
      extra_workflows = std::atoi(argv[i + 1]);
  }

  std::printf(
      "=== Cold-open first-query latency: in-situ vs eager open ===\n\n");

  DSLog log;
  std::vector<WorkflowPath> paths(3);
  {
    auto image = BuildImageWorkflow(96, 96, 81);
    DSLOG_CHECK(image.ok()) << image.status().ToString();
    RegisterWorkflow(image.value(), &log, &paths[0]);
    auto relational = BuildRelationalWorkflow(20000, 12000, 82);
    DSLOG_CHECK(relational.ok()) << relational.status().ToString();
    RegisterWorkflow(relational.value(), &log, &paths[1]);
    auto resnet = BuildResNetWorkflow(40, 40, 83);
    DSLOG_CHECK(resnet.ok()) << resnet.status().ToString();
    RegisterWorkflow(resnet.value(), &log, &paths[2]);
    // The rest of the catalog: random numpy pipelines nobody queries here.
    // The eager open still decompresses all of them before the first result.
    for (int i = 0; i < extra_workflows; ++i) {
      auto random = BuildRandomNumpyWorkflow(5, 30000, 9000 + i);
      DSLOG_CHECK(random.ok()) << random.status().ToString();
      Workflow wf = std::move(random).ValueOrDie();
      wf.name = "rand" + std::to_string(i);
      WorkflowPath unused;
      RegisterWorkflow(wf, &log, &unused);
    }
  }

  const std::string file_v1 = ScratchDir() + "/bench_storage_v1.dsl";
  const std::string file_v2 = ScratchDir() + "/bench_storage_v2.dsl";
  {
    Status st = log.SaveLogStore(file_v1, SegmentLayout::kProvRcGzip);
    DSLOG_CHECK(st.ok()) << st.ToString();
    st = log.SaveLogStore(file_v2);  // default layout = columnar
    DSLOG_CHECK(st.ok()) << st.ToString();
  }
  std::printf("catalog: 3 Fig-8 + %d random workflows, %lld segments\n"
              "on disk: gzip segments %lld bytes | v1 store %lld bytes | "
              "v2 columnar store %lld bytes\n\n",
              extra_workflows,
              static_cast<long long>(
                  DSLog::OpenInSitu(file_v1).ValueOrDie().log_store()->stats()
                      .segment_count),
              static_cast<long long>(log.StorageFootprintBytes()),
              static_cast<long long>(
                  DSLog::OpenInSitu(file_v1).ValueOrDie().log_store()
                      ->file_size()),
              static_cast<long long>(
                  DSLog::OpenInSitu(file_v2).ValueOrDie().log_store()
                      ->file_size()));

  // The eager leg keeps every decoded segment resident, as a catalog
  // loaded into memory would.
  InSituOptions eager_options;
  eager_options.store.cache_capacity_bytes =
      std::numeric_limits<int64_t>::max();

  std::printf("%-12s %11s %11s %11s %8s %8s %12s %10s\n", "workflow",
              "eager (s)", "v1 (s)", "v2 (s)", "v1 spd", "v2 spd",
              "v1 MB gunzip", "v2 rowsmat");
  PrintRule(92);

  for (const WorkflowPath& wp : paths) {
    double eager_s = 0.0, v1_s = 0.0, v2_s = 0.0;
    int64_t eager_bytes = 0, v1_bytes = 0, touched = 0, total_segs = 0;
    int64_t v2_rows_materialized = 0, v2_borrowed = 0;
    for (int r = 0; r < reps; ++r) {
      {
        WallTimer timer;
        auto cold = DSLog::OpenInSitu(file_v1, eager_options);
        DSLOG_CHECK(cold.ok()) << cold.status().ToString();
        // Gunzip every stored edge before the query can run.
        const LogStore& store = *cold.value().log_store();
        for (size_t id = 0; id < store.segment_count(); ++id) {
          auto pinned = store.View(id, /*forward=*/false);
          DSLOG_CHECK(pinned.ok()) << pinned.status().ToString();
        }
        auto got = cold.value().ProvQuery(wp.backward_path, wp.query);
        DSLOG_CHECK(got.ok()) << got.status().ToString();
        eager_s += timer.ElapsedSeconds();
        eager_bytes = store.stats().bytes_decompressed;
      }
      {
        WallTimer timer;
        auto cold = DSLog::OpenInSitu(file_v1);
        DSLOG_CHECK(cold.ok()) << cold.status().ToString();
        auto got = cold.value().ProvQuery(wp.backward_path, wp.query);
        DSLOG_CHECK(got.ok()) << got.status().ToString();
        v1_s += timer.ElapsedSeconds();
        LogStoreStats stats = cold.value().log_store()->stats();
        v1_bytes = stats.bytes_decompressed;
        touched = stats.segments_touched;
        total_segs = stats.segment_count;
      }
      {
        WallTimer timer;
        auto cold = DSLog::OpenInSitu(file_v2);
        DSLOG_CHECK(cold.ok()) << cold.status().ToString();
        auto got = cold.value().ProvQuery(wp.backward_path, wp.query);
        DSLOG_CHECK(got.ok()) << got.status().ToString();
        v2_s += timer.ElapsedSeconds();
        LogStoreStats stats = cold.value().log_store()->stats();
        v2_rows_materialized = stats.rows_materialized;
        v2_borrowed = stats.segments_borrowed;
        DSLOG_CHECK(stats.bytes_decompressed == 0)
            << "v2 store decompressed bytes";
      }
    }
    eager_s /= reps;
    v1_s /= reps;
    v2_s /= reps;
    const double v1_speedup = v1_s > 0 ? eager_s / v1_s : 0.0;
    const double v2_speedup = v2_s > 0 ? eager_s / v2_s : 0.0;
    std::printf("%-12s %11.5f %11.5f %11.5f %7.1fx %7.1fx %12.2f %10lld\n",
                wp.name.c_str(), eager_s, v1_s, v2_s, v1_speedup, v2_speedup,
                static_cast<double>(v1_bytes) / 1e6,
                static_cast<long long>(v2_rows_materialized));
    json.Add()
        .Str("workflow", wp.name)
        .Num("reps", reps)
        .Num("eager_open_query_s", eager_s)
        .Num("insitu_open_query_s", v1_s)
        .Num("insitu_v2_open_query_s", v2_s)
        .Num("speedup", v1_speedup)
        .Num("v2_speedup", v2_speedup)
        .Num("eager_bytes_decompressed", static_cast<double>(eager_bytes))
        .Num("insitu_bytes_decompressed", static_cast<double>(v1_bytes))
        .Num("v2_bytes_decompressed", 0.0)
        .Num("v2_rows_materialized", static_cast<double>(v2_rows_materialized))
        .Num("v2_segments_borrowed", static_cast<double>(v2_borrowed))
        .Num("segments_touched", static_cast<double>(touched))
        .Num("segment_count", static_cast<double>(total_segs));
  }

  std::printf(
      "\nExpected shape: OpenInSitu answers the first query >= 5x sooner than\n"
      "an eager open that decodes every segment first (it maps the file and\n"
      "resolves only the touched path). The v2 columnar store additionally\n"
      "decompresses zero bytes and materializes zero rows — its segments are\n"
      "scanned in place.\n");
  return 0;
}
