// Batched lineage-query throughput versus thread count: registers the three
// Fig-8 workflows (image, relational, ResNet) in one DSLog catalog, builds a
// mixed batch of forward and backward path queries over them, and measures
// DSLog::ProvQueryBatch throughput at 1/2/4/8 threads. Emits the
// machine-readable BENCH_concurrency.json baseline (override with
// `--json <path>`) so the perf trajectory can be regressed against.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/timer.h"
#include "query/box.h"
#include "storage/dslog.h"

using namespace dslog;
using namespace dslog::bench;

namespace {

struct QueryBatch {
  std::vector<std::vector<std::string>> paths;
  std::vector<BoxTable> queries;
};

// Registers a workflow's chain into `log` with arrays named
// "<wf.name>_<i>" and appends forward + backward queries over it.
void AddWorkflow(const Workflow& wf, int64_t forward_queries_per_selectivity,
                 DSLog* log, QueryBatch* batch, Rng* rng) {
  std::vector<std::string> names;
  names.reserve(wf.array_names.size());
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

  int64_t total_cells = 1;
  for (int64_t d : wf.shapes[0]) total_cells *= d;
  const int qdim = static_cast<int>(wf.shapes[0].size());

  // Forward full-path queries at the Fig-8 selectivities.
  for (double sel : {0.0005, 0.005, 0.05}) {
    for (int64_t k = 0; k < forward_queries_per_selectivity; ++k) {
      int64_t count = std::max<int64_t>(
          1, static_cast<int64_t>(sel * static_cast<double>(total_cells)));
      batch->paths.push_back(names);
      batch->queries.push_back(
          BoxTable::FromCells(qdim, SampleQueryCells(wf, count, rng)));
    }
  }
  // Backward full-path queries from a sampled box of the last array.
  const std::vector<int64_t>& last_shape = wf.shapes.back();
  for (int64_t k = 0; k < forward_queries_per_selectivity; ++k) {
    std::vector<Interval> box;
    for (int64_t d : last_shape) {
      int64_t lo = rng->UniformRange(0, std::max<int64_t>(0, d - 1));
      int64_t hi = std::min<int64_t>(d - 1, lo + std::max<int64_t>(1, d / 8));
      box.push_back({lo, hi});
    }
    batch->paths.push_back(
        std::vector<std::string>(names.rbegin(), names.rend()));
    batch->queries.push_back(BoxTable::FromBox(std::move(box)));
  }
}

}  // namespace

int main(int argc, char** argv) {
  JsonReporter json("scale_concurrency", argc, argv, "BENCH_concurrency.json");
  int64_t queries_per_bucket = 8;
  double min_seconds = 1.0;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--queries-per-bucket") == 0)
      queries_per_bucket = std::atoll(argv[i + 1]);
    if (std::strcmp(argv[i], "--min-seconds") == 0)
      min_seconds = std::atof(argv[i + 1]);
  }

  std::printf("=== Batched query throughput vs threads (Fig-8 workflows) ===\n\n");

  const int num_cpus = static_cast<int>(std::thread::hardware_concurrency());
  const int max_threads = 8;  // widest row of the sweep below
  const bool degraded_host = num_cpus < max_threads;
  if (degraded_host) {
    std::printf(
        "*** WARNING: this host reports %d CPU(s) but the sweep runs up to\n"
        "*** %d threads. Speedup rows beyond %d threads measure scheduler\n"
        "*** contention, NOT scaling — the JSON is tagged degraded_host so\n"
        "*** these numbers cannot masquerade as a scaling result. Re-run on\n"
        "*** a >= %d-core machine for a meaningful curve.\n\n",
        num_cpus, max_threads, std::max(1, num_cpus), max_threads);
    json.TopBool("degraded_host", true);
  }

  DSLog log;
  QueryBatch batch;
  Rng rng(20240729);

  auto image = BuildImageWorkflow(96, 96, 81);
  DSLOG_CHECK(image.ok()) << image.status().ToString();
  AddWorkflow(image.value(), queries_per_bucket, &log, &batch, &rng);

  auto relational = BuildRelationalWorkflow(20000, 12000, 82);
  DSLOG_CHECK(relational.ok()) << relational.status().ToString();
  AddWorkflow(relational.value(), queries_per_bucket, &log, &batch, &rng);

  auto resnet = BuildResNetWorkflow(40, 40, 83);
  DSLOG_CHECK(resnet.ok()) << resnet.status().ToString();
  AddWorkflow(resnet.value(), queries_per_bucket, &log, &batch, &rng);

  const int64_t entries = static_cast<int64_t>(batch.paths.size());
  std::printf("batch: %lld path queries over 3 workflows, storage %lld bytes\n\n",
              static_cast<long long>(entries),
              static_cast<long long>(log.StorageFootprintBytes()));
  std::printf("%8s %10s %12s %12s %10s\n", "threads", "reps", "seconds",
              "queries/s", "speedup");
  PrintRule(58);

  double qps_1 = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    QueryOptions options;
    options.num_threads = threads;
    // Warmup (also validates the batch: every entry must succeed).
    {
      auto r = log.ProvQueryBatch(batch.paths, batch.queries, options);
      DSLOG_CHECK(r.ok()) << r.status().ToString();
      DSLOG_CHECK(static_cast<int64_t>(r.value().size()) == entries);
    }
    // Reset the registry so the per-bucket record carries only this thread
    // count's fan-out width (the document-level "metrics" block then
    // reflects the last bucket — each row's numbers live in its record).
    metrics::Registry::Global().Reset();
    WallTimer timer;
    int64_t reps = 0;
    do {
      auto r = log.ProvQueryBatch(batch.paths, batch.queries, options);
      DSLOG_CHECK(r.ok()) << r.status().ToString();
      ++reps;
    } while (timer.ElapsedSeconds() < min_seconds);
    const double seconds = timer.ElapsedSeconds();
    const metrics::RegistrySnapshot snap =
        metrics::Registry::Global().Snapshot();
    const double qps =
        static_cast<double>(entries * reps) / seconds;
    if (threads == 1) qps_1 = qps;
    const double speedup = qps_1 > 0 ? qps / qps_1 : 0.0;
    std::printf("%8d %10lld %12.4f %12.1f %9.2fx\n", threads,
                static_cast<long long>(reps), seconds, qps, speedup);
    auto& rec = json.Add();
    rec.Num("threads", threads)
        .Num("batch_entries", static_cast<double>(entries))
        .Num("reps", static_cast<double>(reps))
        .Num("seconds", seconds)
        .Num("qps", qps)
        .Num("speedup_vs_1", speedup);
    if (const auto* width = snap.FindHistogram("dslog.query.batch_width"))
      rec.Num("batch_width", width->Mean());
  }

  std::printf(
      "\nShape: each batch entry runs on one thread as an independent\n"
      "shared-lock reader, so throughput grows with threads until the cores\n"
      "run out and stays flat beyond them. The bench-concurrency CI job\n"
      "fails when the 4-thread row's speedup_vs_1 is below 1.5x.\n");
  return 0;
}
