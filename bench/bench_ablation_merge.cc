// Ablation A1: effect of the between-hop projection + merge row reduction
// (§V.B.3, the DSLog vs DSLog-NoMerge gap in Fig 9). Reports per-hop
// intermediate box counts and end-to-end latency with the merge step on
// and off, over random numpy pipelines.
//
// Latencies are medians of --reps runs per configuration (default and
// minimum 21), with the two configurations interleaved so host drift hits
// both. The merge share is the median, over as many profiled runs, of the
// hops' HopProfile::merge_us over the query's wall time. Exits 1 if the
// merged and unmerged answers cover different cells.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "query/query_engine.h"
#include "query/theta_join.h"

using namespace dslog;
using namespace dslog::bench;

namespace {

constexpr int kMinReps = 21;

double TimeQuery(const std::vector<QueryHop>& hops, const BoxTable& q,
                 const QueryOptions& options) {
  WallTimer timer;
  InSituQuery(hops, q, options);
  return timer.ElapsedSeconds();
}

}  // namespace

int main(int argc, char** argv) {
  JsonReporter json("ablation_merge", argc, argv);
  int reps = kMinReps;
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], "--reps") == 0)
      reps = std::max(kMinReps, std::atoi(argv[i + 1]));
  std::printf("=== Ablation: θ-join merge step (on vs off) ===\n");
  std::printf("(median of %d interleaved runs per configuration)\n\n", reps);
  std::printf("%-10s %6s | %14s %15s | %10s %13s %8s | %11s\n", "workflow",
              "ops", "boxes(merge)", "boxes(no-merge)", "merge (ms)",
              "no-merge (ms)", "speedup", "merge share");
  PrintRule(104);

  int mismatches = 0;
  for (int w = 0; w < 6; ++w) {
    auto wfr =
        BuildRandomNumpyWorkflow(8, 20000, static_cast<uint64_t>(500 + w));
    if (!wfr.ok()) continue;
    const Workflow& wf = wfr.value();
    std::vector<CompressedTable> tables;
    for (const auto& step : wf.steps)
      tables.push_back(ProvRcCompress(step.relation));
    std::vector<QueryHop> hops;
    for (const auto& t : tables) hops.push_back({&t, true});

    Rng rng(static_cast<uint64_t>(w));
    std::vector<int64_t> cells = SampleQueryCells(wf, 4000, &rng);
    BoxTable q =
        BoxTable::FromCells(static_cast<int>(wf.shapes[0].size()), cells);

    QueryOptions merged_opts, unmerged_opts, profiled_opts;
    unmerged_opts.merge_between_hops = false;
    profiled_opts.profile = true;

    // Untimed first runs: the answer check, and warm caches for both sides.
    BoxTable with_merge = InSituQuery(hops, q, merged_opts);
    BoxTable without_merge = InSituQuery(hops, q, unmerged_opts);
    const bool same_cells =
        with_merge.ExpandToCells() == without_merge.ExpandToCells();
    if (!same_cells) ++mismatches;

    std::vector<double> merge_s, no_merge_s, share;
    for (int r = 0; r < reps; ++r) {
      if (r % 2 == 0) {
        merge_s.push_back(TimeQuery(hops, q, merged_opts));
        no_merge_s.push_back(TimeQuery(hops, q, unmerged_opts));
      } else {
        no_merge_s.push_back(TimeQuery(hops, q, unmerged_opts));
        merge_s.push_back(TimeQuery(hops, q, merged_opts));
      }
      QueryProfile profile;
      InSituQuery(hops, q, profiled_opts, &profile);
      int64_t merge_us = 0;
      for (const HopProfile& hp : profile.hops) merge_us += hp.merge_us;
      share.push_back(static_cast<double>(merge_us) /
                      std::max(1e-9, profile.wall_ms * 1e3));
    }
    const double merge_med = Median(merge_s);
    const double no_merge_med = Median(no_merge_s);
    const double share_med = Median(share);

    std::printf(
        "%-10d %6zu | %14lld %15lld | %10.3f %13.3f %7.2fx | %10.1f%%%s\n", w,
        wf.steps.size(), static_cast<long long>(with_merge.num_boxes()),
        static_cast<long long>(without_merge.num_boxes()), merge_med * 1e3,
        no_merge_med * 1e3, no_merge_med / std::max(1e-9, merge_med),
        share_med * 100, same_cells ? "" : "  ANSWERS DIFFER");
    json.Add()
        .Num("workflow", w)
        .Num("ops", static_cast<double>(wf.steps.size()))
        .Num("boxes_merge", static_cast<double>(with_merge.num_boxes()))
        .Num("boxes_no_merge", static_cast<double>(without_merge.num_boxes()))
        .Num("reps", reps)
        .Num("merge_s", merge_med)
        .Num("no_merge_s", no_merge_med)
        .Num("merge_share", share_med)
        .Num("same_cells", same_cells ? 1 : 0);
  }
  PrintRule(104);
  std::printf(
      "\nReading: merging collapses intermediate box tables (often to a\n"
      "single box), bounding the cost of each subsequent range join — the\n"
      "paper's DSLog-NoMerge gap. Speedup above 1x means merging wins; the\n"
      "merge share is the part of the merged query's time spent merging.\n");
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "error: merged and unmerged answers differ on %d "
                 "workflow(s)\n",
                 mismatches);
    return 1;
  }
  return 0;
}
