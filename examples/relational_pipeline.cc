// Relational pre-processing scenario (the Fig 8B workflow): IMDB-like
// tables flow through join -> NaN-column filter -> derived column ->
// one-hot -> constant shift; DSLog traces a processed cell back to the raw
// table and a raw cell forward to everything it influenced.

#include <cstdio>

#include "common/strings.h"
#include "storage/dslog.h"
#include "workloads/workflows.h"

using namespace dslog;

int main() {
  auto wfr = BuildRelationalWorkflow(/*basics_rows=*/5000,
                                     /*episode_rows=*/3000, /*seed=*/11);
  DSLOG_CHECK(wfr.ok()) << wfr.status().ToString();
  const Workflow& wf = wfr.value();

  DSLog log;
  for (size_t i = 0; i < wf.array_names.size(); ++i)
    DSLOG_CHECK(log.DefineArray(wf.array_names[i], wf.shapes[i]).ok());
  for (size_t i = 0; i < wf.steps.size(); ++i) {
    OperationRegistration reg;
    reg.op_name = wf.steps[i].op_name;
    reg.in_arrs = {wf.array_names[i]};
    reg.out_arr = wf.array_names[i + 1];
    reg.captured = {wf.steps[i].relation};
    DSLOG_CHECK(log.RegisterOperation(std::move(reg)).ok());
    std::printf("step %zu: %-18s table (%s), lineage rows=%lld\n", i + 1,
                wf.steps[i].op_name.c_str(),
                JoinInts(wf.shapes[i + 1], "x").c_str(),
                static_cast<long long>(wf.steps[i].relation.num_rows()));
  }
  std::printf("total stored lineage: %s (ProvRC-GZip)\n\n",
              HumanBytes(log.StorageFootprintBytes()).c_str());

  // Backward: where did the final table's cell (0, 3) come from?
  std::vector<std::string> back_path(wf.array_names.rbegin(),
                                     wf.array_names.rend());
  BoxTable q = BoxTable::FromCells(2, {0, 3});
  BoxTable sources = log.ProvQuery(back_path, q).ValueOrDie();
  std::printf("backward query (final cell (0,3) -> raw basics cells):\n%s",
              sources.DebugString(8).c_str());

  // Forward: what did the first raw row influence downstream?
  std::vector<int64_t> row0;
  for (int64_t c = 0; c < wf.shapes[0][1]; ++c) {
    row0.push_back(0);
    row0.push_back(c);
  }
  BoxTable qr = BoxTable::FromCells(2, row0);
  BoxTable influenced =
      log.ProvQuery(std::vector<std::string>(wf.array_names.begin(),
                                             wf.array_names.end()),
                    qr)
          .ValueOrDie();
  std::printf("\nforward query (raw basics row 0 -> final table):\n");
  std::printf("  %lld influenced cell(s) in the final table\n",
              static_cast<long long>(influenced.NumDistinctCells()));
  return 0;
}
