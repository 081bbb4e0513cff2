// Model-debugging scenario (the Fig 8C workflow): trace activations through
// the seven steps of a ResNet block, forward (which activations did this
// pixel touch?) and backward (which pixels can influence this activation?).
// One catalog stores only the backward tables; forward hops de-relativize
// them on the fly (paper §IV.C), so both directions share one copy.

#include <cstdio>

#include "common/strings.h"
#include "storage/dslog.h"
#include "workloads/workflows.h"

using namespace dslog;

int main() {
  auto wfr = BuildResNetWorkflow(64, 64, /*seed=*/21);
  DSLOG_CHECK(wfr.ok()) << wfr.status().ToString();
  const Workflow& wf = wfr.value();
  for (size_t i = 0; i < wf.steps.size(); ++i)
    std::printf("step %zu: %-10s lineage rows=%lld\n", i + 1,
                wf.steps[i].op_name.c_str(),
                static_cast<long long>(wf.steps[i].relation.num_rows()));

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
  }
  std::printf("\nstored lineage: %s\n",
              HumanBytes(log.StorageFootprintBytes()).c_str());

  // Forward query: receptive-field expansion of one input pixel through
  // both 3x3 convolutions.
  std::vector<std::string> fwd_path(wf.array_names.begin(),
                                    wf.array_names.end());
  BoxTable touched =
      log.ProvQuery(fwd_path, BoxTable::FromCells(2, {32, 32})).ValueOrDie();
  std::printf("\nforward query pixel (32,32) -> final activations: %lld "
              "cells\n",
              static_cast<long long>(touched.NumDistinctCells()));
  DSLOG_CHECK(touched.NumDistinctCells() == 25)
      << "forward receptive field should be 5x5";

  // Backward query: which input pixels can influence a corner activation?
  std::vector<std::string> bwd_path(wf.array_names.rbegin(),
                                    wf.array_names.rend());
  BoxTable sources =
      log.ProvQuery(bwd_path, BoxTable::FromCells(2, {0, 0})).ValueOrDie();
  std::printf("backward query activation (0,0) -> input pixels: %lld "
              "cells\n",
              static_cast<long long>(sources.NumDistinctCells()));
  DSLOG_CHECK(sources.NumDistinctCells() == 9)
      << "corner receptive field should be 3x3";
  return 0;
}
