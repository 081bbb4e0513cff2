// The θ-join access-path planner: picks, per probe, how a hop enumerates
// its interval index — tree probe, sorted sweep, or full vectorized scan
// (provrc/interval_index.h) — from a cost model over the per-segment
// interval-column stats carried in LogStore footers (or computed at
// index build). The model's per-element costs are *measured*, not guessed:
// they come from the selectivity-swept BM_BackwardJoinSweep cases in
// bench/bench_micro_query.cc (see docs/ARCHITECTURE.md for the crossover
// table). Every path returns bit-identical results, so the planner only
// ever trades time, never answers; QueryOptions::join_path forces a path
// for tests, benches, and pathological inputs.

#ifndef DSLOG_QUERY_JOIN_PLANNER_H_
#define DSLOG_QUERY_JOIN_PLANNER_H_

#include <cstdint>

#include "provrc/interval.h"
#include "provrc/interval_index.h"

namespace dslog {

/// User-facing path selection (QueryOptions::join_path and the θ-join
/// entry points). kAuto defers to the cost model per probe; the other
/// values force the matching AccessPath for every probe of the join.
enum class JoinPath : uint8_t {
  kAuto = 0,
  kIndexProbe = 1,
  kSortedSweep = 2,
  kFullScan = 3,
};

const char* JoinPathName(JoinPath path);

/// Cost-model choice for one probe against a column with `stats`.
/// Estimates the probe's prefix fraction (rows with lo <= probe.hi) and
/// hit fraction under a uniform-lo model and picks the cheapest
/// enumeration. Falls back to the tree probe when stats are unknown (it
/// is the only path whose cost stays output-sensitive).
AccessPath ChooseAccessPath(const Interval& probe,
                            const IntervalColumnStats& stats);

/// The planner's full cost breakdown for one probe — the auditable form
/// recorded into QueryProfile when QueryOptions::profile is set. `chosen`
/// always equals ChooseAccessPath(probe, stats); the costs and expected
/// candidate count expose *why*, so mispredict ratios (estimated vs actual
/// rows) can be asserted against the model.
struct PathCostEstimate {
  /// Modeled enumeration cost in relative ns, indexed by AccessPath
  /// (kIndexProbe, kSortedSweep, kFullScan). Zero when the decision came
  /// from a shortcut (tiny table, unknown stats) — no costs were compared.
  double cost_ns[3] = {0.0, 0.0, 0.0};
  /// Expected candidate rows the probe enumerates (hit fraction x rows)
  /// under the uniform-lo model; 0 when stats are unknown.
  double est_rows = 0.0;
  AccessPath chosen = AccessPath::kIndexProbe;
};

/// ChooseAccessPath plus the model internals. Only the profiled kernels
/// call this — the unprofiled hot path keeps the estimate-free form.
PathCostEstimate EstimateAccessPathCosts(const Interval& probe,
                                         const IntervalColumnStats& stats);

/// Resolves a (possibly kAuto) JoinPath into the concrete AccessPath for
/// one probe.
inline AccessPath ResolveAccessPath(JoinPath path, const Interval& probe,
                                    const IntervalColumnStats& stats) {
  switch (path) {
    case JoinPath::kIndexProbe:
      return AccessPath::kIndexProbe;
    case JoinPath::kSortedSweep:
      return AccessPath::kSortedSweep;
    case JoinPath::kFullScan:
      return AccessPath::kFullScan;
    case JoinPath::kAuto:
      break;
  }
  return ChooseAccessPath(probe, stats);
}

}  // namespace dslog

#endif  // DSLOG_QUERY_JOIN_PLANNER_H_
