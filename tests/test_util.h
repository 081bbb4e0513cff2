// Shared helpers for the query-equivalence test suites: flat-tuple set
// conversion (for set-semantics comparison against the uncompressed
// oracle), random cell sampling over an array shape, and the seeded
// random-pipeline generator the differential suites (in-process and over
// the network server) both ingest from, and the reference BoxTable merge
// and ProvRC step 1.

#ifndef DSLOG_TESTS_TEST_UTIL_H_
#define DSLOG_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "array/ndarray.h"
#include "array/op.h"
#include "array/op_registry.h"
#include "common/random.h"
#include "common/status.h"
#include "lineage/lineage_relation.h"
#include "query/box.h"
#include "storage/dslog.h"

namespace dslog {
namespace test_util {

using TupleSet = std::set<std::vector<int64_t>>;

/// Groups a flattened tuple stream into a set of `arity`-length tuples.
inline TupleSet ToTupleSet(const std::vector<int64_t>& flat, int arity) {
  TupleSet out;
  for (size_t off = 0; off < flat.size(); off += static_cast<size_t>(arity))
    out.insert(std::vector<int64_t>(
        flat.begin() + static_cast<long>(off),
        flat.begin() + static_cast<long>(off) + arity));
  return out;
}

/// Samples up to `count` distinct cells of `shape`, as flattened index
/// tuples.
inline std::vector<int64_t> SampleCells(const std::vector<int64_t>& shape,
                                        int64_t count, Rng* rng) {
  NDArray probe(shape);
  count = std::min(count, probe.size());
  std::vector<int64_t> cells;
  std::vector<int64_t> idx(shape.size());
  for (int64_t flat : rng->SampleWithoutReplacement(probe.size(), count)) {
    probe.UnravelIndex(flat, idx);
    cells.insert(cells.end(), idx.begin(), idx.end());
  }
  return cells;
}

/// The original BoxTable::Merge, kept as the oracle for the packed-key
/// merge: per attribute (last first, down to `first_attr`), std::sort an
/// index permutation with an attribute-by-attribute comparator, then sweep
/// duplicates, adjacent and overlapping target intervals. Its adjacency test
/// `cur.hi + 1` overflows when hi == INT64_MAX, so it must not be fed such
/// boxes.
inline BoxTable ReferenceMerge(const BoxTable& in, int first_attr = 0) {
  const int ndim = in.ndim();
  BoxTable table = in;
  if (ndim == 0 || table.empty()) return table;
  for (int target = ndim - 1; target >= first_attr; --target) {
    int64_t n = table.num_boxes();
    std::vector<int64_t> order(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
      auto ba = table.Box(a);
      auto bb = table.Box(b);
      for (int k = 0; k < ndim; ++k) {
        if (k == target) continue;
        int c = CompareIntervals(ba[static_cast<size_t>(k)],
                                 bb[static_cast<size_t>(k)]);
        if (c != 0) return c < 0;
      }
      return CompareIntervals(ba[static_cast<size_t>(target)],
                              bb[static_cast<size_t>(target)]) < 0;
    });

    BoxTable merged(ndim);
    std::vector<Interval> acc;
    bool open = false;
    auto flush = [&]() {
      if (open) merged.AddBox(acc);
      open = false;
    };
    for (int64_t idx : order) {
      auto box = table.Box(idx);
      if (!open) {
        acc.assign(box.begin(), box.end());
        open = true;
        continue;
      }
      bool same_others = true;
      for (int k = 0; k < ndim && same_others; ++k)
        if (k != target &&
            !(acc[static_cast<size_t>(k)] == box[static_cast<size_t>(k)]))
          same_others = false;
      const Interval& cur = acc[static_cast<size_t>(target)];
      const Interval& next = box[static_cast<size_t>(target)];
      if (same_others && cur == next) continue;  // exact duplicate box
      if (same_others && cur.AdjacentBefore(next)) {
        acc[static_cast<size_t>(target)].hi = next.hi;
        continue;
      }
      // Also coalesce overlapping intervals (unions stay unions).
      if (same_others && next.lo <= cur.hi + 1) {
        acc[static_cast<size_t>(target)].hi = std::max(cur.hi, next.hi);
        continue;
      }
      flush();
      acc.assign(box.begin(), box.end());
      open = true;
    }
    flush();
    table = std::move(merged);
  }
  return table;
}

/// The original ProvRC step 1, kept as the oracle for the shared
/// range-encoding pass over a relation: SortAndDedup a copy, then per input
/// attribute (a_m first) std::sort a row permutation by (outputs, other
/// inputs, target) with an interval comparator and extend a run only by a
/// target interval that starts right after it (AdjacentBefore). Returns
/// the surviving rows as flat (out ++ in) intervals, l + m per row, in the
/// order step 1 leaves them.
inline std::vector<Interval> ReferenceRangeEncodeInputs(
    const LineageRelation& relation) {
  LineageRelation rel = relation;
  rel.SortAndDedup();
  const int l = rel.out_ndim(), m = rel.in_ndim();
  int64_t nrows = rel.num_rows();
  std::vector<Interval> outs, ins;
  for (int64_t r = 0; r < nrows; ++r) {
    auto row = rel.Row(r);
    for (int k = 0; k < l; ++k)
      outs.push_back(Interval::Point(row[static_cast<size_t>(k)]));
    for (int k = 0; k < m; ++k)
      ins.push_back(Interval::Point(row[static_cast<size_t>(l + k)]));
  }
  auto out_row = [&](int64_t r) { return outs.data() + r * l; };
  auto in_row = [&](int64_t r) { return ins.data() + r * m; };

  for (int target = m - 1; target >= 0; --target) {
    std::vector<int64_t> order(static_cast<size_t>(nrows));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
      for (int k = 0; k < l; ++k) {
        int c = CompareIntervals(out_row(a)[k], out_row(b)[k]);
        if (c != 0) return c < 0;
      }
      for (int k = 0; k < m; ++k) {
        if (k == target) continue;
        int c = CompareIntervals(in_row(a)[k], in_row(b)[k]);
        if (c != 0) return c < 0;
      }
      return CompareIntervals(in_row(a)[target], in_row(b)[target]) < 0;
    });
    auto others_equal = [&](int64_t a, int64_t b) {
      for (int k = 0; k < l; ++k)
        if (!(out_row(a)[k] == out_row(b)[k])) return false;
      for (int k = 0; k < m; ++k)
        if (k != target && !(in_row(a)[k] == in_row(b)[k])) return false;
      return true;
    };

    std::vector<Interval> new_outs, new_ins;
    int64_t new_rows = 0;
    auto flush = [&](int64_t row, const Interval& acc) {
      new_outs.insert(new_outs.end(), out_row(row), out_row(row) + l);
      for (int k = 0; k < m; ++k)
        new_ins.push_back(k == target ? acc : in_row(row)[k]);
      ++new_rows;
    };
    int64_t run_row = -1;
    Interval acc;
    for (int64_t idx : order) {
      const Interval& next = in_row(idx)[target];
      if (run_row >= 0 && others_equal(run_row, idx) &&
          acc.AdjacentBefore(next)) {
        acc.hi = next.hi;
        continue;
      }
      if (run_row >= 0) flush(run_row, acc);
      run_row = idx;
      acc = next;
    }
    if (run_row >= 0) flush(run_row, acc);
    outs = std::move(new_outs);
    ins = std::move(new_ins);
    nrows = new_rows;
  }

  std::vector<Interval> rows;
  for (int64_t r = 0; r < nrows; ++r) {
    rows.insert(rows.end(), out_row(r), out_row(r) + l);
    rows.insert(rows.end(), in_row(r), in_row(r) + m);
  }
  return rows;
}

// A random linear pipeline x0 -> x1 -> ... -> xn plus (when generation
// succeeds) one branch op off an intermediate array, for mixed-direction
// paths: branch -> x_{branch_from} is a backward hop, the rest forward.
struct RandomDag {
  std::vector<std::string> names;  // chain array names x0..xn
  std::vector<std::vector<int64_t>> shapes;
  std::vector<std::string> op_names;  // op_names[i]: x_i -> x_{i+1}
  std::vector<LineageRelation> rels;  // rels[i]: x_i -> x_{i+1}
  bool has_branch = false;
  int branch_from = 0;  // index of the branched array
  std::string branch_op;
  std::vector<int64_t> branch_shape;
  LineageRelation branch_rel;  // x_{branch_from} -> "branch"

  /// The registrations that ingest this pipeline, in chain order (branch
  /// last). Relations are copied so one dag can feed several catalogs.
  std::vector<OperationRegistration> Registrations() const {
    std::vector<OperationRegistration> regs;
    for (size_t i = 0; i < rels.size(); ++i) {
      OperationRegistration reg;
      reg.op_name = op_names[i];
      reg.in_arrs = {names[i]};
      reg.out_arr = names[i + 1];
      reg.captured.push_back(rels[i]);
      regs.push_back(std::move(reg));
    }
    if (has_branch) {
      OperationRegistration reg;
      reg.op_name = branch_op;
      reg.in_arrs = {names[static_cast<size_t>(branch_from)]};
      reg.out_arr = "branch";
      reg.captured.push_back(branch_rel);
      regs.push_back(std::move(reg));
    }
    return regs;
  }
};

inline RandomDag GenerateDag(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  auto pool = OpRegistry::Global().UnaryPipelineNames();
  RandomDag dag;

  std::vector<NDArray> arrays;
  arrays.push_back(rng.Bernoulli(0.5) ? NDArray::Random({48}, &rng)
                                      : NDArray::Random({8, 6}, &rng));
  dag.names.push_back("x0");
  dag.shapes.push_back(arrays[0].shape());

  const int target_steps = 3 + static_cast<int>(seed % 3);
  int guard = 0;
  while (static_cast<int>(dag.rels.size()) < target_steps && guard < 300) {
    ++guard;
    const NDArray& current = arrays.back();
    const ArrayOp* op =
        OpRegistry::Global().Find(pool[rng.Uniform(pool.size())]);
    if (!op->SupportsUnaryShape(current.shape())) continue;
    OpArgs args = op->SampleArgs(current.shape(), &rng);
    auto out = op->Apply({&current}, args);
    if (!out.ok()) continue;
    NDArray next = out.ValueOrDie();
    if (next.size() == 0 || next.size() > 20000) continue;
    auto captured = op->Capture({&current}, next, args);
    if (!captured.ok() || captured.value()[0].num_rows() == 0) continue;
    dag.rels.push_back(std::move(captured.ValueOrDie()[0]));
    dag.op_names.push_back(op->name());
    arrays.push_back(std::move(next));
    dag.names.push_back("x" + std::to_string(arrays.size() - 1));
    dag.shapes.push_back(arrays.back().shape());
  }

  // Branch op off an intermediate array (never the last, so mixed paths
  // always have at least one forward hop after the backward one).
  const int n = static_cast<int>(dag.rels.size());
  for (int attempt = 0; attempt < 60 && n >= 2 && !dag.has_branch; ++attempt) {
    int from = 1 + static_cast<int>(rng.Uniform(static_cast<uint64_t>(n - 1)));
    const NDArray& src = arrays[static_cast<size_t>(from)];
    const ArrayOp* op =
        OpRegistry::Global().Find(pool[rng.Uniform(pool.size())]);
    if (!op->SupportsUnaryShape(src.shape())) continue;
    OpArgs args = op->SampleArgs(src.shape(), &rng);
    auto out = op->Apply({&src}, args);
    if (!out.ok()) continue;
    NDArray b = out.ValueOrDie();
    if (b.size() == 0 || b.size() > 20000) continue;
    auto captured = op->Capture({&src}, b, args);
    if (!captured.ok() || captured.value()[0].num_rows() == 0) continue;
    dag.has_branch = true;
    dag.branch_from = from;
    dag.branch_op = op->name();
    dag.branch_shape = b.shape();
    dag.branch_rel = std::move(captured.ValueOrDie()[0]);
  }
  return dag;
}

/// Defines the dag's arrays and registers every operation into `log`.
inline Status RegisterDag(const RandomDag& dag, DSLog* log) {
  for (size_t i = 0; i < dag.names.size(); ++i)
    DSLOG_RETURN_IF_ERROR(log->DefineArray(dag.names[i], dag.shapes[i]));
  if (dag.has_branch)
    DSLOG_RETURN_IF_ERROR(log->DefineArray("branch", dag.branch_shape));
  for (OperationRegistration& reg : dag.Registrations()) {
    auto outcome = log->RegisterOperation(std::move(reg));
    if (!outcome.ok()) return outcome.status();
  }
  return Status::OK();
}

}  // namespace test_util
}  // namespace dslog

#endif  // DSLOG_TESTS_TEST_UTIL_H_
