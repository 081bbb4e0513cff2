#include "provrc/provrc.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"
#include "provrc/range_encode.h"

namespace dslog {

namespace {

// Working state over flat interval arrays (row-major: row r, attr k at
// r * width + k). Rows shrink as passes merge them, so each pass gathers
// surviving rows into fresh arrays.
struct WorkState {
  int l = 0;  // output arity
  int m = 0;  // input arity
  int64_t nrows = 0;
  std::vector<Interval> outs;   // nrows * l
  std::vector<Interval> ins;    // nrows * m (absolute intervals)
  std::vector<uint32_t> masks;   // nrows * m; bit 0 = abs, bit 1+j = delta_j
  std::vector<Interval> deltas;  // nrows * m * l

  Interval* OutRow(int64_t r) { return outs.data() + r * l; }
  Interval* InRow(int64_t r) { return ins.data() + r * m; }
  const Interval* OutRow(int64_t r) const { return outs.data() + r * l; }
  const Interval* InRow(int64_t r) const { return ins.data() + r * m; }
};

// ---------------------------------------------------------------- step 1 --

// Range-encodes each row as one (out ++ in) point box on the input
// attributes, a_m first (paper order); the first pass also drops duplicate
// rows. The boxes take twice the relation's bytes, so they are freed here,
// before step 2 allocates its own state.
WorkState RangeEncodeInputs(const LineageRelation& relation) {
  WorkState st;
  st.l = relation.out_ndim();
  st.m = relation.in_ndim();
  const int width = st.l + st.m;
  std::vector<Interval> boxes(relation.flat().size());
  std::transform(relation.flat().begin(), relation.flat().end(),
                 boxes.begin(), Interval::Point);
  RangeEncodeBoxes(&boxes, width, st.l);

  st.nrows = static_cast<int64_t>(boxes.size()) / width;
  st.outs.reserve(static_cast<size_t>(st.nrows) * st.l);
  st.ins.reserve(static_cast<size_t>(st.nrows) * st.m);
  for (const Interval* row = boxes.data(); row < boxes.data() + boxes.size();
       row += width) {
    st.outs.insert(st.outs.end(), row, row + st.l);
    st.ins.insert(st.ins.end(), row + st.l, row + width);
  }
  return st;
}

// ---------------------------------------------------------------- step 2 --

// Initializes per-(row, input-attr) representation sets: the absolute
// interval plus one delta interval per output attribute (delta = a - b_j,
// the convention of the paper's Table II).
void InitRepresentations(WorkState* st) {
  const int l = st->l, m = st->m;
  st->masks.assign(static_cast<size_t>(st->nrows) * m, 0);
  st->deltas.assign(static_cast<size_t>(st->nrows) * m * l, Interval{});
  const uint32_t all_mask = (1u << (l + 1)) - 1;
  for (int64_t r = 0; r < st->nrows; ++r) {
    const Interval* outs = st->OutRow(r);
    const Interval* ins = st->InRow(r);
    for (int i = 0; i < m; ++i) {
      st->masks[static_cast<size_t>(r * m + i)] = all_mask;
      for (int j = 0; j < l; ++j) {
        // Outputs are degenerate before any output pass.
        int64_t b = outs[j].lo;
        st->deltas[static_cast<size_t>((r * m + i) * l + j)] =
            Interval{ins[i].lo - b, ins[i].hi - b};
      }
    }
  }
}

// Merges runs contiguous on output attribute `target` where the other
// output attributes agree and every input attribute retains at least one
// shared representation (§IV.A step 2).
void RangeEncodeOutputAttr(WorkState* st, int target) {
  const int l = st->l, m = st->m;
  std::vector<int64_t> order(static_cast<size_t>(st->nrows));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    const Interval* oa = st->OutRow(a);
    const Interval* ob = st->OutRow(b);
    for (int k = 0; k < l; ++k) {
      if (k == target) continue;
      int c = CompareIntervals(oa[k], ob[k]);
      if (c != 0) return c < 0;
    }
    int c = CompareIntervals(oa[target], ob[target]);
    if (c != 0) return c < 0;
    // Deterministic tiebreak on inputs.
    const Interval* ia = st->InRow(a);
    const Interval* ib = st->InRow(b);
    for (int k = 0; k < m; ++k) {
      c = CompareIntervals(ia[k], ib[k]);
      if (c != 0) return c < 0;
    }
    return false;
  });

  auto other_outs_equal = [&](int64_t a, int64_t b) {
    const Interval* oa = st->OutRow(a);
    const Interval* ob = st->OutRow(b);
    for (int k = 0; k < l; ++k)
      if (k != target && !(oa[k] == ob[k])) return false;
    return true;
  };

  // Compatible-representation mask between the run's state (kept in acc_*)
  // and a candidate row.
  auto compat_mask = [&](uint32_t acc_mask, const Interval& acc_abs,
                         const Interval* acc_delta, int64_t row, int attr) {
    uint32_t row_mask = st->masks[static_cast<size_t>(row * m + attr)];
    uint32_t result = 0;
    if ((acc_mask & 1u) && (row_mask & 1u) &&
        acc_abs == st->InRow(row)[attr]) {
      result |= 1u;
    }
    for (int j = 0; j < l; ++j) {
      uint32_t bit = 1u << (j + 1);
      if ((acc_mask & bit) && (row_mask & bit) &&
          acc_delta[j] == st->deltas[static_cast<size_t>((row * m + attr) * l + j)]) {
        result |= bit;
      }
    }
    return result;
  };

  std::vector<Interval> new_outs, new_ins;
  std::vector<uint32_t> new_masks;
  std::vector<Interval> new_deltas;
  new_outs.reserve(st->outs.size());
  new_ins.reserve(st->ins.size());
  new_masks.reserve(st->masks.size());
  new_deltas.reserve(st->deltas.size());
  int64_t new_rows = 0;

  // Several mergeable families can interleave at the same output index
  // (e.g. the cross product's column pattern {0, 2}), so the scan keeps a
  // set of open runs instead of a single accumulator. A run closes when no
  // future row can extend it (the sweep passed its end, or the other output
  // attributes changed).
  struct Run {
    int64_t first_row;  // representative row for the other-outs comparison
    std::vector<Interval> out;
    std::vector<Interval> in;
    std::vector<uint32_t> masks;
    std::vector<Interval> deltas;
  };
  std::vector<Run> open;

  auto start_run = [&](int64_t row) {
    Run run;
    run.first_row = row;
    run.out.assign(st->OutRow(row), st->OutRow(row) + l);
    run.in.assign(st->InRow(row), st->InRow(row) + m);
    run.masks.resize(static_cast<size_t>(m));
    run.deltas.resize(static_cast<size_t>(m) * l);
    for (int i = 0; i < m; ++i) {
      run.masks[static_cast<size_t>(i)] =
          st->masks[static_cast<size_t>(row * m + i)];
      for (int j = 0; j < l; ++j)
        run.deltas[static_cast<size_t>(i * l + j)] =
            st->deltas[static_cast<size_t>((row * m + i) * l + j)];
    }
    open.push_back(std::move(run));
  };

  auto flush_run = [&](const Run& run) {
    new_outs.insert(new_outs.end(), run.out.begin(), run.out.end());
    new_ins.insert(new_ins.end(), run.in.begin(), run.in.end());
    new_masks.insert(new_masks.end(), run.masks.begin(), run.masks.end());
    new_deltas.insert(new_deltas.end(), run.deltas.begin(), run.deltas.end());
    ++new_rows;
  };

  for (int64_t idx : order) {
    const Interval& next = st->OutRow(idx)[target];
    // Close runs the sweep has passed (they can never be extended again).
    size_t keep = 0;
    for (size_t r = 0; r < open.size(); ++r) {
      bool expired = !other_outs_equal(open[r].first_row, idx) ||
                     open[r].out[static_cast<size_t>(target)].hi + 1 < next.lo;
      if (expired) {
        flush_run(open[r]);
      } else {
        if (keep != r) open[keep] = std::move(open[r]);
        ++keep;
      }
    }
    open.resize(keep);

    // Try to extend one of the still-open runs.
    bool merged = false;
    for (Run& run : open) {
      if (!run.out[static_cast<size_t>(target)].AdjacentBefore(next)) continue;
      std::vector<uint32_t> merged_masks(static_cast<size_t>(m));
      bool compatible = true;
      for (int i = 0; i < m && compatible; ++i) {
        merged_masks[static_cast<size_t>(i)] = compat_mask(
            run.masks[static_cast<size_t>(i)], run.in[static_cast<size_t>(i)],
            run.deltas.data() + static_cast<size_t>(i) * l, idx, i);
        if (merged_masks[static_cast<size_t>(i)] == 0) compatible = false;
      }
      if (!compatible) continue;
      run.out[static_cast<size_t>(target)].hi = next.hi;
      run.masks = std::move(merged_masks);
      merged = true;
      break;
    }
    if (!merged) start_run(idx);
  }
  for (const Run& run : open) flush_run(run);

  st->outs = std::move(new_outs);
  st->ins = std::move(new_ins);
  st->masks = std::move(new_masks);
  st->deltas = std::move(new_deltas);
  st->nrows = new_rows;
}

}  // namespace

CompressedTable ProvRcCompress(const LineageRelation& relation,
                               const ProvRcOptions& options) {
  static metrics::Histogram& range_encode_us =
      metrics::Registry::Global().histogram("dslog.ingest.range_encode_us");
  static metrics::Histogram& relative_us =
      metrics::Registry::Global().histogram("dslog.ingest.relative_us");
  const int l = relation.out_ndim();
  const int m = relation.in_ndim();
  DSLOG_CHECK(l >= 1 && m >= 1) << "ProvRC requires arities >= 1";
  DSLOG_CHECK(l <= 31) << "output arity too large for representation masks";
  trace::Span span("ProvRC.Compress", "provrc");
  span.Arg("rows_in", relation.num_rows());

  WallTimer timer;
  WorkState st = RangeEncodeInputs(relation);
  range_encode_us.Record(static_cast<int64_t>(timer.ElapsedSeconds() * 1e6));
  span.Arg("rows_step1", st.nrows);

  // Emit the surviving rows straight into the table's columnar arenas (the
  // working state is already flat, so this is a per-row gather, not a
  // per-row allocation).
  CompressedTable table(relation.out_shape(), relation.in_shape());
  std::vector<Interval> row_in(static_cast<size_t>(m));
  std::vector<int32_t> row_ref(static_cast<size_t>(m));
  if (options.enable_relative_transform) {
    // Step 2: relative transform, then output attributes b_l first.
    timer.Restart();
    InitRepresentations(&st);
    for (int j = l - 1; j >= 0; --j) RangeEncodeOutputAttr(&st, j);

    table.Reserve(st.nrows);
    for (int64_t r = 0; r < st.nrows; ++r) {
      for (int i = 0; i < m; ++i) {
        uint32_t mask = st.masks[static_cast<size_t>(r * m + i)];
        DSLOG_DCHECK(mask != 0);
        if (mask & 1u) {
          // Pattern 2: the absolute value survived.
          row_in[static_cast<size_t>(i)] = st.InRow(r)[i];
          row_ref[static_cast<size_t>(i)] = -1;
        } else {
          // Pattern 3: pick the lowest surviving delta reference.
          int j = 0;
          while (((mask >> (j + 1)) & 1u) == 0) ++j;
          row_in[static_cast<size_t>(i)] =
              st.deltas[static_cast<size_t>((r * m + i) * l + j)];
          row_ref[static_cast<size_t>(i)] = j;
        }
      }
      table.AppendRowRaw(st.OutRow(r), row_in.data(), row_ref.data());
    }
    relative_us.Record(static_cast<int64_t>(timer.ElapsedSeconds() * 1e6));
  } else {
    table.Reserve(st.nrows);
    std::fill(row_ref.begin(), row_ref.end(), -1);
    for (int64_t r = 0; r < st.nrows; ++r)
      table.AppendRowRaw(st.OutRow(r), st.InRow(r), row_ref.data());
  }
  span.Arg("rows_out", table.num_rows());
  return table;
}

}  // namespace dslog
