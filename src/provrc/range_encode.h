// The greedy multi-attribute range encoding of ICDE'24 §IV.A step 1 over a
// flat array of boxes: ProvRC step 1 and the §V.B.3 between-hop merge
// (BoxTable::Merge) both run it.

#ifndef DSLOG_PROVRC_RANGE_ENCODE_H_
#define DSLOG_PROVRC_RANGE_ENCODE_H_

#include <vector>

#include "provrc/interval.h"

namespace dslog {

/// Coalesces the boxes in `flat` (row-major, `ndim` intervals per box) one
/// attribute at a time, from `ndim - 1` down to `first_attr`, and drops
/// exact duplicates. Each pass orders the boxes by the other attributes (in
/// attribute order), then the target, each by (lo, hi), and unions target
/// intervals that overlap or touch within a run that agrees on the others;
/// the survivors are left in that order. When every attribute's lo and
/// extent (hi - lo) fit one 64-bit key as offsets from their minima, the
/// pass radix-sorts one packed key per box; otherwise it sorts the rows
/// with a comparator. Both orders agree, so the output is the same either
/// way.
void RangeEncodeBoxes(std::vector<Interval>* flat, int ndim, int first_attr);

}  // namespace dslog

#endif  // DSLOG_PROVRC_RANGE_ENCODE_H_
