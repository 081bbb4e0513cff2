// ProvRC lineage compression (ICDE'24 §IV): multi-attribute range encoding
// over input attributes (step 1, RangeEncodeBoxes in range_encode.h, the
// same pass the §V.B.3 query merge runs), then relative value
// transformation and range encoding over output attributes (step 2).
// Lossless: Decompress() of the result equals the input relation under set
// semantics.

#ifndef DSLOG_PROVRC_PROVRC_H_
#define DSLOG_PROVRC_PROVRC_H_

#include "lineage/lineage_relation.h"
#include "provrc/compressed_table.h"

namespace dslog {

/// Tuning/ablation knobs for the compressor.
struct ProvRcOptions {
  /// Step 2 (relative transformation + output range encoding). Disabling it
  /// leaves a pure multi-attribute range encoding (ablation A2).
  bool enable_relative_transform = true;
};

/// Compresses an uncompressed lineage relation. Rows may come in any order
/// and may repeat: set semantics are assumed, and step 1's first pass drops
/// duplicates.
CompressedTable ProvRcCompress(const LineageRelation& relation,
                               const ProvRcOptions& options = {});

}  // namespace dslog

#endif  // DSLOG_PROVRC_PROVRC_H_
