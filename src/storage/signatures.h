// Operation signatures and automatic reuse prediction (ICDE'24 §VI):
// base_sig (exact input arrays), dim_sig (input shapes only), and gen_sig
// (shape-independent via index reshaping), with the m = 1 promotion
// heuristic of §VI.C.

#ifndef DSLOG_STORAGE_SIGNATURES_H_
#define DSLOG_STORAGE_SIGNATURES_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "array/op.h"
#include "common/status.h"
#include "provrc/compressed_table.h"
#include "provrc/reshape.h"

namespace dslog {

/// Reuse bookkeeping counters (reported by Table IX's bench).
struct ReuseStats {
  int64_t base_hits = 0;
  int64_t dim_hits = 0;
  int64_t gen_hits = 0;
  int64_t dim_promotions = 0;
  int64_t gen_promotions = 0;
  int64_t dim_rejections = 0;
  int64_t gen_rejections = 0;
  /// Promoted mappings later observed to disagree with captured lineage
  /// (mispredictions — the `cross` failure mode).
  int64_t mispredictions = 0;
};

/// What the predictor decided for one registration.
struct ReuseOutcome {
  bool base_hit = false;
  bool dim_hit = false;   // lineage served from a promoted dim_sig mapping
  bool gen_hit = false;   // lineage served from a promoted gen_sig mapping
};

/// Signature-keyed store of compressed lineage tables with automatic reuse
/// prediction. One instance per DSLog catalog; Predict and
/// ProcessRegistration are always called under the catalog's exclusive
/// lock, so the predictor itself takes none.
class ReusePredictor {
 public:
  /// Processes a registration of `op_name(args)` whose captured, compressed
  /// lineage tables (one per input array) are `tables`. `in_shapes` are
  /// the input array shapes; `content_hash` identifies exact input content
  /// (base_sig). Verifies/promotes tentative mappings (m = 1) and reports
  /// whether this call could have been served without capture.
  ReuseOutcome ProcessRegistration(
      const std::string& op_name, const OpArgs& args,
      const std::vector<std::vector<int64_t>>& in_shapes,
      const std::vector<int64_t>& out_shape, uint64_t content_hash,
      const std::vector<CompressedTable>& tables);

  /// Looks up a promoted mapping without registering anything. Returns the
  /// predicted tables (instantiated for the given shapes when gen_sig) or
  /// an empty vector when no promoted signature applies.
  std::vector<CompressedTable> Predict(
      const std::string& op_name, const OpArgs& args,
      const std::vector<std::vector<int64_t>>& in_shapes,
      const std::vector<int64_t>& out_shape) const;

  const ReuseStats& stats() const { return stats_; }

  /// Serializes the full predictor state (signature stores, promotion
  /// states, counters) into a self-describing binary blob ("RPS1"), so
  /// persistence layers can restore reuse behaviour across process
  /// restarts.
  std::string SerializeState() const;

  /// Inverse of SerializeState: replaces this predictor's state with the
  /// decoded blob. Returns Corruption on malformed input (state unchanged
  /// on failure). Bytes after the RPS1 payload are ignored.
  Status RestoreState(std::string_view blob);

 private:
  enum class State { kTentative, kPromoted, kRejected };

  // Everything but an entry's state is fixed at insertion, so each entry
  // keeps its serialized form next to it (`encoded`: the bytes
  // SerializeState writes after the key and state byte). SerializeState
  // only concatenates; it never re-encodes a table.
  struct DimEntry {
    State state = State::kTentative;
    std::vector<CompressedTable> tables;
    std::string encoded;  // table count + PRC1 tables
  };
  struct GenEntry {
    State state = State::kTentative;
    std::vector<GeneralizedTable> tables;
    // Shapes seen at the tentative stage; gen promotion requires a
    // *different* shape on the confirming call (§VI.C).
    std::vector<std::vector<int64_t>> first_shapes;
    std::vector<int64_t> first_out_shape;
    std::string encoded;  // tables + first shapes
  };

  static std::string DimKey(const std::string& op_name, uint64_t args_hash,
                            const std::vector<std::vector<int64_t>>& in_shapes);
  static std::string GenKey(const std::string& op_name, uint64_t args_hash);
  static std::string BaseKey(const std::string& op_name, uint64_t args_hash,
                             uint64_t content_hash);

  /// base_sig key -> encoded table section. Only a key's presence is ever
  /// read (Predict serves dim/gen), so the tables themselves are not kept.
  std::map<std::string, std::string> base_sig_;
  std::map<std::string, DimEntry> dim_sig_;
  std::map<std::string, GenEntry> gen_sig_;
  ReuseStats stats_;
};

}  // namespace dslog

#endif  // DSLOG_STORAGE_SIGNATURES_H_
