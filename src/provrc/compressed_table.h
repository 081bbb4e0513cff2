// The ProvRC compressed lineage table (ICDE'24 §IV): rows of interval cells.
// Output attributes are absolute intervals; each input attribute carries
// exactly one surviving representation — an absolute interval (pattern 2)
// or a delta interval relative to one output attribute (pattern 3, with
// delta defined as a_i - b_j). Every row denotes an all-to-all set in the
// (possibly relative) index space — a union-of-Cartesian-products member.
//
// Physical layout: flat columnar (SoA) arenas, not per-row vectors. A row
// is a fixed stride of out_ndim + in_ndim cells across two int64 arenas
// (interval lo bounds, interval hi bounds) plus one int32 ref arena for the
// input cells, where ref >= 0 names the referenced output attribute of a
// relative cell and ref == -1 marks an absolute cell (the cell *kind* is
// the ref's sign). θ-join kernels scan these arenas directly; the
// CompressedTableView below exposes the same columns whether they live in
// an owned table or in an mmap'd LogStore segment (zero-copy in situ).

#ifndef DSLOG_PROVRC_COMPRESSED_TABLE_H_
#define DSLOG_PROVRC_COMPRESSED_TABLE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "lineage/lineage_relation.h"
#include "provrc/interval.h"
#include "provrc/interval_index.h"

namespace dslog {

/// One input-attribute cell of a compressed row (value type: the arenas
/// are the storage, this is the unit they are built from / read back as).
struct InputCell {
  enum class Kind : uint8_t { kAbsolute = 0, kRelative = 1 };

  Kind kind = Kind::kAbsolute;
  /// Referenced output attribute index (valid when kind == kRelative).
  int32_t ref = -1;
  /// Absolute index interval, or the delta interval (a_i - b_ref).
  Interval iv;

  static InputCell Absolute(Interval v) {
    return InputCell{Kind::kAbsolute, -1, v};
  }
  static InputCell Relative(int32_t ref, Interval delta) {
    return InputCell{Kind::kRelative, ref, delta};
  }

  bool is_relative() const { return kind == Kind::kRelative; }
  bool operator==(const InputCell& o) const = default;
};

/// One materialized compressed row: absolute output intervals plus one cell
/// per input attribute. A builder/inspection convenience — storage is the
/// columnar arena, not rows of vectors.
struct CompressedRow {
  std::vector<Interval> out;
  std::vector<InputCell> in;

  bool operator==(const CompressedRow& o) const = default;
};

/// Non-owning columnar view of a compressed table: the scan format of the
/// θ-join kernels. Backed either by a CompressedTable's arenas (view())
/// or borrowed directly from an mmap'd v2 LogStore segment whose on-disk
/// bytes *are* this layout. The backing storage must outlive the view
/// (query hops carry a pin for lazily-decoded segments).
struct CompressedTableView {
  const int64_t* lo = nullptr;   // num_rows * stride() interval lo bounds
  const int64_t* hi = nullptr;   // num_rows * stride() interval hi bounds
  const int32_t* ref = nullptr;  // num_rows * in_ndim; -1 = absolute cell
  const int64_t* out_shape = nullptr;  // out_ndim dims
  const int64_t* in_shape = nullptr;   // in_ndim dims
  int32_t out_ndim = 0;
  int32_t in_ndim = 0;
  int64_t num_rows = 0;

  /// Cells per row across the lo/hi arenas: outputs first, then inputs.
  int64_t stride() const { return out_ndim + in_ndim; }

  Interval out_iv(int64_t r, int32_t k) const {
    const int64_t at = r * stride() + k;
    return {lo[at], hi[at]};
  }
  Interval in_iv(int64_t r, int32_t i) const {
    const int64_t at = r * stride() + out_ndim + i;
    return {lo[at], hi[at]};
  }
  int32_t in_ref(int64_t r, int32_t i) const { return ref[r * in_ndim + i]; }
  bool in_is_relative(int64_t r, int32_t i) const {
    return in_ref(r, i) >= 0;
  }
  InputCell in_cell(int64_t r, int32_t i) const {
    const int32_t rf = in_ref(r, i);
    return rf >= 0 ? InputCell::Relative(rf, in_iv(r, i))
                   : InputCell::Absolute(in_iv(r, i));
  }
  /// The absolute input interval row r implies on input attribute i: the
  /// stored interval of an absolute cell, or the referenced output
  /// interval widened by the delta of a relative one.
  Interval implied_in_iv(int64_t r, int32_t i) const {
    const Interval iv = in_iv(r, i);
    const int32_t rf = in_ref(r, i);
    if (rf < 0) return iv;
    const Interval base = out_iv(r, rf);
    return {base.lo + iv.lo, base.hi + iv.hi};
  }

  std::span<const int64_t> out_shape_span() const {
    return {out_shape, static_cast<size_t>(out_ndim)};
  }
  std::span<const int64_t> in_shape_span() const {
    return {in_shape, static_cast<size_t>(in_ndim)};
  }

  /// Builds the backward-join index: over the output attribute whose
  /// intervals cover the smallest share of their axis, summed over rows
  /// (the attribute a point probe is expected to hit least; the lowest
  /// attribute wins ties). O(n log n); cache the result.
  IntervalIndex BuildBackwardIndex() const;

  /// Builds the forward-join index the same way, over the rows' implied
  /// absolute input intervals (implied_in_iv). O(n log n); cache it.
  IntervalIndex BuildForwardIndex() const;
};

/// Length and FNV-64 hash of a table's PRC2 columnar image: exactly the
/// (length, checksum) pair a LogStore footer records for a columnar
/// segment holding the table.
struct ColumnarDigest {
  uint64_t length = 0;
  uint64_t hash = 0;

  bool operator==(const ColumnarDigest& o) const = default;
};

/// A compressed lineage table between one output and one input array
/// (the backward representation of §IV.C: predicates push down on outputs).
/// Owns its columnar arenas; copyable and movable.
class CompressedTable {
 public:
  CompressedTable() = default;
  CompressedTable(std::vector<int64_t> out_shape, std::vector<int64_t> in_shape)
      : out_shape_(std::move(out_shape)), in_shape_(std::move(in_shape)) {}

  CompressedTable(const CompressedTable& o);
  CompressedTable& operator=(const CompressedTable& o);
  CompressedTable(CompressedTable&& o) noexcept;
  CompressedTable& operator=(CompressedTable&& o) noexcept;

  int out_ndim() const { return static_cast<int>(out_shape_.size()); }
  int in_ndim() const { return static_cast<int>(in_shape_.size()); }
  const std::vector<int64_t>& out_shape() const { return out_shape_; }
  const std::vector<int64_t>& in_shape() const { return in_shape_; }

  int64_t num_rows() const { return num_rows_; }
  int64_t stride() const { return out_ndim() + in_ndim(); }

  // Raw arenas (serialization and kernel plumbing).
  const int64_t* lo_data() const { return lo_.data(); }
  const int64_t* hi_data() const { return hi_.data(); }
  const int32_t* ref_data() const { return ref_.data(); }

  // Cell accessors (row r, attribute k/i).
  Interval out_iv(int64_t r, int32_t k) const {
    const size_t at = static_cast<size_t>(r * stride() + k);
    return {lo_[at], hi_[at]};
  }
  Interval in_iv(int64_t r, int32_t i) const {
    const size_t at = static_cast<size_t>(r * stride() + out_ndim() + i);
    return {lo_[at], hi_[at]};
  }
  int32_t in_ref(int64_t r, int32_t i) const {
    return ref_[static_cast<size_t>(r * in_ndim() + i)];
  }
  bool in_is_relative(int64_t r, int32_t i) const { return in_ref(r, i) >= 0; }
  InputCell in_cell(int64_t r, int32_t i) const {
    const int32_t rf = in_ref(r, i);
    return rf >= 0 ? InputCell::Relative(rf, in_iv(r, i))
                   : InputCell::Absolute(in_iv(r, i));
  }

  // Cell mutators (reshape instantiation). Invalidate the cached indexes
  // and digest.
  void set_out_iv(int64_t r, int32_t k, Interval iv);
  void set_in_iv(int64_t r, int32_t i, Interval iv);

  /// Materializes row r (tests, DebugString, reference oracles).
  CompressedRow Row(int64_t r) const;

  void Reserve(int64_t rows);
  void AddRow(std::span<const Interval> out, std::span<const InputCell> in);
  void AddRow(const CompressedRow& row) {
    AddRow(std::span<const Interval>(row.out),
           std::span<const InputCell>(row.in));
  }
  /// Appends a row from raw per-attribute arrays: out[l] intervals, in[m]
  /// intervals, refs[m] (-1 = absolute). The encoder's flat-pass emitter.
  void AppendRowRaw(const Interval* out, const Interval* in,
                    const int32_t* refs);

  /// Columnar view over this table's arenas (valid until the next mutation
  /// or destruction).
  CompressedTableView view() const;

  /// The backward-join index (view().BuildBackwardIndex()), built lazily
  /// on first use and shared across queries (and across copies of the
  /// table). Thread-safe; mutations invalidate it.
  std::shared_ptr<const IntervalIndex> BackwardIndex() const;

  /// The forward-join index (view().BuildForwardIndex()), cached like
  /// BackwardIndex and built only when a forward join first asks for it.
  std::shared_ptr<const IntervalIndex> ForwardIndex() const;

  /// {size, Hash64} of SerializeCompressedTableColumnar(*this), computed on
  /// first use and cached like BackwardIndex (copies carry it, mutations
  /// drop it). Lets an appender recognize an already-persisted columnar
  /// segment without re-serializing the table on every append.
  ColumnarDigest columnar_digest() const;

  /// Expands every row back to individual contribution tuples. Used by the
  /// losslessness property tests and by baselines needing full relations.
  LineageRelation Decompress() const;

  /// Number of (output-cell, input-cell) pairs this table represents,
  /// without materializing them.
  int64_t NumPairsRepresented() const;

  std::string DebugString(int64_t max_rows = 20) const;

  bool operator==(const CompressedTable& o) const {
    return out_shape_ == o.out_shape_ && in_shape_ == o.in_shape_ &&
           num_rows_ == o.num_rows_ && lo_ == o.lo_ && hi_ == o.hi_ &&
           ref_ == o.ref_;
  }

 private:
  std::vector<int64_t> out_shape_;
  std::vector<int64_t> in_shape_;
  int64_t num_rows_ = 0;
  std::vector<int64_t> lo_;   // num_rows * stride()
  std::vector<int64_t> hi_;   // num_rows * stride()
  std::vector<int32_t> ref_;  // num_rows * in_ndim

  /// Drops the cached indexes and digest (every mutation but
  /// AppendRowRaw).
  void InvalidateCaches();

  /// Lazily-built join indexes (one per direction) and columnar digest.
  /// Guarded by index_mu_; immutable once published, so copies may share
  /// them.
  mutable std::mutex index_mu_;
  mutable std::shared_ptr<const IntervalIndex> backward_index_;
  mutable std::shared_ptr<const IntervalIndex> forward_index_;
  mutable std::optional<ColumnarDigest> digest_;
};

}  // namespace dslog

#endif  // DSLOG_PROVRC_COMPRESSED_TABLE_H_
