// Perfect hashing over sealed 64-bit key sets (CHD-style, rank-compacted).
//
// A LogStore segment catalog is immutable once the file is sealed, which is
// the textbook setting for a perfect hash function: n keys map bijectively
// onto positions [0, n) with a handful of bits per key and no chains or
// probes. PhfBuilder runs at seal time over the set of 64-bit key hashes
// and emits one flat, 8-aligned byte block; PhfView binds directly over
// those bytes (typically inside an mmap'ed file) with zero deserialization
// — no allocation, no pointer fixup, O(1) per lookup.
//
// Construction is the classic "compress, hash, displace" scheme: keys are
// thrown into m = ceil(n/4) buckets, buckets are processed largest-first,
// and each bucket searches for a 16-bit displacement under which all of its
// keys land on still-free slots of a table with `slots = n + n/16 + 1`
// entries. The ~6% slot slack is what makes the bounded displacement
// search reliable at scale: in a *minimal* table the last singleton
// buckets face O(1) free slots out of n, and 2^16 random probes fail with
// probability ~e^(-65536/n) each — near-certain failure around 10^6 keys.
// With slack every bucket always sees >= n/16 free slots, so the first
// seed succeeds with overwhelming probability at any n.
//
// The sparse [0, slots) table is compacted back to dense [0, n) by an
// occupancy bitmap plus a rank directory (one u32 cumulative popcount per
// 64-bit bitmap word): Lookup returns rank(slot), the number of occupied
// slots strictly below the key's slot, which is a bijection onto [0, n).
// An 8-bit fingerprint per slot rejects almost all absent keys (expected
// false positive rate < 1/256, since landing on an unoccupied slot also
// rejects) so a miss never touches segment bytes; a fingerprint hit still
// must be confirmed against the stored key by the caller, since a PHF by
// construction maps *every* 64-bit input somewhere.
//
// Cost: 16 bits/bucket displacement (= 4 bits/key at lambda 4), 8.5
// bits/key fingerprints (8 bits x slots/n), ~1.6 bits/key bitmap + rank,
// plus a fixed 48-byte header — about 14 bits/key at catalog scale,
// comfortably under the 16 bits/key budget.
//
// Block layout (all fields little-endian, 8-aligned so every field can be
// read with an aligned memcpy even from a heap-backed file view):
//
//   offset 0   u32  magic "DPHF"
//   offset 4   u32  version (1)
//   offset 8   u64  n       (number of keys)
//   offset 16  u64  slots   (hash table size, n + n/16 + 1; 0 iff n == 0)
//   offset 24  u64  m       (number of buckets)
//   offset 32  u64  seed
//   offset 40  u32  fingerprint_bits (8)
//   offset 44  u32  reserved (0)
//   offset 48  u16  displacement[m]          (padded to 8)
//   ...        u8   fingerprint[slots]       (padded to 8)
//   ...        u64  occupancy[ceil(slots/64)]
//   ...        u32  rank[ceil(slots/64)]     (padded to 8; rank[w] = number
//                                             of occupied slots in words
//                                             [0, w))

#ifndef DSLOG_COMMON_PHF_H_
#define DSLOG_COMMON_PHF_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace dslog {

/// Builds the serialized PHF block from a set of distinct 64-bit key
/// hashes. Fails (never crashes) on duplicate hashes or if displacement
/// search exhausts its deterministic seed schedule — LogStoreWriter::Finish
/// then returns the error without writing the store.
class PhfBuilder {
 public:
  /// Returns the flat block described in the header comment. `hashes` is
  /// the full key set; the PHF maps hashes[i] to some position in
  /// [0, hashes.size()), bijectively. Deterministic: same input, same bytes.
  static Result<std::string> Build(const std::vector<uint64_t>& hashes);
};

/// Zero-copy view over a serialized PHF block. Copyable; does not own the
/// bytes, which must outlive the view (in LogStore they are part of the
/// mapped file).
class PhfView {
 public:
  PhfView() = default;

  /// Validates structure (magic, version, sizes all consistent with
  /// block.size()) and binds. Returns Corruption on any mismatch.
  static Result<PhfView> Bind(std::string_view block);

  /// Maps a key hash to its dense position in [0, size()), or -1 if the
  /// occupancy bitmap or fingerprint proves the key absent. A non-negative
  /// return is only a *candidate*: the caller must confirm against the
  /// stored key, because absent keys pass the fingerprint with probability
  /// ~2^-fingerprint_bits.
  int64_t Lookup(uint64_t hash) const;

  /// Number of keys (and dense positions).
  uint64_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// Index size accounting for observability (inspect, benches).
  uint32_t fingerprint_bits() const { return fingerprint_bits_; }
  double bits_per_key() const {
    return n_ == 0 ? 0.0 : 8.0 * static_cast<double>(block_.size()) /
                               static_cast<double>(n_);
  }

 private:
  std::string_view block_;
  uint64_t n_ = 0;
  uint64_t slots_ = 0;
  uint64_t m_ = 0;
  uint64_t seed_ = 0;
  uint32_t fingerprint_bits_ = 0;
  const unsigned char* disp_ = nullptr;  // m_ u16 entries
  const unsigned char* fp_ = nullptr;    // slots_ u8 entries
  const unsigned char* occ_ = nullptr;   // ceil(slots_/64) u64 words
  const unsigned char* rank_ = nullptr;  // ceil(slots_/64) u32 prefix sums
};

}  // namespace dslog

#endif  // DSLOG_COMMON_PHF_H_
