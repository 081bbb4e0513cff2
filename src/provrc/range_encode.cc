#include "provrc/range_encode.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>

namespace dslog {

namespace {

// The pass's single coalesce test: `next_lo` (sorted after the run) starts
// inside the run or right after its end `run_hi`. This covers the
// duplicate, adjacent and overlapping cases alike, and is written so that
// run_hi == INT64_MAX cannot overflow.
bool Coalesces(int64_t run_hi, int64_t next_lo) {
  return run_hi == std::numeric_limits<int64_t>::max() ||
         next_lo <= run_hi + 1;
}

// A packed key holds two unsigned columns per attribute that sort like its
// (lo, hi): lo with the sign bit flipped, and the extent hi - lo. Each
// column is stored as its offset from the column's minimum, `mask` wide, at
// bit `shift` (both 0 for a constant column). The extent is what makes
// boxes fit: lo and hi each span the array, their difference rarely does.
constexpr uint64_t kSignBit = uint64_t{1} << 63;

struct KeyField {
  uint64_t min = ~uint64_t{0};
  uint64_t max = 0;
  uint64_t mask = 0;
  int shift = 0;

  void Widen(uint64_t v) {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  uint64_t Pack(uint64_t v) const { return (v - min) << shift; }
  uint64_t Unpack(uint64_t key) const { return min + ((key >> shift) & mask); }
};

uint64_t LoColumn(const Interval& iv) {
  return static_cast<uint64_t>(iv.lo) ^ kSignBit;
}
uint64_t ExtentColumn(const Interval& iv) {
  return static_cast<uint64_t>(iv.hi) - static_cast<uint64_t>(iv.lo);
}
Interval UnpackInterval(const KeyField& lo, const KeyField& extent,
                        uint64_t key) {
  const uint64_t v = lo.Unpack(key) ^ kSignBit;
  return {static_cast<int64_t>(v),
          static_cast<int64_t>(v + extent.Unpack(key))};
}

// Lays out one pass's packed key over `n` boxes: (*fields)[2k] is attribute
// k's lo column, (*fields)[2k + 1] its extent. The other attributes take
// the high bits, in attribute order, and the target the lowest, so unsigned
// key order is exactly the comparator order (others lexicographically, then
// the target) and the key alone determines the box. All arithmetic is in
// uint64_t, so [INT64_MIN, INT64_MAX] is a 64-bit extent, not an overflow.
// Returns the key width in bits, or -1 when it would exceed 64 or a box has
// hi < lo (its extent would wrap and break the order).
int LayOutKey(const Interval* flat, int64_t n, int ndim, int target,
              std::vector<KeyField>* fields) {
  const size_t attrs = static_cast<size_t>(ndim);
  fields->assign(2 * attrs, KeyField());
  bool valid = true;
  for (size_t k = 0; k < attrs; ++k) {
    KeyField lo, extent;  // locals, so the scan keeps them in registers
    for (const Interval* box = flat + k; box < flat + n * ndim; box += ndim) {
      lo.Widen(LoColumn(*box));
      extent.Widen(ExtentColumn(*box));
      valid &= box->lo <= box->hi;
    }
    (*fields)[2 * k] = lo;
    (*fields)[2 * k + 1] = extent;
  }
  if (!valid) return -1;
  int bits = 0;
  auto place = [&](KeyField& f) {
    const int w = std::bit_width(f.max - f.min);
    if (w == 0) return true;
    if (bits + w > 64) return false;
    f.mask = w == 64 ? ~uint64_t{0} : (uint64_t{1} << w) - 1;
    f.shift = bits;
    bits += w;
    return true;
  };
  // Least significant first: the target's extent and lo, then the other
  // attributes from last to first.
  const size_t t = static_cast<size_t>(target);
  if (!place((*fields)[2 * t + 1]) || !place((*fields)[2 * t])) return -1;
  for (size_t k = attrs; k-- > 0;) {
    if (k == t) continue;
    if (!place((*fields)[2 * k + 1]) || !place((*fields)[2 * k])) return -1;
  }
  return bits;
}

// Sorts `keys` on their low `bits` bits: LSD radix, one byte per digit, with
// every digit's histogram counted in one read and the digits on which all
// keys agree skipped. Small inputs take std::sort. `scratch` is the
// ping-pong buffer.
void SortKeys(std::vector<uint64_t>& keys, std::vector<uint64_t>& scratch,
              int bits) {
  constexpr size_t kRadixMinKeys = 256;
  const size_t n = keys.size();
  if (n < kRadixMinKeys) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  const int digits = (bits + 7) / 8;
  std::array<std::array<size_t, 256>, 8> counts;
  for (int d = 0; d < digits; ++d) counts[d].fill(0);
  for (uint64_t key : keys)
    for (int d = 0; d < digits; ++d) ++counts[d][(key >> (8 * d)) & 0xff];
  scratch.resize(n);
  for (int d = 0; d < digits; ++d) {
    std::array<size_t, 256>& count = counts[d];
    if (count[(keys[0] >> (8 * d)) & 0xff] == n) continue;
    size_t sum = 0;
    for (size_t& c : count) sum += std::exchange(c, sum);
    for (uint64_t key : keys) scratch[count[(key >> (8 * d)) & 0xff]++] = key;
    keys.swap(scratch);
  }
}

}  // namespace

void RangeEncodeBoxes(std::vector<Interval>* flat, int ndim, int first_attr) {
  std::vector<Interval>& boxes = *flat;
  const size_t d = static_cast<size_t>(ndim);
  std::vector<KeyField> fields;          // packed path, reused per pass
  std::vector<uint64_t> keys, scratch;
  std::vector<const Interval*> rows;     // fallback path, reused per pass
  std::vector<Interval> sorted;
  for (int target = ndim - 1; target >= first_attr; --target) {
    const int64_t n = static_cast<int64_t>(boxes.size() / d);
    if (n <= 1) return;
    const size_t t = static_cast<size_t>(target);
    const int bits = LayOutKey(boxes.data(), n, ndim, target, &fields);
    if (bits >= 0) {
      // Packed path: sort the bare keys, then unpack the runs in place.
      keys.assign(static_cast<size_t>(n), 0);
      for (size_t k = 0; k < d; ++k) {
        const KeyField lo = fields[2 * k], extent = fields[2 * k + 1];
        const Interval* box = boxes.data() + k;
        for (uint64_t& key : keys) {
          key |= lo.Pack(LoColumn(*box)) | extent.Pack(ExtentColumn(*box));
          box += d;
        }
      }
      if (!std::is_sorted(keys.begin(), keys.end()))
        SortKeys(keys, scratch, bits);
      const KeyField lo = fields[2 * t], extent = fields[2 * t + 1];
      const uint64_t others =
          ~((lo.mask << lo.shift) | (extent.mask << extent.shift));
      Interval* out = boxes.data();
      auto flush = [&](uint64_t key, int64_t run_hi) {
        for (size_t k = 0; k < d; ++k)
          out[k] = UnpackInterval(fields[2 * k], fields[2 * k + 1], key);
        out[t].hi = run_hi;
        out += d;
      };
      uint64_t run = keys[0];
      int64_t run_hi = UnpackInterval(lo, extent, run).hi;
      for (size_t i = 1; i < keys.size(); ++i) {
        const uint64_t key = keys[i];
        const Interval next = UnpackInterval(lo, extent, key);
        if (((key ^ run) & others) == 0 && Coalesces(run_hi, next.lo)) {
          run_hi = std::max(run_hi, next.hi);
          continue;
        }
        flush(run, run_hi);
        run = key;
        run_hi = next.hi;
      }
      flush(run, run_hi);
      boxes.resize(static_cast<size_t>(out - boxes.data()));
      continue;
    }

    // Fallback (columns too wide to pack, or a box with hi < lo): comparator
    // sort of row pointers.
    rows.resize(static_cast<size_t>(n));
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = boxes.data() + i * d;
    std::sort(rows.begin(), rows.end(),
              [d, t](const Interval* a, const Interval* b) {
                for (size_t k = 0; k < d; ++k) {
                  if (k == t) continue;
                  int c = CompareIntervals(a[k], b[k]);
                  if (c != 0) return c < 0;
                }
                return CompareIntervals(a[t], b[t]) < 0;
              });
    auto same_others = [d, t](const Interval* a, const Interval* b) {
      for (size_t k = 0; k < d; ++k)
        if (k != t && !(a[k] == b[k])) return false;
      return true;
    };
    sorted.clear();
    auto flush = [&](const Interval* row, int64_t run_hi) {
      sorted.insert(sorted.end(), row, row + d);
      sorted[sorted.size() - d + t].hi = run_hi;
    };
    const Interval* run = rows[0];
    int64_t run_hi = run[t].hi;
    for (size_t i = 1; i < rows.size(); ++i) {
      const Interval* row = rows[i];
      if (same_others(run, row) && Coalesces(run_hi, row[t].lo)) {
        run_hi = std::max(run_hi, row[t].hi);
        continue;
      }
      flush(run, run_hi);
      run = row;
      run_hi = row[t].hi;
    }
    flush(run, run_hi);
    boxes.swap(sorted);
  }
}

}  // namespace dslog
