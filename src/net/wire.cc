#include "net/wire.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "common/check.h"
#include "compress/varint.h"
#include "provrc/interval.h"

namespace dslog {
namespace net {

namespace {

// Decoded dimensionalities are bounded well below anything a legitimate
// array store produces, so a forged ndim cannot drive quadratic work.
constexpr uint64_t kMaxWireNdim = 64;

}  // namespace

void AppendFrame(std::string* dst, Opcode opcode, uint32_t request_id,
                 std::string_view payload) {
  // The length prefix is 32-bit; a payload the prefix cannot represent
  // would silently corrupt the stream. Senders bound payloads against the
  // negotiated max_frame_bytes long before this, so tripping here is a
  // caller bug, not remote input.
  DSLOG_CHECK(payload.size() <=
              std::numeric_limits<uint32_t>::max() - kFrameOverhead);
  PutFixed32(dst, static_cast<uint32_t>(payload.size()) + kFrameOverhead);
  dst->push_back(static_cast<char>(opcode));
  PutFixed32(dst, request_id);
  dst->append(payload);
}

Result<bool> FrameDecoder::Next(Frame* out) {
  const std::string_view view(buf_);
  size_t pos = pos_;
  uint32_t len = 0;
  if (!GetFixed32(view, &pos, &len)) return false;  // need more bytes
  if (len < kFrameOverhead)
    return Status::Corruption("frame length " + std::to_string(len) +
                              " shorter than frame header");
  const int64_t payload_len = static_cast<int64_t>(len) - kFrameOverhead;
  if (payload_len > max_payload_)
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(payload_len) +
        " bytes exceeds the " + std::to_string(max_payload_) + "-byte limit");
  if (view.size() - pos < len) return false;  // announced bytes not here yet
  out->opcode = static_cast<uint8_t>(view[pos++]);
  if (!GetFixed32(view, &pos, &out->request_id))
    return Status::Corruption("frame header truncated");
  out->payload.assign(view.substr(pos, static_cast<size_t>(payload_len)));
  pos_ = pos + static_cast<size_t>(payload_len);
  // Reclaim consumed bytes once they dominate the buffer, so a long-lived
  // session does not retain its high-water mark forever.
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return true;
}

void PutString(std::string* dst, std::string_view s) {
  PutLengthPrefixed(dst, s);
}

bool GetString(std::string_view src, size_t* pos, std::string* out) {
  return GetLengthPrefixed(src, pos, out);
}

void PutBool(std::string* dst, bool v) {
  dst->push_back(v ? '\x01' : '\x00');
}

bool GetBool(std::string_view src, size_t* pos, bool* out) {
  if (*pos >= src.size()) return false;
  *out = src[(*pos)++] != 0;
  return true;
}

void PutStatus(std::string* dst, const Status& status) {
  dst->push_back(static_cast<char>(status.code()));
  PutString(dst, status.message());
}

bool GetStatus(std::string_view src, size_t* pos, Status* out) {
  if (*pos >= src.size()) return false;
  const uint8_t code = static_cast<uint8_t>(src[(*pos)++]);
  std::string message;
  if (!GetString(src, pos, &message)) return false;
  if (code == 0) {
    *out = Status::OK();
    return true;
  }
  const uint8_t max_code = static_cast<uint8_t>(StatusCode::kUnavailable);
  const StatusCode sc = code <= max_code ? static_cast<StatusCode>(code)
                                         : StatusCode::kInternal;
  *out = Status::FromCode(sc, std::move(message));
  return true;
}

void PutInt64Vector(std::string* dst, const std::vector<int64_t>& v) {
  PutVarint64(dst, v.size());
  for (int64_t x : v) PutVarintSigned(dst, x);
}

bool GetInt64Vector(std::string_view src, size_t* pos,
                    std::vector<int64_t>* out) {
  uint64_t n = 0;
  if (!GetVarint64(src, pos, &n)) return false;
  // Each element costs at least one byte, bounding a forged count.
  if (n > src.size() - *pos) return false;
  out->clear();
  // Cap the up-front reserve: n is byte-bounded but one wire byte maps to
  // eight allocated bytes, so let large vectors grow as bytes decode.
  out->reserve(static_cast<size_t>(std::min<uint64_t>(n, 4096)));
  for (uint64_t i = 0; i < n; ++i) {
    int64_t x;
    if (!GetVarintSigned(src, pos, &x)) return false;
    out->push_back(x);
  }
  return true;
}

void PutBoxTable(std::string* dst, const BoxTable& table) {
  PutVarint64(dst, static_cast<uint64_t>(table.ndim()));
  PutVarint64(dst, static_cast<uint64_t>(table.num_boxes()));
  for (int64_t b = 0; b < table.num_boxes(); ++b) {
    for (const Interval& iv : table.Box(b)) {
      PutVarintSigned(dst, iv.lo);
      PutVarintSigned(dst, iv.hi);
    }
  }
}

bool GetBoxTable(std::string_view src, size_t* pos, BoxTable* out) {
  uint64_t ndim = 0, boxes = 0;
  if (!GetVarint64(src, pos, &ndim)) return false;
  if (ndim > kMaxWireNdim) return false;
  if (!GetVarint64(src, pos, &boxes)) return false;
  // Two varints per interval, one byte minimum each. A 0-dim table never
  // carries boxes (num_boxes() is defined as 0 then), so a nonzero count
  // with ndim==0 is forged — without this check it would spin the decode
  // loop ~2^64 times on zero-byte boxes.
  if (ndim == 0) {
    if (boxes > 0) return false;
  } else if (boxes > (src.size() - *pos) / (2 * ndim)) {
    return false;
  }
  *out = BoxTable(static_cast<int>(ndim));
  std::vector<Interval> box(static_cast<size_t>(ndim));
  for (uint64_t b = 0; b < boxes; ++b) {
    for (uint64_t d = 0; d < ndim; ++d) {
      if (!GetVarintSigned(src, pos, &box[d].lo)) return false;
      if (!GetVarintSigned(src, pos, &box[d].hi)) return false;
    }
    out->AddBox(box);
  }
  return true;
}

void PutLineageRelation(std::string* dst, const LineageRelation& rel) {
  PutVarint64(dst, static_cast<uint64_t>(rel.out_ndim()));
  PutVarint64(dst, static_cast<uint64_t>(rel.in_ndim()));
  PutInt64Vector(dst, rel.out_shape());
  PutInt64Vector(dst, rel.in_shape());
  PutVarint64(dst, static_cast<uint64_t>(rel.num_rows()));
  for (int64_t x : rel.flat()) PutVarintSigned(dst, x);
}

bool GetLineageRelation(std::string_view src, size_t* pos,
                        LineageRelation* out) {
  uint64_t out_ndim = 0, in_ndim = 0;
  if (!GetVarint64(src, pos, &out_ndim)) return false;
  if (!GetVarint64(src, pos, &in_ndim)) return false;
  if (out_ndim > kMaxWireNdim || in_ndim > kMaxWireNdim) return false;
  std::vector<int64_t> out_shape, in_shape;
  if (!GetInt64Vector(src, pos, &out_shape)) return false;
  if (!GetInt64Vector(src, pos, &in_shape)) return false;
  if (out_shape.size() != out_ndim || in_shape.size() != in_ndim) return false;
  uint64_t rows = 0;
  if (!GetVarint64(src, pos, &rows)) return false;
  const uint64_t arity = out_ndim + in_ndim;
  // An arity-0 relation never carries rows (num_rows() is defined as 0
  // then); a nonzero forged count would otherwise spin on zero-byte rows.
  if (arity == 0) {
    if (rows > 0) return false;
  } else if (rows > (src.size() - *pos) / arity) {
    return false;
  }
  *out = LineageRelation(static_cast<int>(out_ndim), static_cast<int>(in_ndim));
  out->set_shapes(std::move(out_shape), std::move(in_shape));
  // `rows` is bounded by payload bytes, but reserving it all up front
  // still multiplies attacker bytes by sizeof(int64_t)*arity; let growth
  // track what actually decodes instead.
  out->Reserve(static_cast<int64_t>(std::min<uint64_t>(rows, 4096)));
  std::vector<int64_t> tuple(static_cast<size_t>(arity));
  for (uint64_t r = 0; r < rows; ++r) {
    for (uint64_t i = 0; i < arity; ++i) {
      if (!GetVarintSigned(src, pos, &tuple[i])) return false;
    }
    out->AddTuple(tuple);
  }
  return true;
}

void PutQueryOptions(std::string* dst, const QueryOptions& options) {
  PutBool(dst, options.merge_between_hops);
  PutVarint64(dst, static_cast<uint64_t>(std::max(1, options.num_threads)));
  PutBool(dst, options.profile);
}

bool GetQueryOptions(std::string_view src, size_t* pos, QueryOptions* out) {
  *out = QueryOptions();
  if (!GetBool(src, pos, &out->merge_between_hops)) return false;
  uint64_t threads = 0;
  if (!GetVarint64(src, pos, &threads)) return false;
  if (threads == 0 || threads > 1024) return false;
  out->num_threads = static_cast<int>(threads);
  return GetBool(src, pos, &out->profile);
}

}  // namespace net
}  // namespace dslog
