// Wire layer of the lineage service: the framed binary protocol shared by
// dslog_server and the client library. A connection is a byte stream of
// frames:
//
//   +----------------+--------+-------------+----------------------+
//   | u32 len (LE)   | u8 op  | u32 req (LE)| payload (len-5 bytes)|
//   +----------------+--------+-------------+----------------------+
//
// `len` counts everything after itself (opcode + request id + payload), so
// the minimum legal value is 5. Responses echo the request's id; the
// request ids of one session are client-chosen and need not be unique or
// ordered (the server serializes one session's requests anyway). Payloads
// reuse the storage layer's varint/zigzag primitives (compress/varint.h),
// so a BoxTable on the wire costs about what it costs in a LogStore
// footer.
//
// Robustness contract: FrameDecoder never trusts a length prefix — an
// oversized or undersized length fails *immediately* (before buffering the
// advertised bytes), and every payload codec below bounds its element
// counts by the bytes actually present, so a forged count can never
// balloon an allocation. Decode errors are Status values, never crashes;
// the server answers them with a typed error frame and tears the session
// down if the stream can no longer be re-synchronized.

#ifndef DSLOG_NET_WIRE_H_
#define DSLOG_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "array/op.h"
#include "common/result.h"
#include "common/status.h"
#include "lineage/lineage_relation.h"
#include "query/box.h"
#include "query/query_engine.h"

namespace dslog {
namespace net {

/// First payload field of a Hello frame; spells "DSLN" on the wire.
inline constexpr uint32_t kMagic = 0x4E4C5344;
/// Bumped whenever a message layout changes, so a peer speaking another
/// version is refused with NotSupported at Hello instead of misparsed.
inline constexpr uint32_t kProtocolVersion = 3;

/// Frame bytes after the length field that are not payload (opcode + id).
inline constexpr uint32_t kFrameOverhead = 5;

/// Default cap on one frame's payload. Generous for ingest data blocks,
/// small enough that a forged length prefix cannot look plausible.
inline constexpr int64_t kDefaultMaxFrameBytes = 64LL << 20;

/// Request opcodes occupy [0x01, 0x7F]; a response is its request | 0x80.
/// kError / kOverloaded answer any request.
enum class Opcode : uint8_t {
  kHello = 0x01,
  kOpenStore = 0x02,
  kDefineArray = 0x03,
  kReserveIds = 0x04,
  kIngestBatch = 0x05,
  kDrain = 0x06,
  kQuery = 0x07,
  kStats = 0x08,
  kBye = 0x09,
  /// Out-of-band: handled by the server's reactor the moment it is read
  /// (never queued behind the session's in-flight request) and has no
  /// response frame, so a blocked requester thread can be cancelled from
  /// another thread over the same socket.
  kCancel = 0x20,

  kHelloOk = 0x81,
  kOpenStoreOk = 0x82,
  kDefineArrayOk = 0x83,
  kReserveIdsOk = 0x84,
  kIngestBatchOk = 0x85,
  kDrainOk = 0x86,
  kQueryOk = 0x87,
  kStatsOk = 0x88,
  kByeOk = 0x89,
  /// Typed failure: payload is an encoded Status.
  kError = 0xF0,
  /// Typed admission-control shed: payload is an encoded Status with code
  /// kUnavailable. Distinct opcode so a client can count sheds without
  /// parsing payloads.
  kOverloaded = 0xF1,
};

/// One decoded frame.
struct Frame {
  uint8_t opcode = 0;
  uint32_t request_id = 0;
  std::string payload;
};

/// Appends one complete frame (length, header, payload) to `dst`.
void AppendFrame(std::string* dst, Opcode opcode, uint32_t request_id,
                 std::string_view payload);

/// Incremental frame extractor over an arbitrary chunking of the stream.
class FrameDecoder {
 public:
  explicit FrameDecoder(int64_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_payload_(max_frame_bytes) {}

  void Append(std::string_view bytes) { buf_.append(bytes); }

  /// Extracts the next complete frame into `out`. true = frame produced;
  /// false = the buffer holds no complete frame yet (read more bytes). An
  /// error Status means the stream is unsalvageable (length prefix shorter
  /// than a header or beyond the payload cap) — the connection must be
  /// torn down, since frame boundaries are lost.
  Result<bool> Next(Frame* out);

  /// Bytes buffered but not yet consumed by a produced frame. Non-zero
  /// after draining Next() means a partial frame is in flight — the
  /// condition the server's slow-loris idle sweep keys on.
  int64_t buffered() const { return static_cast<int64_t>(buf_.size() - pos_); }

 private:
  int64_t max_payload_;
  std::string buf_;
  size_t pos_ = 0;
};

// ------------------------------------------------------- payload codecs --
// All Get* functions decode at `*pos`, advance it on success, and return
// false on truncation or malformed bytes (partial writes into out-params
// are allowed; callers discard on failure).

void PutString(std::string* dst, std::string_view s);
bool GetString(std::string_view src, size_t* pos, std::string* out);

void PutBool(std::string* dst, bool v);
bool GetBool(std::string_view src, size_t* pos, bool* out);

/// Status: u8 code + message. Unknown code bytes decode as kInternal
/// (forward compatibility) rather than failing.
void PutStatus(std::string* dst, const Status& status);
bool GetStatus(std::string_view src, size_t* pos, Status* out);

/// Shapes and other small int64 vectors: varint count + zigzag elements.
void PutInt64Vector(std::string* dst, const std::vector<int64_t>& v);
bool GetInt64Vector(std::string_view src, size_t* pos,
                    std::vector<int64_t>* out);

/// BoxTable: varint ndim + varint num_boxes + zigzag lo/hi stream. The
/// decode is exact — boxes come back bit-for-bit in the original order,
/// which is what lets the differential suite compare server answers
/// against the in-process oracle without set-normalization.
void PutBoxTable(std::string* dst, const BoxTable& table);
bool GetBoxTable(std::string_view src, size_t* pos, BoxTable* out);

/// LineageRelation: ndims + shapes + varint row count + zigzag tuples.
void PutLineageRelation(std::string* dst, const LineageRelation& rel);
bool GetLineageRelation(std::string_view src, size_t* pos,
                        LineageRelation* out);

/// The QueryOptions fields that travel (merge/profile).
/// `cancel` stays host-local: the server arms its own per-request token.
void PutQueryOptions(std::string* dst, const QueryOptions& options);
bool GetQueryOptions(std::string_view src, size_t* pos, QueryOptions* out);

}  // namespace net
}  // namespace dslog

#endif  // DSLOG_NET_WIRE_H_
