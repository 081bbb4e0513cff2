// Wire-layer proof: every payload codec round-trips exactly and fails
// cleanly on every strict prefix; the FrameDecoder survives arbitrary
// chunkings and rejects forged length prefixes before buffering; and a
// live DslogServer answers adversarial byte streams — truncated frames,
// oversized lengths, garbage opcodes, mid-frame disconnects, slow-loris
// stalls, seeded fuzz — with typed errors or clean teardown, never a
// crash, and stays serviceable throughout.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "compress/varint.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/wire.h"

namespace dslog {
namespace net {
namespace {

// ------------------------------------------------------ codec round trips --

TEST(WireCodecTest, StringRoundTrip) {
  for (const std::string& s :
       {std::string(), std::string("abc"), std::string("nul\0nul", 7),
        std::string(5000, 'x')}) {
    std::string buf;
    PutString(&buf, s);
    size_t pos = 0;
    std::string out;
    ASSERT_TRUE(GetString(buf, &pos, &out));
    EXPECT_EQ(out, s);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(WireCodecTest, StringRejectsForgedLength) {
  // A length prefix advertising more bytes than exist must fail, not
  // allocate.
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf += "abc";
  size_t pos = 0;
  std::string out;
  EXPECT_FALSE(GetString(buf, &pos, &out));
}

TEST(WireCodecTest, BoolRoundTrip) {
  std::string buf;
  PutBool(&buf, true);
  PutBool(&buf, false);
  size_t pos = 0;
  bool a = false, b = true;
  ASSERT_TRUE(GetBool(buf, &pos, &a));
  ASSERT_TRUE(GetBool(buf, &pos, &b));
  EXPECT_TRUE(a);
  EXPECT_FALSE(b);
  EXPECT_FALSE(GetBool(buf, &pos, &a)) << "past the end";
}

TEST(WireCodecTest, StatusRoundTripAllCodes) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kCorruption,
        StatusCode::kIOError, StatusCode::kNotSupported,
        StatusCode::kOutOfRange, StatusCode::kInternal, StatusCode::kCancelled,
        StatusCode::kUnavailable}) {
    const Status in = Status::FromCode(code, "m");
    std::string buf;
    PutStatus(&buf, in);
    size_t pos = 0;
    Status out = Status::OK();
    ASSERT_TRUE(GetStatus(buf, &pos, &out));
    EXPECT_EQ(out.code(), code);
    if (code != StatusCode::kOk) {
      EXPECT_EQ(out.message(), "m");
    }
  }
}

TEST(WireCodecTest, StatusUnknownCodeDecodesAsInternal) {
  std::string buf;
  buf.push_back(static_cast<char>(200));
  PutString(&buf, "future code");
  size_t pos = 0;
  Status out = Status::OK();
  ASSERT_TRUE(GetStatus(buf, &pos, &out));
  EXPECT_EQ(out.code(), StatusCode::kInternal);
}

TEST(WireCodecTest, Int64VectorRoundTrip) {
  for (const std::vector<int64_t>& v :
       {std::vector<int64_t>{}, std::vector<int64_t>{0},
        std::vector<int64_t>{-1, 1, -(1ll << 40), 1ll << 40, INT64_MIN,
                             INT64_MAX}}) {
    std::string buf;
    PutInt64Vector(&buf, v);
    size_t pos = 0;
    std::vector<int64_t> out;
    ASSERT_TRUE(GetInt64Vector(buf, &pos, &out));
    EXPECT_EQ(out, v);
    EXPECT_EQ(pos, buf.size());
  }
}

BoxTable MakeBoxes() {
  BoxTable t(2);
  t.AddBox(std::vector<Interval>{{0, 3}, {5, 5}});
  t.AddBox(std::vector<Interval>{{-7, -2}, {0, 1000000}});
  return t;
}

void ExpectSameBoxes(const BoxTable& a, const BoxTable& b) {
  ASSERT_EQ(a.ndim(), b.ndim());
  ASSERT_EQ(a.num_boxes(), b.num_boxes());
  for (int64_t i = 0; i < a.num_boxes(); ++i) {
    auto ba = a.Box(i), bb = b.Box(i);
    for (int d = 0; d < a.ndim(); ++d) {
      EXPECT_EQ(ba[d].lo, bb[d].lo);
      EXPECT_EQ(ba[d].hi, bb[d].hi);
    }
  }
}

TEST(WireCodecTest, BoxTableRoundTripIsExact) {
  for (const BoxTable& t : {BoxTable(), BoxTable(3), MakeBoxes()}) {
    std::string buf;
    PutBoxTable(&buf, t);
    size_t pos = 0;
    BoxTable out;
    ASSERT_TRUE(GetBoxTable(buf, &pos, &out));
    ExpectSameBoxes(t, out);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(WireCodecTest, BoxTableRejectsForgedBoxCount) {
  std::string buf;
  PutVarint64(&buf, 2);          // ndim
  PutVarint64(&buf, 1ull << 50);  // boxes: absurd vs bytes present
  PutVarintSigned(&buf, 1);
  size_t pos = 0;
  BoxTable out;
  EXPECT_FALSE(GetBoxTable(buf, &pos, &out));
}

TEST(WireCodecTest, BoxTableRejectsZeroDimForgedBoxCount) {
  // ndim==0 makes each box zero bytes, so the byte bound alone cannot
  // catch a forged count — decode must reject it outright instead of
  // spinning ~2^61 iterations (a legit 0-dim table always encodes 0).
  std::string buf;
  PutVarint64(&buf, 0);           // ndim
  PutVarint64(&buf, 1ull << 61);  // boxes
  size_t pos = 0;
  BoxTable out;
  EXPECT_FALSE(GetBoxTable(buf, &pos, &out));
}

LineageRelation MakeRelation() {
  LineageRelation rel(1, 2);
  rel.set_shapes({4}, {4, 3});
  const int64_t out0[] = {1}, in0[] = {0, 2};
  const int64_t out1[] = {3}, in1[] = {2, 1};
  rel.Add(out0, in0);
  rel.Add(out1, in1);
  return rel;
}

TEST(WireCodecTest, LineageRelationRoundTrip) {
  const LineageRelation rel = MakeRelation();
  std::string buf;
  PutLineageRelation(&buf, rel);
  size_t pos = 0;
  LineageRelation out;
  ASSERT_TRUE(GetLineageRelation(buf, &pos, &out));
  EXPECT_EQ(pos, buf.size());
  EXPECT_EQ(out.out_ndim(), rel.out_ndim());
  EXPECT_EQ(out.in_ndim(), rel.in_ndim());
  EXPECT_EQ(out.out_shape(), rel.out_shape());
  EXPECT_EQ(out.in_shape(), rel.in_shape());
  EXPECT_EQ(out.flat(), rel.flat());
}

TEST(WireCodecTest, LineageRelationRejectsZeroArityForgedRowCount) {
  // Same hole as the 0-dim BoxTable: arity 0 rows are zero bytes each.
  std::string buf;
  PutVarint64(&buf, 0);                     // out_ndim
  PutVarint64(&buf, 0);                     // in_ndim
  PutInt64Vector(&buf, {});                 // out_shape
  PutInt64Vector(&buf, {});                 // in_shape
  PutVarint64(&buf, 1ull << 61);            // rows
  size_t pos = 0;
  LineageRelation out;
  EXPECT_FALSE(GetLineageRelation(buf, &pos, &out));
}

TEST(WireCodecTest, ZeroArityRelationWithZeroRowsRoundTrips) {
  const LineageRelation rel(0, 0);
  std::string buf;
  PutLineageRelation(&buf, rel);
  size_t pos = 0;
  LineageRelation out;
  ASSERT_TRUE(GetLineageRelation(buf, &pos, &out));
  EXPECT_EQ(pos, buf.size());
  EXPECT_EQ(out.num_rows(), 0);
}

TEST(WireCodecTest, QueryOptionsRoundTrip) {
  QueryOptions in;
  in.merge_between_hops = false;
  in.num_threads = 7;
  in.profile = true;
  std::string buf;
  PutQueryOptions(&buf, in);
  EXPECT_EQ(buf.size(), 2u) << "two bools: merge and profile";
  size_t pos = 0;
  QueryOptions out;
  ASSERT_TRUE(GetQueryOptions(buf, &pos, &out));
  EXPECT_EQ(out.merge_between_hops, in.merge_between_hops);
  EXPECT_EQ(out.profile, in.profile);
  // A single query runs on one thread, so the server never reads a
  // thread count: it does not travel.
  EXPECT_EQ(out.num_threads, 1) << "num_threads never travels";
  EXPECT_EQ(out.cancel, nullptr) << "cancel never travels";
}

TEST(WireCodecTest, QueryOptionsRejectsHostileValues) {
  for (size_t len : {0, 1}) {  // truncated
    std::string buf;
    PutBool(&buf, true);
    PutBool(&buf, false);
    buf.resize(len);
    size_t pos = 0;
    QueryOptions out;
    EXPECT_FALSE(GetQueryOptions(buf, &pos, &out)) << "length " << len;
  }
  {  // v2 layout (merge, varint thread count, profile): a trailing byte
    std::string payload;
    PutVarint64(&payload, 0);  // empty path
    PutBoxTable(&payload, BoxTable(1));
    PutBool(&payload, true);
    PutVarint64(&payload, 4);
    PutBool(&payload, false);
    QueryRequest out;
    EXPECT_FALSE(QueryRequest::Decode(payload, &out));
  }
}

// -------------------------------------------------- protocol round trips --

OperationRegistration MakeRegistration() {
  OperationRegistration reg;
  reg.op_name = "sum";
  reg.in_arrs = {"A", "A2"};
  reg.out_arr = "B";
  reg.captured = {MakeRelation(), MakeRelation()};
  reg.args.SetInt("axis", 1).SetDouble("scale", 2.5).SetIntList("perm", {2, 0, 1});
  reg.content_hash = 0xDEADBEEFCAFEF00Dull;
  reg.reuse = false;
  return reg;
}

void ExpectSameRegistration(const OperationRegistration& a,
                            const OperationRegistration& b) {
  EXPECT_EQ(a.op_name, b.op_name);
  EXPECT_EQ(a.in_arrs, b.in_arrs);
  EXPECT_EQ(a.out_arr, b.out_arr);
  ASSERT_EQ(a.captured.size(), b.captured.size());
  for (size_t i = 0; i < a.captured.size(); ++i) {
    EXPECT_EQ(a.captured[i].flat(), b.captured[i].flat());
    EXPECT_EQ(a.captured[i].out_shape(), b.captured[i].out_shape());
    EXPECT_EQ(a.captured[i].in_shape(), b.captured[i].in_shape());
  }
  EXPECT_EQ(a.args.Hash(), b.args.Hash());
  EXPECT_EQ(a.content_hash, b.content_hash);
  EXPECT_EQ(a.reuse, b.reuse);
}

TEST(ProtocolTest, HelloRoundTrip) {
  HelloRequest req;
  req.client_name = "tester";
  HelloRequest dreq;
  ASSERT_TRUE(HelloRequest::Decode(req.Encode(), &dreq));
  EXPECT_EQ(dreq.magic, kMagic);
  EXPECT_EQ(dreq.version, kProtocolVersion);
  EXPECT_EQ(dreq.client_name, "tester");

  HelloResponse resp;
  resp.server_name = "srv";
  resp.max_frame_bytes = 123456;
  HelloResponse dresp;
  ASSERT_TRUE(HelloResponse::Decode(resp.Encode(), &dresp));
  EXPECT_EQ(dresp.version, kProtocolVersion);
  EXPECT_EQ(dresp.server_name, "srv");
  EXPECT_EQ(dresp.max_frame_bytes, 123456);
}

TEST(ProtocolTest, OpenStoreAndDefineArrayRoundTrip) {
  OpenStoreRequest os;
  os.store = "tenant-7";
  os.create = false;
  OpenStoreRequest dos;
  ASSERT_TRUE(OpenStoreRequest::Decode(os.Encode(), &dos));
  EXPECT_EQ(dos.store, "tenant-7");
  EXPECT_FALSE(dos.create);

  DefineArrayRequest da;
  da.name = "A";
  da.shape = {3, 2, 9};
  DefineArrayRequest dda;
  ASSERT_TRUE(DefineArrayRequest::Decode(da.Encode(), &dda));
  EXPECT_EQ(dda.name, "A");
  EXPECT_EQ(dda.shape, (std::vector<int64_t>{3, 2, 9}));
}

TEST(ProtocolTest, ReserveIdsRoundTrip) {
  ReserveIdsRequest req;
  req.count = 32;
  ReserveIdsRequest dreq;
  ASSERT_TRUE(ReserveIdsRequest::Decode(req.Encode(), &dreq));
  EXPECT_EQ(dreq.count, 32u);

  ReserveIdsResponse resp;
  resp.base = 1ull << 33;
  resp.count = 32;
  ReserveIdsResponse dresp;
  ASSERT_TRUE(ReserveIdsResponse::Decode(resp.Encode(), &dresp));
  EXPECT_EQ(dresp.base, 1ull << 33);
  EXPECT_EQ(dresp.count, 32u);
}

TEST(ProtocolTest, IngestBatchRoundTrip) {
  IngestBatchRequest req;
  req.ops.push_back({7, MakeRegistration()});
  req.ops.push_back({8, MakeRegistration()});
  IngestBatchRequest dreq;
  ASSERT_TRUE(IngestBatchRequest::Decode(req.Encode(), &dreq));
  ASSERT_EQ(dreq.ops.size(), 2u);
  EXPECT_EQ(dreq.ops[0].op_id, 7u);
  EXPECT_EQ(dreq.ops[1].op_id, 8u);
  ExpectSameRegistration(req.ops[0].reg, dreq.ops[0].reg);
  ExpectSameRegistration(req.ops[1].reg, dreq.ops[1].reg);

  IngestBatchResponse resp;
  resp.staged = 42;
  IngestBatchResponse dresp;
  ASSERT_TRUE(IngestBatchResponse::Decode(resp.Encode(), &dresp));
  EXPECT_EQ(dresp.staged, 42);
}

TEST(ProtocolTest, IngestBatchRejectsForgedOpCountWithoutBallooning) {
  // A count that passes the byte bound but exceeds the ops present must
  // fail on the first missing op, with allocation tracking decoded bytes
  // (not count * sizeof(WireOperation)).
  std::string buf;
  PutVarint64(&buf, 1000);
  buf.append(1000, '\0');  // bytes exist, but they are not 1000 ops
  IngestBatchRequest out;
  EXPECT_FALSE(IngestBatchRequest::Decode(buf, &out));
  EXPECT_LT(out.ops.size(), 1000u)
      << "allocation must track decoded bytes, not the forged count";
}

TEST(ProtocolTest, DrainResponseRoundTrip) {
  DrainResponse resp;
  for (int bits = 0; bits < 8; ++bits) {
    ReuseOutcome o;
    o.base_hit = bits & 1;
    o.dim_hit = bits & 2;
    o.gen_hit = bits & 4;
    resp.outcomes.push_back(o);
  }
  DrainResponse dresp;
  ASSERT_TRUE(DrainResponse::Decode(resp.Encode(), &dresp));
  ASSERT_EQ(dresp.outcomes.size(), 8u);
  for (int bits = 0; bits < 8; ++bits) {
    EXPECT_EQ(dresp.outcomes[bits].base_hit, bool(bits & 1));
    EXPECT_EQ(dresp.outcomes[bits].dim_hit, bool(bits & 2));
    EXPECT_EQ(dresp.outcomes[bits].gen_hit, bool(bits & 4));
  }
}

TEST(ProtocolTest, DrainResponseRejectsUnknownOutcomeBits) {
  std::string buf;
  PutVarint64(&buf, 1);
  buf.push_back(static_cast<char>(0x80));
  DrainResponse out;
  EXPECT_FALSE(DrainResponse::Decode(buf, &out));
}

TEST(ProtocolTest, QueryRoundTrip) {
  QueryRequest req;
  req.path = {"A", "B", "C"};
  req.query = MakeBoxes();
  req.options.merge_between_hops = false;
  req.options.num_threads = 4;
  req.options.profile = true;
  QueryRequest dreq;
  ASSERT_TRUE(QueryRequest::Decode(req.Encode(), &dreq));
  EXPECT_EQ(dreq.path, req.path);
  ExpectSameBoxes(req.query, dreq.query);
  EXPECT_FALSE(dreq.options.merge_between_hops);
  EXPECT_EQ(dreq.options.num_threads, 1) << "num_threads never travels";
  EXPECT_TRUE(dreq.options.profile);

  QueryResponse resp;
  resp.result = MakeBoxes();
  resp.profile_json = "{\"hops\":[]}";
  QueryResponse dresp;
  ASSERT_TRUE(QueryResponse::Decode(resp.Encode(), &dresp));
  ExpectSameBoxes(resp.result, dresp.result);
  EXPECT_EQ(dresp.profile_json, resp.profile_json);
}

TEST(ProtocolTest, StatusPayloadRoundTrip) {
  Status decoded = DecodeStatusPayload(
      EncodeStatusPayload(Status::Unavailable("server overloaded")));
  EXPECT_EQ(decoded.code(), StatusCode::kUnavailable);
  EXPECT_EQ(decoded.message(), "server overloaded");
  EXPECT_EQ(DecodeStatusPayload("").code(), StatusCode::kInternal);
}

// Every strict prefix of every message encoding must fail to decode —
// never crash, never succeed on partial data — and every encoding must
// reject one trailing byte (strictness).
template <typename T>
void CheckPrefixRejection(const T& msg) {
  const std::string full = msg.Encode();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    T out;
    EXPECT_FALSE(T::Decode(std::string_view(full).substr(0, cut), &out))
        << "prefix of " << cut << "/" << full.size() << " bytes decoded";
  }
  T out;
  EXPECT_TRUE(T::Decode(full, &out));
  EXPECT_FALSE(T::Decode(full + std::string(1, '\0'), &out))
      << "trailing byte accepted";
}

TEST(ProtocolTest, EveryMessageRejectsTruncationAndTrailingBytes) {
  HelloRequest hello;
  hello.client_name = "c";
  CheckPrefixRejection(hello);
  HelloResponse hello_ok;
  hello_ok.server_name = "s";
  CheckPrefixRejection(hello_ok);
  OpenStoreRequest open;
  open.store = "t";
  CheckPrefixRejection(open);
  DefineArrayRequest define;
  define.name = "A";
  define.shape = {3, 2};
  CheckPrefixRejection(define);
  ReserveIdsRequest reserve;
  reserve.count = 5;
  CheckPrefixRejection(reserve);
  ReserveIdsResponse reserved;
  reserved.base = 100;
  reserved.count = 5;
  CheckPrefixRejection(reserved);
  IngestBatchRequest ingest;
  ingest.ops.push_back({1, MakeRegistration()});
  CheckPrefixRejection(ingest);
  IngestBatchResponse ingested;
  ingested.staged = 3;
  CheckPrefixRejection(ingested);
  DrainResponse drained;
  drained.outcomes.resize(2);
  CheckPrefixRejection(drained);
  QueryRequest query;
  query.path = {"A", "B"};
  query.query = MakeBoxes();
  CheckPrefixRejection(query);
  QueryResponse answered;
  answered.result = MakeBoxes();
  CheckPrefixRejection(answered);
  StatsResponse stats;
  stats.json = "{}";
  CheckPrefixRejection(stats);
}

// ------------------------------------------------------- frame decoding --

TEST(FrameDecoderTest, ByteByByteDeliveryMatchesBulk) {
  std::string stream;
  AppendFrame(&stream, Opcode::kQuery, 42, "payload-bytes");
  AppendFrame(&stream, Opcode::kStats, 43, "");

  FrameDecoder bulk;
  bulk.Append(stream);
  Frame a, b;
  ASSERT_TRUE(bulk.Next(&a).value());
  ASSERT_TRUE(bulk.Next(&b).value());
  EXPECT_EQ(bulk.buffered(), 0);

  FrameDecoder drip;
  std::vector<Frame> got;
  for (char c : stream) {
    drip.Append(std::string_view(&c, 1));
    Frame f;
    auto r = drip.Next(&f);
    ASSERT_TRUE(r.ok());
    if (r.value()) got.push_back(std::move(f));
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].opcode, a.opcode);
  EXPECT_EQ(got[0].request_id, 42u);
  EXPECT_EQ(got[0].payload, "payload-bytes");
  EXPECT_EQ(got[1].opcode, b.opcode);
  EXPECT_EQ(got[1].request_id, 43u);
  EXPECT_TRUE(got[1].payload.empty());
}

TEST(FrameDecoderTest, PartialFrameReportsBuffered) {
  std::string stream;
  AppendFrame(&stream, Opcode::kHello, 1, "abcdef");
  FrameDecoder d;
  d.Append(std::string_view(stream).substr(0, 7));
  Frame f;
  ASSERT_FALSE(d.Next(&f).value());
  EXPECT_GT(d.buffered(), 0) << "mid-frame bytes must be visible";
  d.Append(std::string_view(stream).substr(7));
  ASSERT_TRUE(d.Next(&f).value());
  EXPECT_EQ(d.buffered(), 0);
}

TEST(FrameDecoderTest, OversizedLengthFailsBeforeBuffering) {
  // Only the 4 length bytes arrive; the decoder must reject immediately
  // instead of waiting for (or allocating) the advertised 4 GB.
  std::string lead;
  PutFixed32(&lead, 0xFFFFFFFFu);
  FrameDecoder d(/*max_frame_bytes=*/1 << 20);
  d.Append(lead);
  Frame f;
  auto r = d.Next(&f);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameDecoderTest, LengthShorterThanHeaderIsCorruption) {
  std::string lead;
  PutFixed32(&lead, kFrameOverhead - 1);
  FrameDecoder d;
  d.Append(lead);
  Frame f;
  auto r = d.Next(&f);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(FrameDecoderTest, LargestLegalPayloadRoundTrips) {
  FrameDecoder d(/*max_frame_bytes=*/4096);
  std::string stream;
  AppendFrame(&stream, Opcode::kIngestBatch, 9, std::string(4096, 'z'));
  d.Append(stream);
  Frame f;
  ASSERT_TRUE(d.Next(&f).value());
  EXPECT_EQ(f.payload.size(), 4096u);
}

// ------------------------------------------------- adversarial, live TCP --

// A raw socket speaking whatever bytes a test wants — the hostile client.
class RawConn {
 public:
  explicit RawConn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConn() { Close(); }

  bool ok() const { return fd_ >= 0; }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool Send(std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  bool SendFrame(Opcode op, uint32_t id, std::string_view payload) {
    std::string buf;
    AppendFrame(&buf, op, id, payload);
    return Send(buf);
  }

  /// Reads until one frame decodes, EOF, or timeout. nullopt = EOF/timeout.
  std::optional<Frame> ReadFrame() {
    Frame f;
    for (;;) {
      auto r = decoder_.Next(&f);
      if (!r.ok()) return std::nullopt;
      if (r.value()) return f;
      char buf[4096];
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return std::nullopt;
      decoder_.Append(std::string_view(buf, static_cast<size_t>(n)));
    }
  }

  /// True once the server closes its end (recv returns 0) within ~5 s.
  bool WaitForEof() {
    for (;;) {
      char buf[4096];
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;  // timeout or error: not an EOF
    }
  }

  /// Runs the Hello handshake; true on kHelloOk.
  bool Hello() {
    HelloRequest req;
    req.client_name = "raw";
    if (!SendFrame(Opcode::kHello, 1, req.Encode())) return false;
    auto f = ReadFrame();
    return f && f->opcode == static_cast<uint8_t>(Opcode::kHelloOk);
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

std::unique_ptr<DslogServer> StartServer(ServerOptions options = {}) {
  options.worker_threads = 2;
  auto server = std::make_unique<DslogServer>(options);
  EXPECT_TRUE(server->Start().ok());
  return server;
}

// The server is still serviceable: a well-behaved session completes a
// full handshake + stats round trip.
void ExpectServiceable(const DslogServer& server) {
  RawConn probe(server.port());
  ASSERT_TRUE(probe.ok());
  ASSERT_TRUE(probe.Hello());
  ASSERT_TRUE(probe.SendFrame(Opcode::kStats, 2, ""));
  auto f = probe.ReadFrame();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->opcode, static_cast<uint8_t>(Opcode::kStatsOk));
}

void AwaitNoSessions(const DslogServer& server) {
  for (int i = 0; i < 500 && server.active_sessions() > 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(server.active_sessions(), 0);
}

TEST(AdversarialWireTest, OversizedLengthPrefixGetsTypedErrorThenClose) {
  ServerOptions options;
  options.max_frame_bytes = 1 << 16;
  auto server = StartServer(options);
  RawConn conn(server->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.Hello());
  std::string lead;
  PutFixed32(&lead, 0xFFFFFFFFu);
  ASSERT_TRUE(conn.Send(lead));
  auto f = conn.ReadFrame();
  ASSERT_TRUE(f.has_value()) << "expected a typed parting error";
  EXPECT_EQ(f->opcode, static_cast<uint8_t>(Opcode::kError));
  EXPECT_EQ(DecodeStatusPayload(f->payload).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(conn.WaitForEof());
  ExpectServiceable(*server);
}

TEST(AdversarialWireTest, LengthShorterThanHeaderGetsTypedErrorThenClose) {
  auto server = StartServer();
  RawConn conn(server->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.Hello());
  std::string lead;
  PutFixed32(&lead, 2);
  ASSERT_TRUE(conn.Send(lead));
  auto f = conn.ReadFrame();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->opcode, static_cast<uint8_t>(Opcode::kError));
  EXPECT_EQ(DecodeStatusPayload(f->payload).code(), StatusCode::kCorruption);
  EXPECT_TRUE(conn.WaitForEof());
  ExpectServiceable(*server);
}

TEST(AdversarialWireTest, GarbageOpcodeAnswersErrorAndSessionSurvives) {
  auto server = StartServer();
  RawConn conn(server->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.Hello());
  ASSERT_TRUE(conn.SendFrame(static_cast<Opcode>(0x55), 7, "junk"));
  auto err = conn.ReadFrame();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->opcode, static_cast<uint8_t>(Opcode::kError));
  EXPECT_EQ(err->request_id, 7u);
  // Framing was intact, so the session must still work.
  ASSERT_TRUE(conn.SendFrame(Opcode::kStats, 8, ""));
  auto ok = conn.ReadFrame();
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->opcode, static_cast<uint8_t>(Opcode::kStatsOk));
  EXPECT_EQ(ok->request_id, 8u);
}

TEST(AdversarialWireTest, MalformedPayloadAnswersTypedError) {
  auto server = StartServer();
  RawConn conn(server->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.Hello());
  // A Query frame whose payload is garbage: typed error, session survives.
  ASSERT_TRUE(conn.SendFrame(Opcode::kQuery, 3, "\x01\x02\x03"));
  auto err = conn.ReadFrame();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->opcode, static_cast<uint8_t>(Opcode::kError));
  ASSERT_TRUE(conn.SendFrame(Opcode::kStats, 4, ""));
  auto ok = conn.ReadFrame();
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->opcode, static_cast<uint8_t>(Opcode::kStatsOk));
}

TEST(AdversarialWireTest, FirstFrameMustBeHello) {
  auto server = StartServer();
  RawConn conn(server->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.SendFrame(Opcode::kStats, 1, ""));
  auto f = conn.ReadFrame();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->opcode, static_cast<uint8_t>(Opcode::kError));
  EXPECT_TRUE(conn.WaitForEof());
}

TEST(AdversarialWireTest, BadMagicAndWrongVersionAreRejected) {
  auto server = StartServer();
  {
    RawConn conn(server->port());
    ASSERT_TRUE(conn.ok());
    HelloRequest req;
    req.magic = 0x12345678;
    ASSERT_TRUE(conn.SendFrame(Opcode::kHello, 1, req.Encode()));
    auto f = conn.ReadFrame();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->opcode, static_cast<uint8_t>(Opcode::kError));
    EXPECT_TRUE(conn.WaitForEof());
  }
  // An unknown future version, version 2, whose QueryOptions carried a
  // thread count, and version 1, whose QueryOptions carried an access-path
  // byte, are all refused rather than misparsed.
  static_assert(kProtocolVersion == 3);
  for (uint32_t version : {99u, 2u, 1u}) {
    RawConn conn(server->port());
    ASSERT_TRUE(conn.ok());
    HelloRequest req;
    req.version = version;
    ASSERT_TRUE(conn.SendFrame(Opcode::kHello, 1, req.Encode()));
    auto f = conn.ReadFrame();
    ASSERT_TRUE(f.has_value()) << "version " << version;
    EXPECT_EQ(f->opcode, static_cast<uint8_t>(Opcode::kError));
    EXPECT_EQ(DecodeStatusPayload(f->payload).code(),
              StatusCode::kNotSupported)
        << "version " << version;
    EXPECT_TRUE(conn.WaitForEof());
  }
  ExpectServiceable(*server);
}

TEST(AdversarialWireTest, MidFrameDisconnectLeavesServerServiceable) {
  auto server = StartServer();
  for (int i = 0; i < 8; ++i) {
    RawConn conn(server->port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn.Hello());
    std::string frame;
    AppendFrame(&frame, Opcode::kIngestBatch, 2, std::string(1000, 'x'));
    // Ship only half, then vanish.
    ASSERT_TRUE(conn.Send(std::string_view(frame).substr(0, frame.size() / 2)));
    conn.Close();
  }
  ExpectServiceable(*server);
  AwaitNoSessions(*server);
}

TEST(AdversarialWireTest, SlowLorisIsTornDownButQuietIdleIsNot) {
  ServerOptions options;
  options.idle_timeout_ms = 150;
  auto server = StartServer(options);

  // A session idling *between* complete requests is healthy and must
  // survive far past the timeout.
  RawConn quiet(server->port());
  ASSERT_TRUE(quiet.ok());
  ASSERT_TRUE(quiet.Hello());

  // Mid-frame staller: ships a length prefix then trickles nothing.
  RawConn loris(server->port());
  ASSERT_TRUE(loris.ok());
  ASSERT_TRUE(loris.Hello());
  std::string frame;
  AppendFrame(&frame, Opcode::kStats, 2, "");
  ASSERT_TRUE(loris.Send(std::string_view(frame).substr(0, 3)));
  EXPECT_TRUE(loris.WaitForEof()) << "mid-frame stall must be torn down";

  // Pre-Hello silence is also an unmet obligation.
  RawConn mute(server->port());
  ASSERT_TRUE(mute.ok());
  EXPECT_TRUE(mute.WaitForEof()) << "silent pre-Hello session must be torn down";

  // The quiet session outlived several timeout windows; it must still work.
  ASSERT_TRUE(quiet.SendFrame(Opcode::kStats, 2, ""));
  auto f = quiet.ReadFrame();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->opcode, static_cast<uint8_t>(Opcode::kStatsOk));
}

TEST(AdversarialWireTest, SeededFuzzNeverKillsTheServer) {
  ServerOptions options;
  options.max_frame_bytes = 64 << 10;
  options.idle_timeout_ms = 200;
  auto server = StartServer(options);
  Rng rng(20240808);
  for (int conn_idx = 0; conn_idx < 24; ++conn_idx) {
    RawConn conn(server->port());
    ASSERT_TRUE(conn.ok());
    if (rng.Bernoulli(0.5)) conn.Hello();
    std::string junk;
    const int chunks = 1 + static_cast<int>(rng.Uniform(4));
    for (int c = 0; c < chunks; ++c) {
      const size_t len = 1 + rng.Uniform(512);
      for (size_t i = 0; i < len; ++i)
        junk.push_back(static_cast<char>(rng.Uniform(256)));
    }
    conn.Send(junk);
    if (rng.Bernoulli(0.5)) {
      conn.Close();  // vanish mid-garbage
    } else {
      conn.ReadFrame();  // collect whatever typed error comes back
    }
  }
  ExpectServiceable(*server);
  AwaitNoSessions(*server);
}

TEST(AdversarialWireTest, ZeroDimForgedBoxCountQueryAnswersPromptly) {
  // The forged payload that used to pin a worker thread forever: a Query
  // whose BoxTable claims ndim=0 with ~2^61 boxes. Decode must reject it
  // immediately and answer a typed error.
  auto server = StartServer();
  RawConn conn(server->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.Hello());
  std::string payload;
  PutVarint64(&payload, 0);           // empty path
  PutVarint64(&payload, 0);           // BoxTable ndim
  PutVarint64(&payload, 1ull << 61);  // BoxTable boxes
  ASSERT_TRUE(conn.SendFrame(Opcode::kQuery, 5, payload));
  auto err = conn.ReadFrame();  // RawConn's 5 s recv timeout bounds this
  ASSERT_TRUE(err.has_value()) << "decode spun instead of rejecting";
  EXPECT_EQ(err->opcode, static_cast<uint8_t>(Opcode::kError));
  EXPECT_EQ(err->request_id, 5u);
  ExpectServiceable(*server);
}

TEST(AdversarialWireTest, MismatchedArityQueryAnswersTypedErrorAndServes) {
  // A query box of the wrong arity for its path, and lineage of the wrong
  // arity for its arrays, are typed InvalidArgument errors: neither may
  // reach a θ-join kernel's arity check, which aborts the process.
  auto server = StartServer();
  auto connected = DslogClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(connected.ok());
  std::unique_ptr<DslogClient> client = std::move(connected).value();
  ASSERT_TRUE(client->OpenStore("t", true).ok());
  for (const char* name : {"A", "B", "C"})
    ASSERT_TRUE(client->DefineArray(name, {8}).ok());
  LineageRelation identity(1, 1);
  identity.set_shapes({8}, {8});
  for (int64_t i = 0; i < 8; ++i)
    identity.Add(std::vector<int64_t>{i}, std::vector<int64_t>{i});
  OperationRegistration good;
  good.op_name = "copy";
  good.in_arrs = {"A"};
  good.out_arr = "B";
  good.captured = {identity};
  {
    IngestHandle ingest(client.get());
    ASSERT_TRUE(ingest.Add(good).ok());
    ASSERT_TRUE(ingest.Drain().ok());
  }
  {
    // 2-d output cells for the 1-d array C: the drain is refused.
    auto second = DslogClient::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(second.ok());
    ASSERT_TRUE(second.value()->OpenStore("t", false).ok());
    LineageRelation wrong(2, 1);
    wrong.set_shapes({4, 2}, {8});
    for (int64_t i = 0; i < 8; ++i)
      wrong.Add(std::vector<int64_t>{i / 2, i % 2}, std::vector<int64_t>{i});
    OperationRegistration bad = good;
    bad.out_arr = "C";
    bad.captured = {wrong};
    IngestHandle ingest(second.value().get());
    ASSERT_TRUE(ingest.Add(bad).ok());
    auto drained = ingest.Drain();
    ASSERT_FALSE(drained.ok());
    EXPECT_EQ(drained.status().code(), StatusCode::kInvalidArgument);
  }

  RawConn conn(server->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.Hello());
  OpenStoreRequest open;
  open.store = "t";
  open.create = false;
  ASSERT_TRUE(conn.SendFrame(Opcode::kOpenStore, 2, open.Encode()));
  auto opened = conn.ReadFrame();
  ASSERT_TRUE(opened.has_value());
  ASSERT_EQ(opened->opcode, static_cast<uint8_t>(Opcode::kOpenStoreOk));

  QueryRequest req;
  req.path = {"A", "B"};
  req.query = BoxTable::FromCells(2, {1, 1});
  ASSERT_TRUE(conn.SendFrame(Opcode::kQuery, 3, req.Encode()));
  auto err = conn.ReadFrame();
  ASSERT_TRUE(err.has_value()) << "server died on a mismatched-arity query";
  EXPECT_EQ(err->opcode, static_cast<uint8_t>(Opcode::kError));
  EXPECT_EQ(err->request_id, 3u);
  EXPECT_EQ(DecodeStatusPayload(err->payload).code(),
            StatusCode::kInvalidArgument);

  // The same session answers a well-formed query.
  req.query = BoxTable::FromCells(1, {3});
  ASSERT_TRUE(conn.SendFrame(Opcode::kQuery, 4, req.Encode()));
  auto ok = conn.ReadFrame();
  ASSERT_TRUE(ok.has_value());
  ASSERT_EQ(ok->opcode, static_cast<uint8_t>(Opcode::kQueryOk));
  EXPECT_EQ(ok->request_id, 4u);
  QueryResponse resp;
  ASSERT_TRUE(QueryResponse::Decode(ok->payload, &resp));
  EXPECT_EQ(resp.result.ExpandToCells(), std::vector<int64_t>{3});
  ExpectServiceable(*server);
}

TEST(AdversarialWireTest, OversizedResponseAnswersTypedErrorNotCorruption) {
  // With a tiny frame cap the StatsOk JSON cannot be framed; the server
  // must answer a (small) typed error rather than emit a frame the
  // client's decoder would treat as an unsalvageable stream.
  ServerOptions options;
  options.max_frame_bytes = 128;  // the typed error fits, StatsOk does not
  auto server = StartServer(options);
  RawConn conn(server->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.Hello());
  ASSERT_TRUE(conn.SendFrame(Opcode::kStats, 3, ""));
  auto f = conn.ReadFrame();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->opcode, static_cast<uint8_t>(Opcode::kError));
  EXPECT_EQ(f->request_id, 3u);
  EXPECT_EQ(DecodeStatusPayload(f->payload).code(), StatusCode::kOutOfRange);
  // Framing stayed intact; the session still works for small responses.
  ASSERT_TRUE(conn.SendFrame(Opcode::kBye, 4, ""));
  auto bye = conn.ReadFrame();
  ASSERT_TRUE(bye.has_value());
  EXPECT_EQ(bye->opcode, static_cast<uint8_t>(Opcode::kByeOk));
}

TEST(AdversarialWireTest, ClientRefusesRequestBeyondNegotiatedFrameCap) {
  ServerOptions options;
  options.max_frame_bytes = 1 << 10;
  auto server = StartServer(options);
  auto connected = DslogClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(connected.ok());
  std::unique_ptr<DslogClient> client = std::move(connected).value();
  EXPECT_EQ(client->server_hello().max_frame_bytes, 1 << 10);
  ASSERT_TRUE(client->OpenStore("t", true).ok());
  // A query whose encoding exceeds the server's cap fails client-side
  // with a typed error instead of getting the session torn down.
  std::vector<std::string> path = {std::string(4096, 'a')};
  Result<BoxTable> r = client->Query(path, BoxTable(1));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // The refused request never hit the wire; the session still works.
  EXPECT_TRUE(client->Bye().ok());
}

}  // namespace
}  // namespace net
}  // namespace dslog
