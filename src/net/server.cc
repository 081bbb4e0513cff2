#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/metrics.h"
#include "net/protocol.h"

namespace dslog {
namespace net {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool ValidStoreName(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

struct DslogServer::Impl {
  // One tenant namespace: a DSLog plus the id allocator behind ReserveIds.
  struct TenantStore {
    explicit TenantStore(DSLog l) : log(std::move(l)) {}
    DSLog log;
    std::atomic<uint64_t> next_op_id{1};
  };

  // One queued request of a session. `counted` marks entries charged
  // against the global in-flight bound (sheds and courtesy errors are
  // not); whoever removes the entry from the queue settles the charge.
  struct Pending {
    Frame frame;
    bool shed = false;
    bool counted = false;
    Status error;  // non-OK: emit kError(error) instead of executing
  };

  struct Session {
    int fd = -1;
    FrameDecoder decoder;
    // Reactor-private.
    int64_t last_progress_ms = 0;
    // Written by the worker lane (handshake), read by the reactor sweep.
    std::atomic<bool> hello_done{false};
    // draining: stop reading, finish queued responses, then close.
    // closing: hard teardown — the lane drops whatever is still queued.
    std::atomic<bool> draining{false};
    std::atomic<bool> closing{false};

    std::mutex mu;
    std::deque<Pending> pending;            // guarded by mu
    bool running = false;                   // guarded by mu: lane scheduled
    std::shared_ptr<CancelToken> active_cancel;  // guarded by mu

    // Lane-private (the serialized lane is this state's only toucher).
    std::shared_ptr<TenantStore> store;
    std::unique_ptr<StagedIngest> stager;

    explicit Session(int fd, int64_t max_frame)
        : fd(fd), decoder(max_frame), last_progress_ms(NowMs()) {}
    ~Session() {
      if (fd >= 0) ::close(fd);
    }
  };

  explicit Impl(ServerOptions o) : options(std::move(o)) {}

  // ------------------------------------------------------------ lifecycle --

  Status Start() {
    if (started) return Status::InvalidArgument("server already started");
    int pipefd[2];
    if (::pipe(pipefd) != 0) return Status::IOError("pipe() failed");
    wake_read = pipefd[0];
    wake_write = pipefd[1];
    SetNonBlocking(wake_read);
    SetNonBlocking(wake_write);

    // Start() failing must not leak fds: started stays false, so Stop()
    // never runs and nothing else would close them.
    const auto fail = [this](Status status) {
      if (listen_fd >= 0) ::close(listen_fd);
      ::close(wake_read);
      ::close(wake_write);
      listen_fd = wake_read = wake_write = -1;
      return status;
    };

    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) return fail(Status::IOError("socket() failed"));
    int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(options.port));
    if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1)
      return fail(Status::InvalidArgument(
          "host must be a numeric IPv4 address: " + options.host));
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0)
      return fail(Status::IOError("bind(" + options.host + ":" +
                                  std::to_string(options.port) +
                                  ") failed: " + std::strerror(errno)));
    if (::listen(listen_fd, 512) != 0)
      return fail(Status::IOError("listen() failed"));
    SetNonBlocking(listen_fd);

    sockaddr_in bound{};
    socklen_t blen = sizeof(bound);
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &blen);
    bound_port.store(ntohs(bound.sin_port));

    int n = options.worker_threads;
    if (n <= 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      n = static_cast<int>(std::min(8u, std::max(2u, hw)));
    }
    for (int i = 0; i < n; ++i) {
      workers.emplace_back([this] { WorkerLoop(); });
    }
    reactor = std::thread([this] { ReactorLoop(); });
    started = true;
    return Status::OK();
  }

  void Stop() {
    if (!started || stopped) return;
    stopped = true;
    stopping.store(true);
    Wake();
    reactor.join();
    {
      std::lock_guard<std::mutex> lk(pool_mu);
      pool_done = true;
    }
    pool_cv.notify_all();
    for (std::thread& w : workers) w.join();
    workers.clear();
    if (listen_fd >= 0) ::close(listen_fd);
    ::close(wake_read);
    ::close(wake_write);
    listen_fd = wake_read = wake_write = -1;
  }

  void Wake() {
    char b = 1;
    [[maybe_unused]] ssize_t r = ::write(wake_write, &b, 1);
  }

  // ---------------------------------------------------------- worker pool --

  void Submit(std::function<void()> job) {
    {
      std::lock_guard<std::mutex> lk(pool_mu);
      pool_jobs.push_back(std::move(job));
    }
    pool_cv.notify_one();
  }

  void WorkerLoop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lk(pool_mu);
        pool_cv.wait(lk, [this] { return pool_done || !pool_jobs.empty(); });
        if (pool_jobs.empty()) return;  // pool_done and drained
        job = std::move(pool_jobs.front());
        pool_jobs.pop_front();
      }
      job();
    }
  }

  // -------------------------------------------------------------- reactor --

  void ReactorLoop() {
    std::vector<pollfd> pfds;
    std::vector<std::shared_ptr<Session>> polled;
    bool teardown_broadcast = false;
    for (;;) {
      if (stopping.load() && !teardown_broadcast) {
        teardown_broadcast = true;
        ::close(listen_fd);
        listen_fd = -1;
        for (auto& [fd, s] : sessions) Teardown(s.get());
      }
      FinalizeClosed();
      if (stopping.load() && sessions.empty()) return;

      pfds.clear();
      polled.clear();
      pfds.push_back({wake_read, POLLIN, 0});
      if (listen_fd >= 0) pfds.push_back({listen_fd, POLLIN, 0});
      for (auto& [fd, s] : sessions) {
        if (s->closing.load() || s->draining.load()) continue;
        pfds.push_back({fd, POLLIN, 0});
        polled.push_back(s);
      }
      const int timeout_ms =
          stopping.load() ? 20 : (options.idle_timeout_ms > 0 ? 250 : 1000);
      const int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
      if (rc < 0) {
        if (errno != EINTR) return;  // unrecoverable poll failure
        continue;                    // revents are unspecified after EINTR
      }

      size_t i = 0;
      if (pfds[i].revents & POLLIN) {
        char buf[256];
        while (::read(wake_read, buf, sizeof(buf)) > 0) {
        }
      }
      ++i;
      if (listen_fd >= 0) {
        if (pfds[i].revents & (POLLIN | POLLERR)) AcceptRound();
        ++i;
      }
      for (size_t k = 0; k < polled.size(); ++k, ++i) {
        if (pfds[i].revents == 0) continue;
        ReadSession(polled[k].get());
      }
      SweepIdle();
    }
  }

  void AcceptRound() {
    static metrics::Counter& accepted =
        metrics::Registry::Global().counter("dslog.server.accepted");
    static metrics::Counter& shed =
        metrics::Registry::Global().counter("dslog.server.overloaded");
    for (int round = 0; round < 64; ++round) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      if (static_cast<int>(sessions.size()) >= options.max_sessions) {
        // Admission control bound 1: never a session, answered typed.
        std::string frame;
        AppendFrame(&frame, Opcode::kOverloaded, 0,
                    EncodeStatusPayload(Status::Unavailable(
                        "server at max_sessions capacity")));
        [[maybe_unused]] ssize_t r =
            ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
        ::close(fd);
        shed.Increment();
        continue;
      }
      SetNonBlocking(fd);
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      sessions.emplace(fd,
                       std::make_shared<Session>(fd, options.max_frame_bytes));
      session_count.store(static_cast<int64_t>(sessions.size()),
                          std::memory_order_relaxed);
      session_gauge().Set(static_cast<int64_t>(sessions.size()));
      accepted.Increment();
    }
  }

  static metrics::Gauge& session_gauge() {
    static metrics::Gauge& g =
        metrics::Registry::Global().gauge("dslog.server.active_sessions");
    return g;
  }

  void ReadSession(Session* s) {
    if (s->closing.load() || s->draining.load()) return;
    char buf[16384];
    for (int round = 0; round < 8; ++round) {
      const ssize_t n = ::recv(s->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        s->last_progress_ms = NowMs();
        s->decoder.Append(std::string_view(buf, static_cast<size_t>(n)));
        if (!DrainFrames(s)) return;
        if (n < static_cast<ssize_t>(sizeof(buf))) return;
        continue;
      }
      if (n == 0) {  // orderly EOF: the client is gone
        Teardown(s);
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      Teardown(s);
      return;
    }
  }

  // Extracts and dispatches every complete frame. false = session left the
  // readable state (teardown or drain started).
  bool DrainFrames(Session* s) {
    static metrics::Counter& proto_errors =
        metrics::Registry::Global().counter("dslog.server.protocol_errors");
    static metrics::Counter& cancels =
        metrics::Registry::Global().counter("dslog.server.cancel_frames");
    Frame f;
    for (;;) {
      Result<bool> r = s->decoder.Next(&f);
      if (!r.ok()) {
        // Frame boundaries are lost; best effort is a typed parting error.
        proto_errors.Increment();
        ProtocolError(s, r.status());
        return false;
      }
      if (!r.value()) return true;
      if (f.opcode == static_cast<uint8_t>(Opcode::kCancel)) {
        // Out-of-band by design: acts on the in-flight request *now*,
        // without queueing behind it.
        cancels.Increment();
        std::lock_guard<std::mutex> lk(s->mu);
        if (s->active_cancel) s->active_cancel->Cancel();
        continue;
      }
      if (!Enqueue(s, std::move(f))) return false;
    }
  }

  // Queues one request on the session's serialized lane, applying
  // admission-control bounds 2 (global in-flight -> shed) and 3 (per-
  // session pipeline -> teardown).
  bool Enqueue(Session* s, Frame f) {
    static metrics::Counter& shed =
        metrics::Registry::Global().counter("dslog.server.overloaded");
    static metrics::Counter& floods =
        metrics::Registry::Global().counter("dslog.server.pipeline_floods");
    Pending p;
    p.frame = std::move(f);
    if (inflight.load(std::memory_order_relaxed) >=
        options.max_inflight_requests) {
      p.shed = true;
      shed.Increment();
    } else {
      p.counted = true;
      inflight.fetch_add(1, std::memory_order_relaxed);
    }
    bool start_lane = false;
    {
      std::lock_guard<std::mutex> lk(s->mu);
      if (static_cast<int>(s->pending.size()) >=
          options.max_pipelined_per_session) {
        if (p.counted) inflight.fetch_sub(1, std::memory_order_relaxed);
        floods.Increment();
        TeardownLocked(s);
        return false;
      }
      s->pending.push_back(std::move(p));
      if (!s->running) {
        s->running = true;
        start_lane = true;
      }
    }
    if (start_lane) {
      std::shared_ptr<Session> sp = sessions.at(s->fd);
      Submit([this, sp] { RunLane(sp); });
    }
    return true;
  }

  // Queues a courtesy typed error and stops reading; the lane emits every
  // already-queued response, then the error, then the session closes.
  void ProtocolError(Session* s, const Status& status) {
    s->draining.store(true);
    bool start_lane = false;
    {
      std::lock_guard<std::mutex> lk(s->mu);
      Pending p;
      p.error = status;
      s->pending.push_back(std::move(p));
      if (!s->running) {
        s->running = true;
        start_lane = true;
      }
    }
    if (start_lane) {
      std::shared_ptr<Session> sp = sessions.at(s->fd);
      Submit([this, sp] { RunLane(sp); });
    }
  }

  // Hard teardown: cancel the in-flight query, drop queued work. The
  // reactor's FinalizeClosed() reaps the session once its lane stops.
  void Teardown(Session* s) {
    std::lock_guard<std::mutex> lk(s->mu);
    TeardownLocked(s);
  }

  void TeardownLocked(Session* s) {
    s->closing.store(true);
    if (s->active_cancel) s->active_cancel->Cancel();
  }

  void SweepIdle() {
    if (options.idle_timeout_ms <= 0) return;
    static metrics::Counter& idle =
        metrics::Registry::Global().counter("dslog.server.idle_timeouts");
    const int64_t now = NowMs();
    for (auto& [fd, s] : sessions) {
      if (s->closing.load() || s->draining.load()) continue;
      // Only a *stalled obligation* times out: a partial frame in the
      // decoder (slow loris) or a connection that never said Hello. A
      // quiet session between complete requests lives forever.
      const bool mid_frame = s->decoder.buffered() > 0;
      if (!mid_frame && s->hello_done.load()) continue;
      if (now - s->last_progress_ms > options.idle_timeout_ms) {
        idle.Increment();
        Teardown(s.get());
      }
    }
  }

  // Reaps sessions whose teardown completed (closing set, lane stopped).
  void FinalizeClosed() {
    for (auto it = sessions.begin(); it != sessions.end();) {
      Session* s = it->second.get();
      bool reap = false;
      if (s->closing.load()) {
        std::lock_guard<std::mutex> lk(s->mu);
        if (!s->running) {
          DropPendingLocked(s);
          reap = true;
        }
      }
      it = reap ? sessions.erase(it) : std::next(it);
    }
    session_count.store(static_cast<int64_t>(sessions.size()),
                        std::memory_order_relaxed);
    session_gauge().Set(static_cast<int64_t>(sessions.size()));
  }

  void DropPendingLocked(Session* s) {
    for (const Pending& p : s->pending) {
      if (p.counted) inflight.fetch_sub(1, std::memory_order_relaxed);
    }
    s->pending.clear();
  }

  // --------------------------------------------------------- worker lane --

  void RunLane(std::shared_ptr<Session> s) {
    for (;;) {
      Pending req;
      {
        std::unique_lock<std::mutex> lk(s->mu);
        if (s->closing.load()) {
          DropPendingLocked(s.get());
          s->running = false;
          lk.unlock();
          Wake();
          return;
        }
        if (s->pending.empty()) {
          s->running = false;
          const bool drained = s->draining.load();
          lk.unlock();
          if (drained) {
            s->closing.store(true);
            Wake();
          }
          return;
        }
        req = std::move(s->pending.front());
        s->pending.pop_front();
      }
      if (req.shed) {
        WriteResponse(s.get(), Opcode::kOverloaded, req.frame.request_id,
                      EncodeStatusPayload(Status::Unavailable(
                          "server overloaded: in-flight request limit")));
        continue;
      }
      if (!req.error.ok()) {
        WriteResponse(s.get(), Opcode::kError, req.frame.request_id,
                      EncodeStatusPayload(req.error));
        continue;
      }
      HandleRequest(s.get(), req.frame);
      if (req.counted) inflight.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  void WriteResponse(Session* s, Opcode opcode, uint32_t request_id,
                     std::string_view payload) {
    static metrics::Counter& bytes_out =
        metrics::Registry::Global().counter("dslog.server.bytes_written");
    static metrics::Counter& oversize =
        metrics::Registry::Global().counter("dslog.server.oversize_responses");
    // A response the client's decoder would reject (it sizes its decoder
    // to our advertised cap) must not be sent: the client would declare
    // the stream unsalvageable. Answer with a small typed error instead.
    if (static_cast<int64_t>(payload.size()) > options.max_frame_bytes) {
      oversize.Increment();
      const std::string err = EncodeStatusPayload(Status::OutOfRange(
          "response of " + std::to_string(payload.size()) +
          " bytes exceeds the frame limit"));
      if (opcode == Opcode::kError ||
          static_cast<int64_t>(err.size()) > options.max_frame_bytes) {
        Teardown(s);  // even the error is unrepresentable within the cap
        return;
      }
      WriteResponse(s, Opcode::kError, request_id, err);
      return;
    }
    std::string frame;
    frame.reserve(payload.size() + 9);
    AppendFrame(&frame, opcode, request_id, payload);
    size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n = ::send(s->fd, frame.data() + off, frame.size() - off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd pfd{s->fd, POLLOUT, 0};
        const int rc = ::poll(&pfd, 1, options.write_timeout_ms);
        if (rc > 0 || (rc < 0 && errno == EINTR)) continue;
        // Receiver stopped draining: give up on the connection rather
        // than block a worker forever.
        Teardown(s);
        return;
      }
      Teardown(s);  // EPIPE / ECONNRESET / ...
      return;
    }
    bytes_out.Add(static_cast<int64_t>(frame.size()));
  }

  void WriteError(Session* s, uint32_t request_id, const Status& status) {
    WriteResponse(s, Opcode::kError, request_id, EncodeStatusPayload(status));
  }

  // ------------------------------------------------------------ handlers --

  void HandleRequest(Session* s, const Frame& frame) {
    static metrics::Counter& requests =
        metrics::Registry::Global().counter("dslog.server.requests");
    requests.Increment();
    const Opcode op = static_cast<Opcode>(frame.opcode);
    if (!s->hello_done.load() && op != Opcode::kHello) {
      WriteError(s, frame.request_id,
                 Status::InvalidArgument("first frame must be Hello"));
      s->closing.store(true);
      return;
    }
    switch (op) {
      case Opcode::kHello:
        return HandleHello(s, frame);
      case Opcode::kOpenStore:
        return HandleOpenStore(s, frame);
      case Opcode::kDefineArray:
        return HandleDefineArray(s, frame);
      case Opcode::kReserveIds:
        return HandleReserveIds(s, frame);
      case Opcode::kIngestBatch:
        return HandleIngestBatch(s, frame);
      case Opcode::kDrain:
        return HandleDrain(s, frame);
      case Opcode::kQuery:
        return HandleQuery(s, frame);
      case Opcode::kStats:
        return HandleStats(s, frame);
      case Opcode::kBye:
        WriteResponse(s, Opcode::kByeOk, frame.request_id, "");
        s->closing.store(true);
        return;
      default:
        // Unknown opcode with intact framing: typed error, session lives.
        WriteError(s, frame.request_id,
                   Status::InvalidArgument(
                       "unknown opcode " + std::to_string(frame.opcode)));
        return;
    }
  }

  void HandleHello(Session* s, const Frame& frame) {
    HelloRequest req;
    if (s->hello_done.load() || !HelloRequest::Decode(frame.payload, &req)) {
      WriteError(s, frame.request_id,
                 Status::InvalidArgument("malformed or repeated Hello"));
      s->closing.store(true);
      return;
    }
    if (req.magic != kMagic) {
      WriteError(s, frame.request_id,
                 Status::InvalidArgument("bad protocol magic"));
      s->closing.store(true);
      return;
    }
    if (req.version != kProtocolVersion) {
      WriteError(s, frame.request_id,
                 Status::NotSupported("unsupported protocol version " +
                                      std::to_string(req.version)));
      s->closing.store(true);
      return;
    }
    HelloResponse resp;
    resp.server_name = options.server_name;
    resp.max_frame_bytes = options.max_frame_bytes;
    s->hello_done.store(true);
    WriteResponse(s, Opcode::kHelloOk, frame.request_id, resp.Encode());
  }

  void HandleOpenStore(Session* s, const Frame& frame) {
    OpenStoreRequest req;
    if (!OpenStoreRequest::Decode(frame.payload, &req)) {
      return WriteError(s, frame.request_id,
                        Status::InvalidArgument("malformed OpenStore"));
    }
    if (!ValidStoreName(req.store)) {
      return WriteError(s, frame.request_id,
                        Status::InvalidArgument("invalid store name"));
    }
    if (s->stager && s->stager->staged() > 0) {
      return WriteError(
          s, frame.request_id,
          Status::InvalidArgument(
              "session holds staged ingest; Drain before switching stores"));
    }
    std::shared_ptr<TenantStore> store;
    {
      std::lock_guard<std::mutex> lk(stores_mu);
      auto it = stores.find(req.store);
      if (it != stores.end()) {
        store = it->second;
      } else if (req.create && options.allow_create_store) {
        store = std::make_shared<TenantStore>(DSLog());
        stores.emplace(req.store, store);
      }
    }
    if (!store) {
      return WriteError(s, frame.request_id,
                        Status::NotFound("no store named " + req.store));
    }
    s->store = std::move(store);
    s->stager = std::make_unique<StagedIngest>(&s->store->log);
    WriteResponse(s, Opcode::kOpenStoreOk, frame.request_id, "");
  }

  bool RequireStore(Session* s, const Frame& frame) {
    if (s->store) return true;
    WriteError(s, frame.request_id,
               Status::InvalidArgument("no store open; send OpenStore first"));
    return false;
  }

  void HandleDefineArray(Session* s, const Frame& frame) {
    DefineArrayRequest req;
    if (!DefineArrayRequest::Decode(frame.payload, &req)) {
      return WriteError(s, frame.request_id,
                        Status::InvalidArgument("malformed DefineArray"));
    }
    if (!RequireStore(s, frame)) return;
    const Status st =
        s->store->log.DefineArray(req.name, std::move(req.shape));
    if (!st.ok()) return WriteError(s, frame.request_id, st);
    WriteResponse(s, Opcode::kDefineArrayOk, frame.request_id, "");
  }

  void HandleReserveIds(Session* s, const Frame& frame) {
    ReserveIdsRequest req;
    if (!ReserveIdsRequest::Decode(frame.payload, &req) || req.count == 0 ||
        req.count > (1u << 20)) {
      return WriteError(s, frame.request_id,
                        Status::InvalidArgument("invalid ReserveIds count"));
    }
    if (!RequireStore(s, frame)) return;
    ReserveIdsResponse resp;
    resp.base = s->store->next_op_id.fetch_add(req.count);
    resp.count = req.count;
    WriteResponse(s, Opcode::kReserveIdsOk, frame.request_id, resp.Encode());
  }

  void HandleIngestBatch(Session* s, const Frame& frame) {
    static metrics::Counter& staged_ops =
        metrics::Registry::Global().counter("dslog.server.ingest_ops");
    IngestBatchRequest req;
    if (!IngestBatchRequest::Decode(frame.payload, &req)) {
      return WriteError(s, frame.request_id,
                        Status::InvalidArgument("malformed IngestBatch"));
    }
    if (!RequireStore(s, frame)) return;
    for (size_t i = 0; i < req.ops.size(); ++i) {
      if (req.ops[i].op_id == 0) {
        return WriteError(s, frame.request_id,
                          Status::InvalidArgument(
                              "op " + std::to_string(i) +
                              " carries no reserved id (ReserveIds first)"));
      }
      const Status st = s->stager->Add(std::move(req.ops[i].reg));
      if (!st.ok()) {
        return WriteError(s, frame.request_id,
                          st.WithMessagePrefix("staging op " +
                                               std::to_string(i) + ": "));
      }
    }
    staged_ops.Add(static_cast<int64_t>(req.ops.size()));
    IngestBatchResponse resp;
    resp.staged = s->stager->staged();
    WriteResponse(s, Opcode::kIngestBatchOk, frame.request_id, resp.Encode());
  }

  void HandleDrain(Session* s, const Frame& frame) {
    if (!RequireStore(s, frame)) return;
    Result<std::vector<ReuseOutcome>> r = s->stager->Drain();
    if (!r.ok()) return WriteError(s, frame.request_id, r.status());
    DrainResponse resp;
    resp.outcomes = std::move(r).value();
    WriteResponse(s, Opcode::kDrainOk, frame.request_id, resp.Encode());
  }

  void HandleQuery(Session* s, const Frame& frame) {
    static metrics::Counter& queries =
        metrics::Registry::Global().counter("dslog.server.queries");
    static metrics::Counter& cancelled =
        metrics::Registry::Global().counter("dslog.server.queries_cancelled");
    QueryRequest req;
    if (!QueryRequest::Decode(frame.payload, &req)) {
      return WriteError(s, frame.request_id,
                        Status::InvalidArgument("malformed Query"));
    }
    if (!RequireStore(s, frame)) return;
    queries.Increment();
    auto token = std::make_shared<CancelToken>();
    {
      std::lock_guard<std::mutex> lk(s->mu);
      // A teardown that raced the install would have missed this token.
      if (s->closing.load()) token->Cancel();
      s->active_cancel = token;
    }
    QueryOptions qo = req.options;
    qo.cancel = token.get();
    QueryProfile profile;
    Result<BoxTable> r = s->store->log.ProvQuery(
        req.path, req.query, qo, qo.profile ? &profile : nullptr);
    {
      std::lock_guard<std::mutex> lk(s->mu);
      if (s->active_cancel == token) s->active_cancel.reset();
    }
    if (!r.ok()) {
      if (r.status().code() == StatusCode::kCancelled) cancelled.Increment();
      return WriteError(s, frame.request_id, r.status());
    }
    QueryResponse resp;
    resp.result = std::move(r).value();
    if (qo.profile) resp.profile_json = profile.ToJson();
    WriteResponse(s, Opcode::kQueryOk, frame.request_id, resp.Encode());
  }

  void HandleStats(Session* s, const Frame& frame) {
    StatsResponse resp;
    resp.json = "{\"active_sessions\":" +
                std::to_string(session_gauge().Value()) +
                ",\"inflight_requests\":" +
                std::to_string(inflight.load(std::memory_order_relaxed)) +
                ",\"metrics\":" +
                metrics::Registry::Global().Snapshot().ToJson() + "}";
    WriteResponse(s, Opcode::kStatsOk, frame.request_id, resp.Encode());
  }

  // ---------------------------------------------------------------- state --

  ServerOptions options;

  std::mutex stores_mu;
  std::map<std::string, std::shared_ptr<TenantStore>> stores;

  bool started = false;
  bool stopped = false;
  std::atomic<bool> stopping{false};
  std::atomic<int> bound_port{0};
  std::atomic<int64_t> inflight{0};
  /// Per-server live-session count (the global gauge is process-wide and
  /// would conflate concurrently running servers in one test binary).
  std::atomic<int64_t> session_count{0};

  int listen_fd = -1;
  int wake_read = -1;
  int wake_write = -1;
  std::thread reactor;
  // Reactor-private: fd -> session.
  std::map<int, std::shared_ptr<Session>> sessions;

  std::mutex pool_mu;
  std::condition_variable pool_cv;
  std::deque<std::function<void()>> pool_jobs;
  bool pool_done = false;
  std::vector<std::thread> workers;
};

DslogServer::DslogServer(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

DslogServer::~DslogServer() { Stop(); }

Status DslogServer::Mount(const std::string& name, DSLog log) {
  if (!ValidStoreName(name))
    return Status::InvalidArgument("invalid store name: " + name);
  std::lock_guard<std::mutex> lk(impl_->stores_mu);
  auto it = impl_->stores.find(name);
  if (it != impl_->stores.end()) {
    if (impl_->started)
      return Status::AlreadyExists("store already mounted: " + name);
    it->second = std::make_shared<Impl::TenantStore>(std::move(log));
    return Status::OK();
  }
  impl_->stores.emplace(name,
                        std::make_shared<Impl::TenantStore>(std::move(log)));
  return Status::OK();
}

Status DslogServer::Start() { return impl_->Start(); }

void DslogServer::Stop() { impl_->Stop(); }

int DslogServer::port() const { return impl_->bound_port.load(); }

int64_t DslogServer::active_sessions() const {
  return impl_->session_count.load(std::memory_order_relaxed);
}

const DSLog* DslogServer::store(const std::string& name) const {
  std::lock_guard<std::mutex> lk(impl_->stores_mu);
  auto it = impl_->stores.find(name);
  return it == impl_->stores.end() ? nullptr : &it->second->log;
}

}  // namespace net
}  // namespace dslog
