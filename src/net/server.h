// DslogServer: lineage-as-a-service over TCP. One reactor thread owns
// accept + all socket reads (non-blocking, poll()-driven); the server's
// worker pool executes requests and writes responses. Each connection is a
// *session*: after a Hello handshake it binds to one tenant store
// namespace, owns at most one StagedIngest (batched ingest that commits
// only on an explicit Drain), and has its requests executed strictly in
// arrival order on a serialized per-session lane — so one session can
// never interleave its own responses, while distinct sessions run fully in
// parallel on the pool.
//
// Admission control (all three produce *typed* responses, never unbounded
// queueing):
//   1. accept:   sessions > max_sessions        -> kOverloaded, close.
//   2. dispatch: global in-flight > max_inflight_requests
//                -> that request answers kOverloaded (in order, via the
//                   session lane); the connection survives.
//   3. pipeline: one session queueing > max_pipelined_per_session frames
//                -> protocol error, teardown (a well-behaved client waits
//                   for responses; only a flooder trips this).
//
// Cancellation & teardown: a kCancel frame is handled by the reactor the
// moment it is read — it cancels the CancelToken of the session's
// in-flight query, which stops at the next hop boundary. Session teardown
// (EOF, protocol error, idle timeout, server stop) cancels the same token
// and destroys the session's StagedIngest, so staged-but-undrained ingest
// from a dropped client commits nothing.

#ifndef DSLOG_NET_SERVER_H_
#define DSLOG_NET_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "net/wire.h"
#include "storage/dslog.h"

namespace dslog {
namespace net {

struct ServerOptions {
  /// Numeric IPv4 listen address.
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with DslogServer::port().
  int port = 0;
  /// Accept bound: connections beyond this are answered kOverloaded and
  /// closed without ever becoming sessions.
  int max_sessions = 4096;
  /// Request-execution threads. 0 = min(8, hardware_concurrency). This
  /// pool is the only worker pool in the library: each request runs on
  /// one of its threads, and a Query request runs one ProvQuery there.
  int worker_threads = 0;
  /// Unanswered frames one session may queue before it is treated as a
  /// protocol flooder and torn down.
  int max_pipelined_per_session = 64;
  /// Global bound on dispatched-but-unfinished requests across all
  /// sessions; excess requests are shed with kOverloaded.
  int max_inflight_requests = 1024;
  /// Frame payload cap enforced by every session's decoder.
  int64_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// A session stalled mid-frame (slow loris) or silent before completing
  /// the Hello handshake for longer than this is torn down. <= 0 disables.
  int idle_timeout_ms = 30'000;
  /// Per-write-syscall progress timeout when a client stops draining its
  /// receive window.
  int write_timeout_ms = 10'000;
  /// Whether OpenStore{create=true} may create a new tenant namespace.
  bool allow_create_store = true;
  std::string server_name = "dslog_server";
};

/// The server. Mount stores, Start, Stop. Thread-safe after Start.
class DslogServer {
 public:
  explicit DslogServer(ServerOptions options = {});
  ~DslogServer();

  DslogServer(const DslogServer&) = delete;
  DslogServer& operator=(const DslogServer&) = delete;

  /// Adds (or replaces, before Start only) a tenant store namespace.
  Status Mount(const std::string& name, DSLog log);

  /// Binds, listens, and launches the reactor + workers.
  Status Start();

  /// Tears down every session (cancelling in-flight queries), joins the
  /// reactor and workers. Idempotent; also run by the destructor.
  void Stop();

  /// The bound port (after Start).
  int port() const;
  /// Live session count (reactor-maintained).
  int64_t active_sessions() const;
  /// The mounted store, or nullptr. Valid for the server's lifetime; used
  /// by tests as the in-process oracle over the same data the server
  /// serves.
  const DSLog* store(const std::string& name) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace net
}  // namespace dslog

#endif  // DSLOG_NET_SERVER_H_
