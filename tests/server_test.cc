// End-to-end proof of the lineage service: seeded random pipelines are
// ingested over the wire through the batching IngestHandle and queried
// through DslogClient, with every answer compared cell-for-cell against
// the in-process catalog the server mounts (same DSLog the handlers use)
// AND the UncompressedQuery ground truth — across query direction, the
// merge knob, and thread counts. Plus: tenant namespace isolation, typed
// admission-control sheds at both bounds, staged-ingest teardown on
// session drop, wire-level cancellation, and a multi-threaded stress mix
// of ingest + queries on one shared tenant (TSan-clean).

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/random.h"
#include "net/client.h"
#include "net/server.h"
#include "query/query_engine.h"
#include "storage/dslog.h"
#include "test_util.h"

namespace dslog {
namespace net {
namespace {

using test_util::GenerateDag;
using test_util::RandomDag;
using test_util::SampleCells;
using test_util::ToTupleSet;
using test_util::TupleSet;

std::unique_ptr<DslogServer> StartServer(ServerOptions options = {}) {
  options.worker_threads = 4;
  auto server = std::make_unique<DslogServer>(options);
  EXPECT_TRUE(server->Start().ok());
  return server;
}

Result<std::unique_ptr<DslogClient>> Connect(const DslogServer& server) {
  return DslogClient::Connect("127.0.0.1", server.port());
}

// Ingests `dag` through `handle` with every array name prefixed (so
// several threads can share one tenant namespace). Returns ok only if
// every Add and the final Drain succeed.
Status IngestDag(DslogClient* client, IngestHandle* handle,
                 const RandomDag& dag, const std::string& prefix) {
  for (size_t i = 0; i < dag.names.size(); ++i)
    DSLOG_RETURN_IF_ERROR(
        client->DefineArray(prefix + dag.names[i], dag.shapes[i]));
  if (dag.has_branch)
    DSLOG_RETURN_IF_ERROR(
        client->DefineArray(prefix + "branch", dag.branch_shape));
  for (OperationRegistration& reg : dag.Registrations()) {
    for (std::string& in : reg.in_arrs) in = prefix + in;
    reg.out_arr = prefix + reg.out_arr;
    DSLOG_RETURN_IF_ERROR(handle->Add(reg).status());
  }
  return handle->Drain().status();
}

TEST(ServerLifecycleTest, StartStopIsCleanAndIdempotent) {
  DslogServer server;
  ASSERT_TRUE(server.Start().ok());
  EXPECT_GT(server.port(), 0);
  EXPECT_EQ(server.active_sessions(), 0);
  server.Stop();
  server.Stop();  // idempotent
}

TEST(ServerLifecycleTest, HelloHandshakeNegotiates) {
  auto server = StartServer();
  auto client = Connect(*server);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ(client.value()->server_hello().server_name, "dslog_server");
  EXPECT_EQ(client.value()->server_hello().max_frame_bytes,
            kDefaultMaxFrameBytes);
  EXPECT_TRUE(client.value()->Bye().ok());
}

// ------------------------------------------------- differential coverage --

class ServerDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(ServerDifferentialTest, WireAnswersMatchOracleAndGroundTruth) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  RandomDag dag = GenerateDag(seed);
  const int n = static_cast<int>(dag.rels.size());
  ASSERT_GE(n, 2) << "pipeline generation starved, seed " << seed;

  auto server = StartServer();
  auto connected = Connect(*server);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  std::unique_ptr<DslogClient> client = std::move(connected).value();
  const std::string tenant = "seed" + std::to_string(seed);
  ASSERT_TRUE(client->OpenStore(tenant).ok());

  // Tiny blocks force the netplay path to exercise multi-block shipping
  // and id-block refills, not just one lucky round trip.
  IngestHandle handle(client.get(), /*id_block_size=*/3,
                      /*data_block_bytes=*/512);
  ASSERT_TRUE(IngestDag(client.get(), &handle, dag, "").ok());
  EXPECT_EQ(handle.ops_added(), n + (dag.has_branch ? 1 : 0));
  EXPECT_GE(handle.blocks_shipped(), (handle.ops_added() + 2) / 3)
      << "3-op data blocks must ship as multiple batches";

  // The handlers' own catalog doubles as the in-process oracle.
  const DSLog* oracle = server->store(tenant);
  ASSERT_NE(oracle, nullptr);

  Rng rng(seed * 31 + 7);
  struct Direction {
    std::vector<std::string> path;
    std::vector<RelationHop> rhops;
    std::vector<int64_t> cells;
    int query_ndim;
    int result_arity;
    const char* label;
  };
  std::vector<Direction> directions;
  {
    Direction fwd;
    fwd.path = dag.names;
    for (int i = 0; i < n; ++i) fwd.rhops.push_back({&dag.rels[i], true});
    fwd.cells = SampleCells(dag.shapes[0], 8, &rng);
    fwd.query_ndim = static_cast<int>(dag.shapes[0].size());
    fwd.result_arity = static_cast<int>(dag.shapes.back().size());
    fwd.label = "forward";
    directions.push_back(std::move(fwd));

    Direction bwd;
    bwd.path.assign(dag.names.rbegin(), dag.names.rend());
    for (int i = n - 1; i >= 0; --i) bwd.rhops.push_back({&dag.rels[i], false});
    bwd.cells = SampleCells(dag.shapes.back(), 8, &rng);
    bwd.query_ndim = static_cast<int>(dag.shapes.back().size());
    bwd.result_arity = static_cast<int>(dag.shapes[0].size());
    bwd.label = "backward";
    directions.push_back(std::move(bwd));

    if (dag.has_branch) {
      Direction mixed;
      mixed.path = {"branch"};
      mixed.rhops.push_back({&dag.branch_rel, false});
      for (int i = dag.branch_from; i < n; ++i) {
        mixed.path.push_back(dag.names[static_cast<size_t>(i)]);
        mixed.rhops.push_back({&dag.rels[i], true});
      }
      mixed.path.push_back(dag.names.back());
      mixed.cells = SampleCells(dag.branch_shape, 8, &rng);
      mixed.query_ndim = static_cast<int>(dag.branch_shape.size());
      mixed.result_arity = static_cast<int>(dag.shapes.back().size());
      mixed.label = "mixed";
      directions.push_back(std::move(mixed));
    }
  }

  for (const Direction& dir : directions) {
    const BoxTable q = BoxTable::FromCells(dir.query_ndim, dir.cells);
    const TupleSet want =
        ToTupleSet(UncompressedQuery(dir.rhops, dir.cells), dir.result_arity);
    for (bool merge : {true, false}) {
      QueryOptions options;
      options.merge_between_hops = merge;
      const std::string label = std::string(dir.label) +
                                " seed=" + std::to_string(seed) +
                                " merge=" + std::to_string(merge);
      auto wire = client->Query(dir.path, q, options);
      ASSERT_TRUE(wire.ok()) << label << ": " << wire.status().ToString();
      EXPECT_EQ(ToTupleSet(wire.value().ExpandToCells(), dir.result_arity),
                want)
          << label << " (wire vs ground truth)";

      auto local = oracle->ProvQuery(dir.path, q, options);
      ASSERT_TRUE(local.ok()) << label;
      EXPECT_EQ(wire.value().ExpandToCells(), local.value().ExpandToCells())
          << label << " (wire vs in-process oracle must be bit-identical)";
    }
  }

  // Profiled query: the server ships QueryProfile JSON alongside.
  {
    QueryOptions options;
    options.profile = true;
    std::string profile_json;
    auto r = client->Query(directions[0].path,
                           BoxTable::FromCells(directions[0].query_ndim,
                                               directions[0].cells),
                           options, &profile_json);
    ASSERT_TRUE(r.ok());
    EXPECT_NE(profile_json.find("hops"), std::string::npos)
        << "profile JSON missing: " << profile_json;
  }
  EXPECT_TRUE(client->Bye().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServerDifferentialTest,
                         ::testing::Range(0, 6));

// ----------------------------------------------------- sessions & tenancy --

TEST(ServerSessionTest, TenantNamespacesAreIsolated) {
  auto server = StartServer();
  auto a = Connect(*server);
  auto b = Connect(*server);
  ASSERT_TRUE(a.ok() && b.ok());

  RandomDag dag = GenerateDag(1);
  ASSERT_GE(dag.rels.size(), 2u);
  ASSERT_TRUE(a.value()->OpenStore("tenant-a").ok());
  ASSERT_TRUE(b.value()->OpenStore("tenant-b").ok());
  IngestHandle handle(a.value().get());
  ASSERT_TRUE(IngestDag(a.value().get(), &handle, dag, "").ok());

  Rng rng(7);
  const BoxTable q =
      BoxTable::FromCells(static_cast<int>(dag.shapes[0].size()),
                          SampleCells(dag.shapes[0], 4, &rng));
  // Tenant A sees its pipeline; tenant B must not.
  EXPECT_TRUE(a.value()->Query(dag.names, q).ok());
  auto cross = b.value()->Query(dag.names, q);
  EXPECT_FALSE(cross.ok()) << "tenant-b must not see tenant-a's arrays";

  // Same array names, fresh definitions in B: no clash with A's.
  ASSERT_TRUE(b.value()->DefineArray(dag.names[0], {2, 2}).ok());
  EXPECT_NE(server->store("tenant-a"), server->store("tenant-b"));
}

TEST(ServerSessionTest, ReserveIdsAreDisjointAcrossSessions) {
  auto server = StartServer();
  auto a = Connect(*server);
  auto b = Connect(*server);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(a.value()->OpenStore("shared").ok());
  ASSERT_TRUE(b.value()->OpenStore("shared").ok());
  auto ra = a.value()->ReserveOpIds(100);
  auto rb = b.value()->ReserveOpIds(100);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_NE(ra.value().first, 0u) << "id 0 is reserved";
  const uint64_t a_lo = ra.value().first, a_hi = a_lo + ra.value().second;
  const uint64_t b_lo = rb.value().first, b_hi = b_lo + rb.value().second;
  EXPECT_TRUE(a_hi <= b_lo || b_hi <= a_lo)
      << "blocks overlap: [" << a_lo << "," << a_hi << ") vs [" << b_lo << ","
      << b_hi << ")";
}

TEST(ServerSessionTest, OpenStoreRejectedWhileIngestIsStaged) {
  auto server = StartServer();
  auto client = Connect(*server);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->OpenStore("first").ok());

  RandomDag dag = GenerateDag(2);
  IngestHandle handle(client.value().get(), /*id_block_size=*/4,
                      /*data_block_bytes=*/1 << 20);
  for (size_t i = 0; i < dag.names.size(); ++i)
    ASSERT_TRUE(
        client.value()->DefineArray(dag.names[i], dag.shapes[i]).ok());
  if (dag.has_branch) {
    ASSERT_TRUE(client.value()->DefineArray("branch", dag.branch_shape).ok());
  }
  auto regs = dag.Registrations();
  ASSERT_TRUE(handle.Add(regs[0]).ok());
  ASSERT_TRUE(handle.Flush().ok());  // now staged server-side, undrained

  EXPECT_FALSE(client.value()->OpenStore("second").ok())
      << "switching stores would orphan staged ingest";
  ASSERT_TRUE(handle.Drain().ok());
  EXPECT_TRUE(client.value()->OpenStore("second").ok())
      << "after Drain the session may rebind";
}

TEST(ServerSessionTest, DroppedSessionCommitsNoStagedIngest) {
  auto server = StartServer();
  RandomDag dag = GenerateDag(3);
  ASSERT_GE(dag.rels.size(), 2u);
  {
    auto client = Connect(*server);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.value()->OpenStore("doomed").ok());
    IngestHandle handle(client.value().get(), /*id_block_size=*/4,
                        /*data_block_bytes=*/1 << 20);
    for (size_t i = 0; i < dag.names.size(); ++i)
      ASSERT_TRUE(
          client.value()->DefineArray(dag.names[i], dag.shapes[i]).ok());
    auto regs = dag.Registrations();
    for (auto& reg : regs) {
      if (reg.out_arr != "branch") {
        ASSERT_TRUE(handle.Add(reg).ok());
      }
    }
    ASSERT_TRUE(handle.Flush().ok());
    // Client destroyed without Drain or Bye: an abrupt disconnect.
  }
  for (int i = 0; i < 500 && server->active_sessions() > 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(server->active_sessions(), 0);
  const DSLog* store = server->store("doomed");
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->FindEdge(dag.names[0], dag.names[1]), nullptr)
      << "teardown must discard the session's staged ingest";
}

// ---------------------------------------------------- admission control --

TEST(ServerOverloadTest, AcceptBoundShedsTypedUnavailable) {
  ServerOptions options;
  options.max_sessions = 1;
  auto server = StartServer(options);
  auto first = Connect(*server);
  ASSERT_TRUE(first.ok());

  auto second = Connect(*server);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable)
      << second.status().ToString();

  // The admitted session is unaffected by the shed.
  EXPECT_TRUE(first.value()->ServerStats().ok());
  EXPECT_TRUE(first.value()->Bye().ok());

  // Capacity freed: a later connection is admitted.
  for (int i = 0; i < 500 && server->active_sessions() > 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  auto third = Connect(*server);
  EXPECT_TRUE(third.ok()) << third.status().ToString();
}

TEST(ServerOverloadTest, InflightBoundShedsTypedUnavailable) {
  ServerOptions options;
  options.max_inflight_requests = 0;  // every dispatch sheds
  auto server = StartServer(options);
  metrics::Counter& shed =
      metrics::Registry::Global().counter("dslog.server.overloaded");
  const int64_t before = shed.Value();
  auto client = Connect(*server);
  // The Hello itself is shed — typed, in order, not a protocol error.
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kUnavailable)
      << client.status().ToString();
  EXPECT_GE(shed.Value() - before, 1);
}

// -------------------------------------------------------- cancellation --

TEST(ServerCancelTest, CancelFrameIsSafeAndSessionSurvives) {
  auto server = StartServer();
  auto connected = Connect(*server);
  ASSERT_TRUE(connected.ok());
  std::unique_ptr<DslogClient> client = std::move(connected).value();
  ASSERT_TRUE(client->OpenStore("cancel").ok());
  RandomDag dag = GenerateDag(4);
  ASSERT_GE(dag.rels.size(), 2u);
  IngestHandle handle(client.get());
  ASSERT_TRUE(IngestDag(client.get(), &handle, dag, "").ok());

  Rng rng(11);
  const BoxTable q =
      BoxTable::FromCells(static_cast<int>(dag.shapes[0].size()),
                          SampleCells(dag.shapes[0], 6, &rng));
  // Race a Cancel against the in-flight query. Either the query finished
  // first (a full answer) or it was cancelled (typed kCancelled); both are
  // legal — what is *required* is that the session survives and the next
  // request works.
  std::thread canceller([&client] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const Status st = client->Cancel();
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
  auto r = client->Query(dag.names, q);
  canceller.join();
  if (!r.ok()) {
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
        << r.status().ToString();
  }
  EXPECT_TRUE(client->ServerStats().ok())
      << "session must remain usable after a cancel";
  EXPECT_TRUE(client->Bye().ok());
}

TEST(ServerCancelTest, CancelBeforeQueryCancelsNothingButIsHarmless) {
  auto server = StartServer();
  auto client = Connect(*server);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->Cancel().ok());  // nothing in flight
  EXPECT_TRUE(client.value()->ServerStats().ok());
}

// ------------------------------------------------------ concurrency mix --

// Several threads share one server AND one tenant namespace, each
// ingesting its own prefixed pipeline through an IngestHandle while
// querying it. TSan (the CI job runs this suite under
// -fsanitize=thread) must stay silent, every answer must match the
// ground truth, and the server must end with zero sessions.
TEST(ServerStressTest, ConcurrentIngestAndQueriesOnSharedTenant) {
  auto server = StartServer();
  constexpr int kThreads = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, &failures, t] {
      auto fail = [&failures](const std::string& why) {
        ADD_FAILURE() << why;
        failures.fetch_add(1);
      };
      auto connected = Connect(*server);
      if (!connected.ok()) return fail("connect: " +
                                       connected.status().ToString());
      std::unique_ptr<DslogClient> client = std::move(connected).value();
      if (!client->OpenStore("stress").ok()) return fail("open store");

      const uint64_t seed = static_cast<uint64_t>(t % 3);
      RandomDag dag = GenerateDag(seed);
      if (dag.rels.size() < 2u) return fail("starved dag");
      const std::string prefix = "t" + std::to_string(t) + "_";
      IngestHandle handle(client.get(), /*id_block_size=*/2,
                          /*data_block_bytes=*/256);
      Status ingested = IngestDag(client.get(), &handle, dag, prefix);
      if (!ingested.ok()) return fail("ingest: " + ingested.ToString());

      Rng rng(seed * 13 + static_cast<uint64_t>(t));
      std::vector<std::string> path;
      for (const std::string& name : dag.names) path.push_back(prefix + name);
      std::vector<RelationHop> rhops;
      for (const LineageRelation& rel : dag.rels)
        rhops.push_back({&rel, true});
      for (int round = 0; round < 4; ++round) {
        std::vector<int64_t> cells = SampleCells(dag.shapes[0], 5, &rng);
        const BoxTable q = BoxTable::FromCells(
            static_cast<int>(dag.shapes[0].size()), cells);
        auto r = client->Query(path, q);
        if (!r.ok()) return fail("query: " + r.status().ToString());
        const int arity = static_cast<int>(dag.shapes.back().size());
        if (ToTupleSet(r.value().ExpandToCells(), arity) !=
            ToTupleSet(UncompressedQuery(rhops, cells), arity))
          return fail("thread " + std::to_string(t) + " round " +
                      std::to_string(round) + ": wire answer != ground truth");
      }
      if (!client->Bye().ok()) fail("bye");
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  for (int i = 0; i < 500 && server->active_sessions() > 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(server->active_sessions(), 0);
}

}  // namespace
}  // namespace net
}  // namespace dslog
