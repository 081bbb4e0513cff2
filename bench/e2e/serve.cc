// Workload `serve`: an in-process DslogServer (worker_threads = 2) serves a
// ProvRC-GZip store of random Fig-9 chains plus the Fig-8 workflows, opened
// with a 256 KiB decode cache: smaller than the decoded working set, so
// queries keep paying gzip segment decodes. Three load-generator threads,
// one connection each:
//   - 2 query connections in an open loop at a fixed total rate of
//     kOpenLoopRate (about a third of this host's closed-loop capacity;
//     at half, queueing behind the heavy queries made the tail unsteady).
//     Latency is timed from each request's due time, so a stall also
//     charges the requests queued behind it;
//   - 1 writer connection shipping small pipelines through IngestHandle
//     at kWriterRate, into the same tenant store the readers query.
// A closed-loop phase (kClosedConnections connections, whole cycles of the
// query list each) follows and gives the server's capacity (ops_per_s).
//
// There is no rate ladder: "highest rate under the limit" is a step value
// that flips between steps and cannot repeat within a tenth.

#include <algorithm>
#include <filesystem>
#include <thread>

#include "common/hash.h"
#include "common/metrics.h"
#include "e2e.h"
#include "net/client.h"
#include "net/server.h"
#include "storage/dslog.h"

namespace dslog {
namespace e2e {
namespace {

using net::DslogClient;
using net::DslogServer;

constexpr int kStorePipelines = 24;
constexpr int64_t kStoreCells = 10000;
constexpr int64_t kCacheBytes = 256 << 10;
constexpr double kOpenLoopRate = 250;      // queries/s over both connections
constexpr double kOpenLoopShare = 0.6;     // of --seconds; the rest is closed
constexpr int kClosedConnections = 3;
constexpr double kClosedPerConnPerSecond = 400;  // closed-loop count scale
constexpr double kWriterRate = 10;         // pipelines/s
constexpr int kWriterOps = 3;
constexpr int64_t kWriterCells = 2000;
constexpr double kLateBoundMs = 20;        // generator p99 lateness bound
// Query mix: per workflow path, this many forward + backward query pairs.
// Paths holding at least kHeavyPathBytes of gzip segments are weighted up.
constexpr int64_t kHeavyPathBytes = 4096;
constexpr int kHeavyVariants = 16;
constexpr int kLightVariants = 2;

struct WriterPipeline {
  std::vector<std::string> names;
  std::vector<std::vector<int64_t>> shapes;
  std::vector<OperationRegistration> ops;
};

// Per-thread results of one load generator.
struct GenResult {
  std::vector<size_t> ids;          // query index of each request
  std::vector<double> latency_ms;   // from due time (open loop) or send
  std::vector<double> late_ms;      // generator lateness (see Ask)
  std::vector<double> overhead_ms;  // round trip minus server-side time
  LayerTimes layers;
  ProfileTotals totals;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t wrong = 0;
};

class Serve : public Workload {
 public:
  explicit Serve(const RunOptions& options) : options_(options) {}

  Status Setup() override {
    DSLOG_ASSIGN_OR_RETURN(fig8_, BuildFig8Workflows(options_.seed));
    DSLog log;
    Rng structure(HashCombine(kStructureSeed, 0x7365727665));
    Rng rng(HashCombine(options_.seed, 0x7365727665));
    for (int p = 0; p < kStorePipelines; ++p) {
      const int num_ops = structure.Bernoulli(0.5) ? 5 : 10;
      DSLOG_ASSIGN_OR_RETURN(
          CapturedChain chain,
          CaptureChain(Tagged("c", p), structure.Next(), rng.Next(),
                       kStoreCells, num_ops, /*value_independent_only=*/false));
      chains_.push_back(std::move(chain.workflow));
    }
    for (const auto* flows : {&chains_, &fig8_})
      for (const Workflow& wf : *flows) {
        const std::vector<std::string> names = StoredNames(wf, wf.name);
        DSLOG_RETURN_IF_ERROR(RegisterWorkflow(&log, wf, names));
        for (size_t k = 0; k + 1 < names.size(); ++k) {
          // Decoded size of the edge: two int64 bounds per attribute per
          // row plus one int32 reference per input attribute.
          const CompressedTable* t = log.FindEdge(names[k], names[k + 1]);
          if (t != nullptr)
            decoded_bytes_ +=
                t->num_rows() * (t->stride() * 16 + t->in_ndim() * 4);
        }
      }

    const std::string path = options_.workdir + "/serve.dslog";
    std::filesystem::remove(path);
    DSLOG_RETURN_IF_ERROR(log.SaveLogStore(path, SegmentLayout::kProvRcGzip));
    store_bytes_ = static_cast<int64_t>(std::filesystem::file_size(path));
    InSituOptions in_situ;
    in_situ.store.cache_capacity_bytes = kCacheBytes;
    DSLOG_ASSIGN_OR_RETURN(DSLog opened, DSLog::OpenInSitu(path, in_situ));

    // Small joins: a few cells forward, a thin box backward. Most paths
    // compress to a few hundred bytes and answer in one wire round trip; a
    // few hold the store's large segments, whose gzip decodes on cache
    // misses are this workload's work. Weighting those up puts the median
    // request among the decoding ones, not on the boundary between the two
    // kinds. Every connection cycles one fixed permutation of the queries.
    const LogStore& store = *opened.log_store();
    for (const auto* flows : {&chains_, &fig8_})
      for (const Workflow& wf : *flows) {
        const auto stored = StoredNames(wf, wf.name);
        int64_t path_bytes = 0;
        for (size_t k = 0; k + 1 < stored.size(); ++k) {
          auto id = store.FindSegmentId(stored[k], stored[k + 1]);
          if (id.ok() && id.value() >= 0)
            path_bytes += store.segment_length(static_cast<size_t>(id.value()));
        }
        const int variants =
            path_bytes >= kHeavyPathBytes ? kHeavyVariants : kLightVariants;
        for (int v = 0; v < variants; ++v) {
          queries_.push_back(MakeWorkflowQuery(wf, stored, true, 0.0005, &structure));
          queries_.push_back(MakeWorkflowQuery(wf, stored, false, 0.001, &structure));
        }
      }
    for (size_t i = 0; i < queries_.size(); ++i) order_.push_back(i);
    structure.Shuffle(&order_);

    // Writer pipelines are captured here; the writer only ships them.
    const int64_t num_writes = std::max<int64_t>(
        1, std::llround(kWriterRate * kOpenLoopShare * options_.seconds));
    for (int64_t w = 0; w < num_writes; ++w)
      DSLOG_RETURN_IF_ERROR(MakeWriterPipeline(w, structure.Next(), rng.Next()));

    net::ServerOptions server_options;
    server_options.worker_threads = 2;
    server_ = std::make_unique<DslogServer>(server_options);
    DSLOG_RETURN_IF_ERROR(server_->Mount("bench", std::move(opened)));
    DSLOG_RETURN_IF_ERROR(server_->Start());
    // Two open-loop query connections and the writer; the closed loop
    // reuses them.
    static_assert(kClosedConnections <= 3);
    for (int c = 0; c < 3; ++c) {
      DSLOG_ASSIGN_OR_RETURN(auto client,
                             DslogClient::Connect("127.0.0.1", server_->port()));
      DSLOG_RETURN_IF_ERROR(client->OpenStore("bench", /*create=*/false));
      clients_.push_back(std::move(client));
    }

    // Warm-up pass over the wire: every distinct query once, fingerprinted.
    for (CheckedQuery& q : queries_) {
      auto answer = clients_[0]->Query(q.path, q.query);
      if (answer.ok()) q.fingerprint = Fingerprint(answer.value());
    }
    return Status::OK();
  }

  Status Run(Report* report) override {
    metrics::Registry& registry = metrics::Registry::Global();
    metrics::Counter& bytes_written =
        registry.counter("dslog.server.bytes_written");
    metrics::Counter& overloaded = registry.counter("dslog.server.overloaded");
    const int64_t overloaded_before = overloaded.Value();
    const std::shared_ptr<const LogStore> store =
        server_->store("bench")->log_store();

    // Before timing: each distinct query once against the oracle.
    const int64_t wrong = CheckAll(queries_, [&](const CheckedQuery& q) {
      return clients_[0]->Query(q.path, q.query);
    });
    trace::EnabledScope tracing(options_.traced);

    // ---- open loop: 2 query connections + 1 writer ----
    const double open_s = kOpenLoopShare * options_.seconds;
    const int64_t per_conn =
        std::max<int64_t>(1, std::llround(kOpenLoopRate * open_s / 2));
    const LogStoreStats cache_before = store->stats();
    std::vector<GenResult> open(2);
    GenResult writer;
    std::vector<double> writer_ms;
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
    {
      std::vector<std::thread> threads;
      for (int c = 0; c < 2; ++c)
        threads.emplace_back([&, c] {
          OpenLoop(clients_[static_cast<size_t>(c)].get(), c, per_conn, start,
                   &open[static_cast<size_t>(c)]);
        });
      threads.emplace_back(
          [&] { WriteLoop(clients_[2].get(), start, &writer, &writer_ms); });
      for (std::thread& t : threads) t.join();
    }
    const LogStoreStats cache_after = store->stats();

    // ---- closed loop: kClosedConnections, whole cycles each ----
    const size_t n = queries_.size();
    const int64_t closed_per_conn =
        static_cast<int64_t>(n) *
        std::max<int64_t>(1, std::llround(kClosedPerConnPerSecond *
                                          (1 - kOpenLoopShare) *
                                          options_.seconds /
                                          static_cast<double>(n)));
    std::vector<GenResult> closed(kClosedConnections);
    const int64_t bytes_before = bytes_written.Value();
    {
      std::vector<std::thread> threads;
      for (int c = 0; c < kClosedConnections; ++c)
        threads.emplace_back([&, c] {
          ClosedLoop(clients_[static_cast<size_t>(c)].get(), c,
                     closed_per_conn, &closed[static_cast<size_t>(c)]);
        });
      for (std::thread& t : threads) t.join();
    }
    const int64_t closed_bytes = bytes_written.Value() - bytes_before;

    // ---- merge ----
    GenResult all = writer;
    for (const auto* phase : {&open, &closed})
      for (const GenResult& r : *phase) {
        all.attempted += r.attempted;
        all.failed += r.failed;
        all.wrong += r.wrong;
      }
    GenResult merged;  // open-loop queries only: the latency metrics
    for (const GenResult& r : open) {
      merged.ids.insert(merged.ids.end(), r.ids.begin(), r.ids.end());
      merged.latency_ms.insert(merged.latency_ms.end(), r.latency_ms.begin(),
                               r.latency_ms.end());
      merged.late_ms.insert(merged.late_ms.end(), r.late_ms.begin(),
                            r.late_ms.end());
      merged.overhead_ms.insert(merged.overhead_ms.end(),
                                r.overhead_ms.begin(), r.overhead_ms.end());
      for (int l = 0; l < kNumLayers; ++l) merged.layers.ms[l] += r.layers.ms[l];
      merged.totals += r.totals;
    }
    const int64_t open_queries = static_cast<int64_t>(merged.latency_ms.size());
    const int64_t closed_queries = kClosedConnections * closed_per_conn;
    double open_ms = 0;
    for (double ms : merged.latency_ms) open_ms += ms;

    report->attempted = all.attempted;
    report->failed = all.failed;
    report->wrong = all.wrong + wrong;
    // Each query's time is its median over the run, so a burst of outside
    // load that slows a few requests is dropped. Capacity sums the
    // connections' rates, each one cycle over those medians.
    double capacity = 0;
    for (const GenResult& r : closed) {
      double cycle_ms = 0;
      for (double ms : MediansById(r.ids, r.latency_ms, n)) cycle_ms += ms;
      capacity += 1000.0 * static_cast<double>(n) / cycle_ms;
    }
    report->Set("ops_per_s", capacity, "1/s");
    report->SetLatency(MediansById(merged.ids, merged.latency_ms, n));
    report->Set("store_bytes_per_row",
                static_cast<double>(store_bytes_) /
                    static_cast<double>(StoredRows()),
                "B/row");
    report->SetLayers(merged.layers, open_queries, open_ms);
    report->SetJoin(merged.totals);
    report->SetCache(cache_before, cache_after, open_queries);
    report->Set("net.overhead_ms_p50", Median(merged.overhead_ms), "ms");
    report->Set("net.bytes_per_query",
                static_cast<double>(closed_bytes) /
                    static_cast<double>(closed_queries),
                "B");
    report->Set("net.overloaded",
                static_cast<double>(overloaded.Value() - overloaded_before),
                "count");
    report->Set("net.ingest_ms_p50", Median(writer_ms), "ms");
    const double late_p99 = Percentile(merged.late_ms, 0.99);
    report->Set("loadgen.late_ms_p99", late_p99, "ms");
    report->Note("open_loop_rate_per_s", std::to_string(kOpenLoopRate));
    report->Note("open_loop_queries", std::to_string(open_queries));
    report->Note("closed_loop_queries", std::to_string(closed_queries));
    report->Note("writer_pipelines", std::to_string(writer_ms.size()));
    report->Note("cache_bytes", std::to_string(kCacheBytes));
    report->Note("decoded_working_set_bytes", std::to_string(decoded_bytes_));
    if (late_p99 > kLateBoundMs)
      return Status::Unavailable(
          "invalid run: load generator p99 lateness " +
          std::to_string(late_p99) + " ms exceeds " +
          std::to_string(kLateBoundMs) + " ms");
    return Status::OK();
  }

 private:
  int64_t StoredRows() const {
    int64_t rows = 0;
    for (const auto* flows : {&chains_, &fig8_})
      for (const Workflow& wf : *flows)
        for (const auto& step : wf.steps) rows += step.relation.num_rows();
    return rows;
  }

  Status MakeWriterPipeline(int64_t w, uint64_t structure_seed,
                            uint64_t value_seed) {
    DSLOG_ASSIGN_OR_RETURN(
        CapturedChain chain,
        CaptureChain(Tagged("w", w), structure_seed, value_seed, kWriterCells,
                     kWriterOps, /*value_independent_only=*/false));
    const Workflow& wf = chain.workflow;
    WriterPipeline p;
    p.names = StoredNames(wf, wf.name);
    p.shapes = wf.shapes;
    for (size_t k = 0; k < wf.steps.size(); ++k) {
      OperationRegistration reg;
      reg.op_name = wf.steps[k].op_name;
      reg.in_arrs = {p.names[k]};
      reg.out_arr = p.names[k + 1];
      reg.captured = {std::move(chain.workflow.steps[k].relation)};
      reg.args = std::move(chain.args[k]);
      reg.content_hash = chain.content_hashes[k];
      p.ops.push_back(std::move(reg));
    }
    writes_.push_back(std::move(p));
    return Status::OK();
  }

  // One query round trip due at `due`; records latency from `due` and checks
  // the answer. A connection has one request in flight, so it is `ready` to
  // send at max(due, previous answer): the wait from `due` to the send is
  // the system's queueing, the wait from `ready` is the generator's own
  // lateness (scheduling, CPU starvation).
  void Ask(DslogClient* client, size_t qi, Clock::time_point due,
           Clock::time_point ready, int64_t rid, GenResult* out) {
    const CheckedQuery& q = queries_[qi];
    QueryOptions qopts;
    qopts.profile = options_.traced;
    std::string profile_json;
    const Clock::time_point sent = Clock::now();
    auto answer = [&] {
      trace::Span span("DslogClient.Query", LayerName(kNet));
      span.Arg("rid", rid);
      return client->Query(q.path, q.query, qopts,
                           options_.traced ? &profile_json : nullptr);
    }();
    const Clock::time_point done = Clock::now();
    ++out->attempted;
    out->ids.push_back(qi);
    auto ms = [](Clock::duration d) {
      return std::chrono::duration<double, std::milli>(d).count();
    };
    out->latency_ms.push_back(ms(done - due));
    out->late_ms.push_back(ms(sent - ready));
    if (!answer.ok()) {
      ++out->failed;  // failed or refused (kOverloaded answers kUnavailable)
      return;
    }
    if (Fingerprint(answer.value()) != q.fingerprint) ++out->wrong;
    if (options_.traced) {
      ProfileTotals one;
      one.AddJson(profile_json);
      const double overhead = ms(done - sent) - one.wall_ms - one.resolve_ms;
      out->overhead_ms.push_back(overhead);
      out->layers.ms[kLoadGen] += ms(sent - due);
      out->layers.ms[kNet] += overhead;
      out->layers.ms[kLogStore] += one.resolve_ms;
      out->layers.ms[kQuery] += one.wall_ms;
      out->totals += one;
    }
  }

  // Requests 0, 2, 4, ... (conn 0) and 1, 3, 5, ... (conn 1) walk the query
  // permutation together.
  void OpenLoop(DslogClient* client, int conn, int64_t count,
                Clock::time_point start, GenResult* out) {
    const double period_s = 2.0 / kOpenLoopRate;
    Clock::time_point answered = start;
    for (int64_t k = 0; k < count; ++k) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       (static_cast<double>(k) + 0.5 * conn) *
                                       period_s));
      std::this_thread::sleep_until(due);
      const int64_t rid = k * 2 + conn;
      Ask(client, order_[static_cast<size_t>(rid) % order_.size()], due,
          std::max(due, answered), rid, out);
      answered = Clock::now();
    }
  }

  // Each connection cycles the permutation from its own third of it.
  void ClosedLoop(DslogClient* client, int conn, int64_t count,
                  GenResult* out) {
    const size_t n = order_.size();
    for (int64_t k = 0; k < count; ++k) {
      const Clock::time_point now = Clock::now();
      Ask(client,
          order_[(static_cast<size_t>(k) + conn * n / kClosedConnections) % n],
          now, now, k * kClosedConnections + conn, out);
    }
  }

  void WriteLoop(DslogClient* client, Clock::time_point start, GenResult* out,
                 std::vector<double>* pipeline_ms) {
    for (size_t w = 0; w < writes_.size(); ++w) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       static_cast<double>(w) / kWriterRate));
      std::this_thread::sleep_until(due);
      WriterPipeline& p = writes_[w];
      const Clock::time_point t0 = Clock::now();
      trace::Span span("IngestHandle.Drain", LayerName(kNet));
      span.Arg("rid", static_cast<int64_t>(w));
      bool ok = true;
      for (size_t k = 0; k < p.shapes.size(); ++k)
        ok = ok && client->DefineArray(p.names[k], p.shapes[k]).ok();
      net::IngestHandle handle(client);
      for (const OperationRegistration& reg : p.ops)
        ok = ok && handle.Add(reg).ok();
      ok = ok && handle.Drain().ok();
      pipeline_ms->push_back(MillisSince(t0));
      out->attempted += static_cast<int64_t>(p.ops.size());
      if (!ok) ++out->failed;
    }
  }

  RunOptions options_;
  std::vector<Workflow> fig8_;
  std::vector<Workflow> chains_;
  std::vector<CheckedQuery> queries_;
  std::vector<size_t> order_;  // the fixed permutation connections cycle
  std::vector<WriterPipeline> writes_;
  int64_t store_bytes_ = 0;
  int64_t decoded_bytes_ = 0;
  // Declared last: clients close before the server they talk to stops.
  std::unique_ptr<DslogServer> server_;
  std::vector<std::unique_ptr<DslogClient>> clients_;
};

}  // namespace

std::unique_ptr<Workload> MakeServe(const RunOptions& options) {
  return std::make_unique<Serve>(options);
}

}  // namespace e2e
}  // namespace dslog
