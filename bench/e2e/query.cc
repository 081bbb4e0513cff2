// Workload `query`: one client thread in a closed loop (num_threads = 1)
// over a columnar store of the three Fig-8 workflows opened with
// OpenInSitu. The default 64 MiB decode cache holds the whole working set
// and a warm-up pass runs during set-up, so θ-join, merge and the planner do
// the work while segment resolution is already warm. The query list mixes
// forward queries at selectivities 0.0005..0.25 with backward box queries.
//
// The intra-query parallel path (num_threads > 1) is left out: on a 4-core
// host it was slower than one thread and its tail too unsteady to gate on.

#include <filesystem>

#include "common/hash.h"
#include "e2e.h"
#include "storage/dslog.h"

namespace dslog {
namespace e2e {
namespace {

constexpr double kQueriesPerSecond = 400;  // closed-loop count per --seconds
constexpr double kForwardSelectivity[] = {0.0005, 0.005, 0.05, 0.25};
constexpr double kBackwardSelectivity[] = {0.02, 0.2};
constexpr int kVariants = 16;  // distinct queries per (workflow, kind)

class Query : public Workload {
 public:
  explicit Query(const RunOptions& options) : options_(options) {}

  Status Setup() override {
    DSLOG_ASSIGN_OR_RETURN(fig8_, BuildFig8Workflows(options_.seed));
    DSLog log;
    Rng rng(HashCombine(kStructureSeed, 0x7175657279));  // query cells
    for (const Workflow& wf : fig8_) {
      const std::vector<std::string> names = StoredNames(wf, wf.name);
      DSLOG_RETURN_IF_ERROR(RegisterWorkflow(&log, wf, names));
      for (int v = 0; v < kVariants; ++v) {
        for (double sel : kForwardSelectivity)
          queries_.push_back(MakeWorkflowQuery(wf, names, true, sel, &rng));
        for (double sel : kBackwardSelectivity)
          queries_.push_back(MakeWorkflowQuery(wf, names, false, sel, &rng));
      }
    }
    const std::string path = options_.workdir + "/query.dslog";
    std::filesystem::remove(path);
    DSLOG_RETURN_IF_ERROR(log.SaveLogStore(path));
    DSLOG_ASSIGN_OR_RETURN(DSLog opened, DSLog::OpenInSitu(path));
    log_ = std::make_unique<DSLog>(std::move(opened));
    store_bytes_ = log_->log_store()->file_size();
    for (const Workflow& wf : fig8_)
      for (const auto& step : wf.steps) stored_rows_ += step.relation.num_rows();

    // Warm-up pass: every distinct query once, fingerprinting its answer.
    for (CheckedQuery& q : queries_) {
      auto answer = log_->ProvQuery(q.path, q.query);
      if (answer.ok()) q.fingerprint = Fingerprint(answer.value());
    }
    return Status::OK();
  }

  Status Run(Report* report) override {
    // The timed phase cycles a fixed permutation of the distinct queries;
    // each query's latency is its median over the cycles.
    const size_t n = queries_.size();
    const int64_t cycles = std::max<int64_t>(
        1, std::llround(kQueriesPerSecond * options_.seconds /
                        static_cast<double>(n)));
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    Rng rng(kStructureSeed);
    rng.Shuffle(&order);

    QueryOptions qopts;
    qopts.num_threads = 1;
    qopts.profile = options_.traced;
    LayerTimes layers;
    ProfileTotals totals;
    std::vector<std::vector<double>> cycle_ms(
        static_cast<size_t>(cycles), std::vector<double>(n));
    // Before timing: each distinct query once against the oracle.
    report->wrong = CheckAll(queries_, [&](const CheckedQuery& q) {
      return log_->ProvQuery(q.path, q.query);
    });
    const LogStoreStats before = log_->log_store()->stats();
    trace::EnabledScope tracing(options_.traced);
    int64_t rid = 0;
    for (auto& times : cycle_ms) {
      for (size_t i : order) {
        const CheckedQuery& q = queries_[i];
        QueryProfile profile;
        const Clock::time_point t0 = Clock::now();
        auto answer = [&] {
          trace::Span span("DSLog.ProvQuery", LayerName(kQuery));
          span.Arg("rid", rid++);
          return log_->ProvQuery(q.path, q.query, qopts, &profile);
        }();
        const double ms = MillisSince(t0);
        times[i] = ms;
        if (!answer.ok()) {
          ++report->failed;
          continue;
        }
        if (Fingerprint(answer.value()) != q.fingerprint) ++report->wrong;
        if (options_.traced) {
          totals.Add(profile);
          double resolve_ms = 0;
          for (const HopProfile& hop : profile.hops)
            resolve_ms += static_cast<double>(hop.resolve_us) / 1000.0;
          layers.ms[kLogStore] += resolve_ms;
          layers.ms[kQuery] += ms - resolve_ms;
        }
      }
    }
    const LogStoreStats after = log_->log_store()->stats();

    const std::vector<double> query_ms = UnitMedians(cycle_ms);
    double cycle_total_ms = 0, all_ms = 0;
    for (double ms : query_ms) cycle_total_ms += ms;
    for (const auto& times : cycle_ms)
      for (double ms : times) all_ms += ms;
    const int64_t num_queries = cycles * static_cast<int64_t>(n);
    report->attempted = num_queries;
    report->Set("ops_per_s",
                1000.0 * static_cast<double>(n) / cycle_total_ms, "1/s");
    report->SetLatency(query_ms);
    report->Set("store_bytes_per_row",
                static_cast<double>(store_bytes_) /
                    static_cast<double>(stored_rows_),
                "B/row");
    report->SetLayers(layers, num_queries, all_ms);
    report->SetJoin(totals);
    report->SetCache(before, after, num_queries);
    report->Note("distinct_queries", std::to_string(n));
    report->Note("cycles", std::to_string(cycles));
    report->Note("store_bytes", std::to_string(store_bytes_));
    return Status::OK();
  }

 private:
  RunOptions options_;
  std::vector<Workflow> fig8_;
  std::vector<CheckedQuery> queries_;
  std::unique_ptr<DSLog> log_;
  int64_t store_bytes_ = 0;
  int64_t stored_rows_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeQuery(const RunOptions& options) {
  return std::make_unique<Query>(options);
}

}  // namespace e2e
}  // namespace dslog
