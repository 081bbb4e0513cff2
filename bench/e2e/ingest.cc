// Workload `ingest`: one thread ingests a fixed, seeded stream of pipelines
// into one columnar LogStore file. Most are Fig-9 random numpy chains run
// op by op (ArrayOp::Apply untimed, ArrayOp::Capture timed); every
// kFig8Every-th pipeline is one of the three Fig-8 workflows, whose lineage
// was captured during set-up. Per pipeline: StagedIngest::Add per op, one
// Drain, one AppendLogStore (no fsync: the writer has none).
//
// This is the only workload where capture, ProvRC and the LogStore writer
// do the work. The stream length is fixed, never "as many as fit": the cost
// of an append grows with the store, so a time-boxed run would measure a
// faster build on a larger store.

#include <filesystem>

#include "common/hash.h"
#include "e2e.h"
#include "storage/dslog.h"

namespace dslog {
namespace e2e {
namespace {

constexpr double kPipelinesPerSecond = 40;  // stream length per --seconds
constexpr int64_t kCells = 3000;            // input cells per random chain
constexpr int kFig8Every = 16;              // one Fig-8 workflow per 16
constexpr int64_t kOracleCells = 8;         // forward-query cells per chain

struct PipelineCheck {
  std::vector<std::string> path;
  std::vector<int64_t> cells;   // query cell tuples over path[0]
  std::vector<int64_t> oracle;  // canonical cells over path.back()
  int in_ndim = 1;
  int out_ndim = 1;
};

class Ingest : public Workload {
 public:
  explicit Ingest(const RunOptions& options) : options_(options) {}

  Status Setup() override {
    DSLOG_ASSIGN_OR_RETURN(fig8_, BuildFig8Workflows(options_.seed));
    path_ = options_.workdir + "/ingest.dslog";
    return NewStore();
  }

  Status Run(Report* report) override {
    const int64_t num_pipelines = std::max<int64_t>(
        1, std::llround(kPipelinesPerSecond * options_.seconds / kRepetitions));
    std::vector<std::vector<double>> rep_ms(kRepetitions);
    std::vector<PipelineCheck> checks;
    int64_t rep_ops = 0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      // Every repetition ingests the same stream into a fresh store.
      if (rep > 0) DSLOG_RETURN_IF_ERROR(NewStore());
      checks.clear();
      captured_rows_ = 0;
      // Oracle work stays out of the earlier repetitions, whose cache it
      // would disturb; the per-pipeline medians lean on those.
      checking_ = rep == kRepetitions - 1;
      const int64_t ops_before = ops_;
      trace::EnabledScope tracing(options_.traced);  // the timed phase only
      for (int64_t i = 0; i < num_pipelines; ++i) {
        PipelineCheck check;
        double ms = 0;
        Status st = i % kFig8Every == kFig8Every - 1
                        ? IngestFig8(i, &check, &ms)
                        : IngestChain(i, &check, &ms);
        if (!st.ok()) {
          std::fprintf(stderr, "pipeline %lld: %s\n",
                       static_cast<long long>(i), st.ToString().c_str());
          ++report->failed;
        }
        rep_ms[static_cast<size_t>(rep)].push_back(ms);
        checks.push_back(std::move(check));
      }
      rep_ops = ops_ - ops_before;
    }
    const std::vector<double> pipeline_ms = UnitMedians(rep_ms);
    double timed_ms = 0, all_reps_ms = 0;
    for (double ms : pipeline_ms) timed_ms += ms;
    for (const auto& rep : rep_ms)
      for (double ms : rep) all_reps_ms += ms;
    report->attempted = ops_;
    // One repetition's ops over the sum of the per-pipeline median times.
    report->Set("ops_per_s", 1000.0 * static_cast<double>(rep_ops) / timed_ms,
                "1/s");
    report->SetLatency(pipeline_ms);
    report->SetLayers(layers_, num_pipelines * kRepetitions, all_reps_ms);
    report->Set("storage.append_ms_last", last_append_ms_, "ms");
    report->Set("array.capture_rows", static_cast<double>(captured_rows_),
                "count");
    report->Note("pipelines", std::to_string(num_pipelines));
    report->Note("ops", std::to_string(rep_ops));

    // Check every pipeline's oracle answer against the last repetition's
    // store, reopened the way a reader would.
    DSLOG_ASSIGN_OR_RETURN(DSLog reopened, DSLog::OpenInSitu(path_));
    for (const PipelineCheck& check : checks) {
      if (check.path.size() < 2) continue;
      auto answer = reopened.ProvQuery(
          check.path, BoxTable::FromCells(check.in_ndim, check.cells));
      if (!answer.ok() ||
          !SameCells(answer.value(), check.oracle, check.out_ndim))
        ++report->wrong;
    }
    const auto store = reopened.log_store();
    int64_t stored_rows = 0;
    for (const auto& seg : store->segments()) stored_rows += seg.row_count;
    report->Set("store_bytes_per_row",
                static_cast<double>(store->file_size()) /
                    static_cast<double>(captured_rows_),
                "B/row");
    report->Set("provrc.rows_out_per_in",
                static_cast<double>(stored_rows) /
                    static_cast<double>(captured_rows_),
                "ratio");
    report->Note("store_bytes", std::to_string(store->file_size()));
    report->Note("captured_rows", std::to_string(captured_rows_));
    return Status::OK();
  }

 private:
  // A fresh catalog and an empty store file to append to.
  Status NewStore() {
    std::filesystem::remove(path_);
    log_ = std::make_unique<DSLog>();
    return log_->SaveLogStore(path_);
  }

  // Drain + append, the end of every pipeline.
  Status Commit(StagedIngest* stager, int64_t rid) {
    DSLOG_RETURN_IF_ERROR(TimedCall(&layers_, kStorage, "StagedIngest.Drain",
                                    rid, [&] { return stager->Drain(); })
                              .status());
    const double before = layers_.ms[kAppend];
    Status st = TimedCall(&layers_, kAppend, "DSLog.AppendLogStore", rid,
                          [&] { return log_->AppendLogStore(path_); });
    last_append_ms_ = layers_.ms[kAppend] - before;
    return st;
  }

  Status Define(const std::string& name, std::vector<int64_t> shape,
                int64_t rid) {
    return TimedCall(&layers_, kStorage, "DSLog.DefineArray", rid, [&] {
      return log_->DefineArray(name, std::move(shape));
    });
  }

  Status Stage(StagedIngest* stager, OperationRegistration reg, int64_t rid) {
    ++ops_;
    return TimedCall(&layers_, kProvRc, "StagedIngest.Add", rid,
                     [&] { return stager->Add(std::move(reg)); });
  }

  // One Fig-9 chain, timed from its first op output to its append's return.
  Status IngestChain(int64_t rid, PipelineCheck* check, double* pipeline_ms) {
    ChainSampler sampler(HashCombine(kStructureSeed, static_cast<uint64_t>(rid)),
                         /*value_independent_only=*/false);
    const int num_ops = sampler.rng()->Bernoulli(0.5) ? 5 : 10;
    Rng values(HashCombine(options_.seed, static_cast<uint64_t>(rid)));
    NDArray current = NDArray::Random({kCells}, &values);
    const std::string prefix = Tagged("p", rid) + "_x";
    check->path.push_back(prefix + "0");
    check->cells = SampleCells(current.shape(), kOracleCells, &values);
    std::vector<int64_t> frontier = check->cells;

    StagedIngest stager(log_.get());
    Stopwatch watch;
    bool started = false;
    for (int k = 0; k < num_ops; ++k) {
      const ArrayOp* op = nullptr;
      OpArgs args;
      NDArray next;
      watch.Pause();  // ArrayOp::Apply is not timed
      if (!sampler.Propose(current, &op, &args, &next)) break;
      if (!started) {
        watch.Start();  // from the pipeline's first op output
        started = true;
        DSLOG_RETURN_IF_ERROR(Define(check->path[0], current.shape(), rid));
      } else {
        watch.Resume();
      }
      auto captured =
          TimedCall(&layers_, kArray, "ArrayOp.Capture", rid,
                    [&] { return op->Capture({&current}, next, args); });
      watch.Pause();
      if (!captured.ok() ||
          !ChainSampler::AcceptRows(captured.value()[0].num_rows(),
                                    current.size()))
        continue;  // the generator's row guard: op dropped, not ingested
      std::vector<LineageRelation> rels = std::move(captured).ValueOrDie();
      captured_rows_ += rels[0].num_rows();
      if (checking_)
        frontier = RelationJoinStep(rels[0], /*forward=*/true, frontier);
      OperationRegistration reg;
      reg.op_name = op->name();
      reg.in_arrs = {check->path.back()};
      reg.out_arr = prefix + std::to_string(check->path.size());
      reg.captured = std::move(rels);
      reg.args = std::move(args);
      reg.content_hash = current.ContentHash();
      check->path.push_back(reg.out_arr);
      check->out_ndim = next.ndim();
      watch.Resume();
      DSLOG_RETURN_IF_ERROR(Define(reg.out_arr, next.shape(), rid));
      DSLOG_RETURN_IF_ERROR(Stage(&stager, std::move(reg), rid));
      current = std::move(next);
    }
    if (!started) return Status::OK();
    watch.Resume();
    Status st = Commit(&stager, rid);
    *pipeline_ms = watch.StopMillis();
    check->oracle = CanonicalCells(std::move(frontier), check->out_ndim);
    return st;
  }

  // One Fig-8 workflow, its lineage captured during set-up.
  Status IngestFig8(int64_t rid, PipelineCheck* check, double* pipeline_ms) {
    const Workflow& wf = fig8_[static_cast<size_t>(rid / kFig8Every) % 3];
    check->path = StoredNames(wf, Tagged("p", rid));
    check->in_ndim = static_cast<int>(wf.shapes.front().size());
    check->out_ndim = static_cast<int>(wf.shapes.back().size());
    if (checking_) {
      Rng rng(HashCombine(options_.seed, static_cast<uint64_t>(rid)));
      check->cells = SampleCells(wf.shapes.front(), kOracleCells, &rng);
      std::vector<RelationHop> hops;
      for (const auto& step : wf.steps) hops.push_back({&step.relation, true});
      check->oracle = CanonicalCells(UncompressedQuery(hops, check->cells),
                                     check->out_ndim);
    }

    StagedIngest stager(log_.get());
    Stopwatch watch;
    watch.Start();
    for (size_t k = 0; k < wf.shapes.size(); ++k)
      DSLOG_RETURN_IF_ERROR(Define(check->path[k], wf.shapes[k], rid));
    for (size_t k = 0; k < wf.steps.size(); ++k) {
      watch.Pause();
      OperationRegistration reg;
      reg.op_name = wf.steps[k].op_name;
      reg.in_arrs = {check->path[k]};
      reg.out_arr = check->path[k + 1];
      reg.captured = {wf.steps[k].relation};  // copy: set-up owns the original
      captured_rows_ += wf.steps[k].relation.num_rows();
      watch.Resume();
      DSLOG_RETURN_IF_ERROR(Stage(&stager, std::move(reg), rid));
    }
    Status st = Commit(&stager, rid);
    *pipeline_ms = watch.StopMillis();
    return st;
  }

  RunOptions options_;
  std::vector<Workflow> fig8_;
  std::string path_;
  std::unique_ptr<DSLog> log_;
  LayerTimes layers_;
  int64_t ops_ = 0;
  int64_t captured_rows_ = 0;
  bool checking_ = false;  // computing oracle answers (last repetition)
  double last_append_ms_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeIngest(const RunOptions& options) {
  return std::make_unique<Ingest>(options);
}

}  // namespace e2e
}  // namespace dslog
