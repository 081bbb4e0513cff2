// Workload `reuse`: the §VI reuse index serves lineage instead of capture.
// Set-up captures kTemplates pipeline templates twice, at two input
// lengths, which promotes their gen_sig signatures, and saves the store.
// The timed phase opens the store with OpenInSitu (restoring the sealed
// predictor) and replays templates on fresh inputs, at the template's
// length and at other lengths. Each op is first registered with no capture
// (RegisterOperation, reuse on); on NotFound the benchmark captures the op and
// registers it again. One AppendLogStore persists the new edges at the end.
//
// Capture and ProvRC mostly sit idle here. Templates use only ops whose
// lineage does not depend on cell values: §VI cannot serve the others.

#include <filesystem>

#include "common/hash.h"
#include "e2e.h"
#include "storage/dslog.h"

namespace dslog {
namespace e2e {
namespace {

constexpr double kReplaysPerSecond = 150;  // replayed pipelines per --seconds
constexpr int kTemplates = 20;
constexpr int kOpsPerTemplate = 6;
constexpr int64_t kMinCells = 8000;
constexpr int64_t kMaxCells = 16000;
constexpr int kCheckEvery = 8;  // oracle-check every 8th served registration

class Reuse : public Workload {
 public:
  explicit Reuse(const RunOptions& options) : options_(options) {}

  Status Setup() override {
    path_ = options_.workdir + "/reuse.dslog";
    std::filesystem::remove(path_);
    DSLog log;
    Rng structure(kStructureSeed);
    for (int t = 0; t < kTemplates; ++t) {
      const int64_t cells = structure.UniformRange(kMinCells, kMaxCells);
      template_cells_.push_back(cells);
      // Two captured instances at different lengths promote gen_sig.
      const int64_t lengths[2] = {cells, cells * 3 / 4};
      for (int i = 0; i < 2; ++i) {
        const int64_t id = 2 * t + i;
        DSLOG_ASSIGN_OR_RETURN(
            CapturedChain chain,
            CaptureChain(Tagged("s", id), TemplateSeed(t),
                         HashCombine(options_.seed, static_cast<uint64_t>(id)),
                         lengths[i], kOpsPerTemplate,
                         /*value_independent_only=*/true));
        const Workflow& wf = chain.workflow;
        DSLOG_RETURN_IF_ERROR(
            RegisterWorkflow(&log, wf, StoredNames(wf, wf.name), &chain));
        for (const auto& step : wf.steps) store_rows_ += step.relation.num_rows();
      }
    }
    DSLOG_RETURN_IF_ERROR(log.SaveLogStore(path_));
    store_bytes_ = static_cast<int64_t>(std::filesystem::file_size(path_));
    return Status::OK();
  }

  Status Run(Report* report) override {
    const int64_t num_replays = std::max<int64_t>(
        1, std::llround(kReplaysPerSecond * options_.seconds / kRepetitions));
    std::vector<std::vector<double>> rep_ms(kRepetitions);
    double timed_ms = 0;
    int64_t mispredictions = 0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      // Every repetition replays the same schedule on a copy of the set-up
      // store, so each starts from the same promoted predictor.
      const std::string rep_path = path_ + ".rep";
      // Checks stay out of the earlier repetitions, whose cache they would
      // disturb; the per-pipeline medians lean on those.
      checking_ = rep == kRepetitions - 1;
      std::filesystem::copy_file(
          path_, rep_path, std::filesystem::copy_options::overwrite_existing);
      trace::EnabledScope tracing(options_.traced);
      Stopwatch total;
      total.Start();
      auto opened = TimedCall(&layers_, kStorage, "DSLog.OpenInSitu", -1,
                              [&] { return DSLog::OpenInSitu(rep_path); });
      DSLOG_RETURN_IF_ERROR(opened.status());
      DSLog log = std::move(opened).ValueOrDie();
      const int64_t mispredicted = log.reuse_stats().mispredictions;

      Rng schedule(HashCombine(kStructureSeed, 0x7265706c6179));
      for (int64_t r = 0; r < num_replays; ++r) {
        const int t = static_cast<int>(schedule.Uniform(kTemplates));
        int64_t cells = template_cells_[static_cast<size_t>(t)];
        if (schedule.Bernoulli(0.5))
          cells = schedule.UniformRange(kMinCells, kMaxCells);
        total.Pause();
        rep_ms[static_cast<size_t>(rep)].push_back(
            Replay(&log, t, cells, r, report));
        total.Resume();
      }
      DSLOG_RETURN_IF_ERROR(
          TimedCall(&layers_, kAppend, "DSLog.AppendLogStore", -1,
                    [&] { return log.AppendLogStore(rep_path); }));
      timed_ms += total.StopMillis();
      mispredictions = log.reuse_stats().mispredictions - mispredicted;
    }
    const std::vector<double> replay_ms = UnitMedians(rep_ms);
    double replays_ms = 0;
    for (double ms : replay_ms) replays_ms += ms;
    for (const auto& rep : rep_ms)
      for (double ms : rep) timed_ms += ms;

    // Counters sum over repetitions; each repetition does the same work.
    const double per_rep = 1.0 / kRepetitions;
    report->attempted = registrations_;
    report->Set("ops_per_s",
                1000.0 * static_cast<double>(registrations_) * per_rep /
                    replays_ms,
                "1/s");
    report->SetLatency(replay_ms);
    report->Set("store_bytes_per_row",
                static_cast<double>(store_bytes_) /
                    static_cast<double>(store_rows_),
                "B/row");
    report->SetLayers(layers_, num_replays * kRepetitions, timed_ms);
    report->Set("reuse.hit_frac",
                static_cast<double>(served_) /
                    static_cast<double>(registrations_),
                "fraction");
    report->Set("reuse.fallback_captures",
                static_cast<double>(fallbacks_) * per_rep, "count");
    report->Set("reuse.mispredictions", static_cast<double>(mispredictions),
                "count");
    report->Set("array.capture_rows",
                static_cast<double>(captured_rows_) * per_rep, "count");
    report->Note("replays", std::to_string(num_replays));
    report->Note("served", std::to_string(served_ / kRepetitions));
    report->Note("checked_served", std::to_string(checked_));
    return Status::OK();
  }

 private:
  uint64_t TemplateSeed(int t) const {
    return HashCombine(kStructureSeed, static_cast<uint64_t>(t) + 1);
  }

  // One replayed pipeline of template `t` on `cells` fresh input values;
  // returns its timed milliseconds.
  double Replay(DSLog* log, int t, int64_t cells, int64_t rid,
                Report* report) {
    ChainSampler sampler(TemplateSeed(t), /*value_independent_only=*/true);
    Rng values(HashCombine(options_.seed, 0x7200000000 + static_cast<uint64_t>(rid)));
    NDArray current = NDArray::Random({cells}, &values);
    const std::string prefix = Tagged("r", rid) + "_x";
    Stopwatch watch;
    bool started = false;
    for (int k = 0; k < kOpsPerTemplate; ++k) {
      const ArrayOp* op = nullptr;
      OpArgs args;
      NDArray next;
      watch.Pause();  // ArrayOp::Apply is not timed
      if (!sampler.Propose(current, &op, &args, &next)) break;
      const uint64_t content_hash = current.ContentHash();
      if (!started) {
        watch.Start();  // from the pipeline's first op output
        started = true;
        if (!Define(log, prefix + "0", current.shape(), rid)) ++report->failed;
      } else {
        watch.Resume();
      }
      OperationRegistration reg;
      reg.op_name = op->name();
      reg.in_arrs = {prefix + std::to_string(k)};
      reg.out_arr = prefix + std::to_string(k + 1);
      reg.args = args;
      if (!Define(log, reg.out_arr, next.shape(), rid)) ++report->failed;
      ++registrations_;
      auto served = TimedCall(&layers_, kStorage, "DSLog.RegisterOperation",
                              rid, [&] { return log->RegisterOperation(reg); });
      if (served.ok()) {
        ++served_;
        if (checking_ && served_ % kCheckEvery == 0) {
          watch.Pause();
          if (!CheckServed(*log, *op, args, current, next, reg))
            ++report->wrong;
          watch.Resume();
        }
      } else if (served.status().code() == StatusCode::kNotFound) {
        ++fallbacks_;
        auto rels = TimedCall(&layers_, kArray, "ArrayOp.Capture", rid, [&] {
          return op->Capture({&current}, next, args);
        });
        if (rels.ok()) {
          captured_rows_ += rels.value()[0].num_rows();
          reg.captured = std::move(rels).ValueOrDie();
          reg.content_hash = content_hash;
          if (!TimedCall(&layers_, kProvRc, "DSLog.RegisterOperation", rid,
                         [&] { return log->RegisterOperation(std::move(reg)); })
                   .ok())
            ++report->failed;
        } else {
          ++report->failed;
        }
      } else {
        ++report->failed;
      }
      current = std::move(next);
    }
    return started ? watch.StopMillis() : 0.0;
  }

  bool Define(DSLog* log, const std::string& name,
              const std::vector<int64_t>& shape, int64_t rid) {
    return TimedCall(&layers_, kStorage, "DSLog.DefineArray", rid,
                     [&] { return log->DefineArray(name, shape); })
        .ok();
  }

  // Captures the served op untimed and compares a forward query over the
  // served edge with the uncompressed oracle.
  bool CheckServed(const DSLog& log, const ArrayOp& op, const OpArgs& args,
                   const NDArray& input, const NDArray& output,
                   const OperationRegistration& reg) {
    ++checked_;
    auto rels = op.Capture({&input}, output, args);
    if (!rels.ok()) return false;
    Rng rng(HashCombine(options_.seed, static_cast<uint64_t>(served_)));
    std::vector<int64_t> cells = SampleCells(input.shape(), 8, &rng);
    std::vector<int64_t> oracle = CanonicalCells(
        RelationJoinStep(rels.value()[0], /*forward=*/true, cells),
        output.ndim());
    auto answer = log.ProvQuery({reg.in_arrs[0], reg.out_arr},
                                BoxTable::FromCells(input.ndim(), cells));
    return answer.ok() && SameCells(answer.value(), oracle, output.ndim());
  }

  RunOptions options_;
  std::string path_;
  std::vector<int64_t> template_cells_;
  int64_t store_bytes_ = 0;
  int64_t store_rows_ = 0;
  LayerTimes layers_;
  int64_t registrations_ = 0;
  int64_t served_ = 0;
  int64_t fallbacks_ = 0;
  int64_t checked_ = 0;
  int64_t captured_rows_ = 0;
  bool checking_ = false;  // oracle-checking served edges (last repetition)
};

}  // namespace

std::unique_ptr<Workload> MakeReuse(const RunOptions& options) {
  return std::make_unique<Reuse>(options);
}

}  // namespace e2e
}  // namespace dslog
