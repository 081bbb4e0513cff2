// Shared pieces of bench_e2e, the end-to-end benchmark binary: run options,
// the report every workload fills, per-layer timing of calls into the
// library (each wrapped in a trace::Span), latency statistics, answer
// fingerprints and the uncompressed oracle, and the seeded Fig-9 pipeline
// generator the ingest, reuse and serve workloads share.
//
// bench_e2e only calls the library's public API. It never calls anything
// on the ROADMAP's Subtract list (DSLog::Save/Load,
// ConvertLegacyDirToLogStore, footer_version, use_phf_index, the owned-table
// ThetaJoin overloads, query/interval_sweep.h), so deleting those leaves the
// benchmark untouched.

#ifndef DSLOG_BENCH_E2E_E2E_H_
#define DSLOG_BENCH_E2E_E2E_H_

#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "array/ndarray.h"
#include "array/op.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/trace.h"
#include "lineage/lineage_relation.h"
#include "query/box.h"
#include "query/query_engine.h"
#include "storage/dslog.h"
#include "workloads/workflows.h"

namespace dslog {
namespace e2e {

using Clock = std::chrono::steady_clock;

inline double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Scales each workload's fixed amount of work; the work never depends
  /// on how fast the build under test is.
  double seconds = 10;
  /// Per-layer run: trace spans on, QueryOptions::profile on.
  bool traced = false;
  /// Scratch directory for store files (created and removed by bench_e2e).
  std::string workdir;
};

/// The layers bench_e2e times from outside. Each value is also the trace
/// category of the spans around calls into that layer.
enum Layer {
  kArray,     // ArrayOp::Capture
  kProvRc,    // StagedIngest::Add, captured RegisterOperation
  kStorage,   // catalog: DefineArray, Drain, served RegisterOperation, Open
  kAppend,    // DSLog::AppendLogStore
  kLogStore,  // segment resolution inside a query (HopProfile.resolve_us)
  kQuery,     // theta-joins + merge (HopProfile.wall_ms) and ProvQuery self
  kNet,       // client round trip minus server-side query time
  kLoadGen,   // open loop: a request's wait from its due time to its send
  kNumLayers
};

const char* LayerName(Layer layer);

/// Self time per layer over the timed phase, measured around each call.
struct LayerTimes {
  double ms[kNumLayers] = {};

  double Total() const {
    double t = 0;
    for (double v : ms) t += v;
    return t;
  }
};

/// Times one call into a layer and records it as a trace span tagged with
/// the work unit's request id. The span costs one relaxed load when
/// tracing is off.
template <typename F>
auto TimedCall(LayerTimes* lt, Layer layer, const char* span_name,
               int64_t rid, F&& fn) {
  trace::Span span(span_name, LayerName(layer));
  span.Arg("rid", rid);
  const Clock::time_point t0 = Clock::now();
  auto result = fn();
  lt->ms[layer] += MillisSince(t0);
  return result;
}

/// A stopwatch that can be paused around work the benchmark does not time
/// (ArrayOp::Apply, oracle bookkeeping).
class Stopwatch {
 public:
  void Start() {
    elapsed_ms_ = 0;
    running_ = true;
    t0_ = Clock::now();
  }
  void Pause() {
    if (!running_) return;
    elapsed_ms_ += MillisSince(t0_);
    running_ = false;
  }
  void Resume() {
    if (running_) return;
    running_ = true;
    t0_ = Clock::now();
  }
  double StopMillis() {
    Pause();
    return elapsed_ms_;
  }

 private:
  Clock::time_point t0_;
  double elapsed_ms_ = 0;
  bool running_ = false;
};

/// Nearest-rank percentile (p in (0, 1]) of unsorted samples.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

/// The tail percentile every workload reports next to the median. A
/// workload's fixed work is sized so at least 10 samples lie beyond it.
inline constexpr double kTailPercentile = 0.95;

/// Every workload times each work unit (a pipeline, a distinct query)
/// several times and reduces it to its median, so a burst of load from
/// outside the process that slows one run of a unit is dropped; latency
/// percentiles and rates are then taken over the per-unit medians. The
/// stateful workloads (ingest, reuse) repeat their whole timed phase
/// kRepetitions times on fresh state; the query workloads cycle their
/// distinct queries.
inline constexpr int kRepetitions = 3;

/// Per-unit medians: times[r][i] is unit i's time in repetition r.
std::vector<double> UnitMedians(const std::vector<std::vector<double>>& times);

/// Per-unit medians of samples tagged with their unit: values[k] belongs to
/// unit ids[k] < n. Units without samples are left out.
std::vector<double> MediansById(const std::vector<size_t>& ids,
                                const std::vector<double>& values, size_t n);

/// Seed of every workload's structure: which ops each pipeline chains,
/// their arguments, input lengths and the replay schedule. --seed varies
/// only the data (input values, query cells, Fig-8 inputs), so two seeds
/// run the same work on different inputs.
inline constexpr uint64_t kStructureSeed = 0x5eed5eed;

/// Join-side counters summed over the hops of profiled queries.
struct ProfileTotals {
  int64_t queries = 0;
  double wall_ms = 0;     // QueryProfile.wall_ms: InSituQuery
  double join_ms = 0;     // sum of HopProfile.wall_ms
  double resolve_ms = 0;  // sum of HopProfile.resolve_us
  double rows_scanned = 0;
  double rows_emitted = 0;
  double result_boxes = 0;  // post-merge boxes per hop
  double est_rows = 0;

  void Add(const QueryProfile& profile);
  /// The same from QueryProfile::ToJson() text (the wire's profile option).
  void AddJson(const std::string& json);
  ProfileTotals& operator+=(const ProfileTotals& other);
};

/// What a workload hands back to main(): counts plus named metrics.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;  // failed or refused requests
  int64_t wrong = 0;   // answers that disagree with the oracle
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  /// Extra lines printed to stdout as "# key value" (sizes, stamps).
  std::vector<std::pair<std::string, std::string>> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }

  /// latency_ms_p50 / latency_ms_p95 of per-unit times plus the sample
  /// count note. Warns on stderr when fewer than 10 samples lie beyond the
  /// tail percentile.
  void SetLatency(const std::vector<double>& samples_ms);
  /// The per-layer metrics derived from layer times: each layer's ms per
  /// work unit and the share of the timed wall the layers account for.
  void SetLayers(const LayerTimes& lt, int64_t units, double timed_wall_ms);
  /// query.* per-layer metrics from profiled queries.
  void SetJoin(const ProfileTotals& totals);
  /// logstore.* decode-cache metrics over `queries` queries.
  void SetCache(const LogStoreStats& before, const LogStoreStats& after,
                int64_t queries);
};

/// One workload: Setup builds everything the timed phase needs (main runs
/// it several times on fresh objects and reports the median as setup_s);
/// Run measures the timed phase, then checks answers.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual Status Setup() = 0;
  virtual Status Run(Report* report) = 0;
};

std::unique_ptr<Workload> MakeIngest(const RunOptions& options);
std::unique_ptr<Workload> MakeReuse(const RunOptions& options);
std::unique_ptr<Workload> MakeQuery(const RunOptions& options);
std::unique_ptr<Workload> MakeServe(const RunOptions& options);

// ------------------------------------------------------------ answers --

/// Order-sensitive fingerprint of a query answer's boxes. A repeated query
/// over an unchanged store must return the identical box list.
uint64_t Fingerprint(const BoxTable& answer);

/// Sorts flattened cell tuples of `arity` and drops duplicates, the form
/// BoxTable::ExpandToCells returns.
std::vector<int64_t> CanonicalCells(std::vector<int64_t> cells, int arity);

/// Flattened index tuples of `count` distinct random cells of `shape`.
std::vector<int64_t> SampleCells(const std::vector<int64_t>& shape,
                                 int64_t count, Rng* rng);

/// True when `answer` covers exactly the oracle's cells.
bool SameCells(const BoxTable& answer, const std::vector<int64_t>& oracle,
               int arity);

/// A query over a stored copy of a workflow's chain X0 -> ... -> Xn.
struct CheckedQuery {
  const Workflow* workflow = nullptr;  // the captured lineage: the oracle
  bool forward = true;
  std::vector<std::string> path;
  BoxTable query;
  std::vector<int64_t> cells;  // the query's cell tuples, for the oracle
  int out_ndim = 0;
  /// Of the answer seen in the warm-up pass; every later answer must match.
  uint64_t fingerprint = 0;
};

/// Builds a query over workflow `wf` whose arrays are stored under
/// `names`: forward from a `selectivity` share of X0's cells, or (when
/// `forward` is false) backward from one box over the last array covering
/// that share of its cells. `wf` must outlive the query.
CheckedQuery MakeWorkflowQuery(const Workflow& wf,
                               const std::vector<std::string>& names,
                               bool forward, double selectivity, Rng* rng);

/// True when `answer` equals UncompressedQuery over the workflow's captured
/// relations and matches the warm-up fingerprint.
bool CheckAnswer(const CheckedQuery& q, const BoxTable& answer);

/// Runs `ask` once per query (serially), then checks every answer with
/// CheckAnswer on a few threads; returns how many failed or were wrong.
int64_t CheckAll(const std::vector<CheckedQuery>& queries,
                 const std::function<Result<BoxTable>(const CheckedQuery&)>& ask);

// --------------------------------------------------------- pipelines --

/// Seeded Fig-9 chain generator, one op at a time, with the same sampling
/// and blow-up guards as BuildRandomNumpyWorkflow, but with the op choices
/// seeded apart from the input values. Callers that time ArrayOp::Capture
/// apart from Apply capture lineage themselves.
class ChainSampler {
 public:
  /// `structure_seed` picks ops and arguments. `value_independent_only`
  /// drops ops whose lineage depends on cell values (reuse templates: §VI
  /// can never serve those).
  ChainSampler(uint64_t structure_seed, bool value_independent_only);

  /// Samples ops until one applies to `input` within the size guard;
  /// returns false after too many attempts.
  bool Propose(const NDArray& input, const ArrayOp** op, OpArgs* args,
               NDArray* output);

  /// The row guard applied after capture.
  static bool AcceptRows(int64_t rows, int64_t input_cells) {
    return rows > 0 && rows <= 16 * input_cells;
  }

  /// The structure stream (op choices, arguments, chain lengths).
  Rng* rng() { return &rng_; }

 private:
  Rng rng_;
  std::vector<const ArrayOp*> pool_;
};

/// A captured chain: the workflow (op names + lineage) plus what a
/// registration needs besides them.
struct CapturedChain {
  Workflow workflow;
  std::vector<OpArgs> args;              // per step
  std::vector<uint64_t> content_hashes;  // of each step's input
};

/// Captures up to `num_ops` ops chained by a ChainSampler seeded with
/// `structure_seed`, over `cells` input values drawn from `value_seed`.
Result<CapturedChain> CaptureChain(const std::string& name,
                                   uint64_t structure_seed,
                                   uint64_t value_seed, int64_t cells,
                                   int num_ops, bool value_independent_only);

/// Defines the arrays of `wf` under `names` and registers each step with
/// its captured lineage (copied: `wf` stays the oracle). `chain`, when
/// given, supplies arguments and content hashes for the reuse signatures.
Status RegisterWorkflow(DSLog* log, const Workflow& wf,
                        const std::vector<std::string>& names,
                        const CapturedChain* chain = nullptr);

/// The three Fig-8 workflows at the sizes the workloads use.
Result<std::vector<Workflow>> BuildFig8Workflows(uint64_t seed);

/// `tag` followed by `id`, e.g. Tagged("p", 12) == "p12". Appends rather
/// than writing `"p" + std::to_string(id)`, which GCC 12 misreports under
/// -Wrestrict.
inline std::string Tagged(const char* tag, int64_t id) {
  std::string s = tag;
  s += std::to_string(id);
  return s;
}

/// Array names for a stored copy of `wf` under `prefix`.
std::vector<std::string> StoredNames(const Workflow& wf,
                                     const std::string& prefix);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace e2e
}  // namespace dslog

#endif  // DSLOG_BENCH_E2E_E2E_H_
