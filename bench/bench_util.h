// Shared helpers for the benchmark harnesses: the twelve Table VII
// operations (scaled to laptop size; see docs/ARCHITECTURE.md for the
// mapping), format size/latency measurement, and table printing.

#ifndef DSLOG_BENCH_BENCH_UTIL_H_
#define DSLOG_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "array/ndarray.h"
#include "array/op.h"
#include "array/op_registry.h"
#include "baselines/storage_format.h"
#include "common/check.h"
#include "common/random.h"
#include "common/timer.h"
#include "explain/explain.h"
#include "lineage/lineage_relation.h"
#include "provrc/provrc.h"
#include "provrc/serialize.h"
#include "relational/relational_ops.h"
#include "workloads/workflows.h"

namespace dslog {
namespace bench {

/// Build type of the dslog code compiled into this bench binary (distinct
/// from google-benchmark's own library_build_type, which describes the
/// system libbenchmark package). Debug-build numbers are not comparable to
/// release numbers; JsonReporter stamps this into every document and tags
/// debug documents so they can never be mistaken for real measurements.
#ifdef NDEBUG
inline constexpr bool kDebugBuild = false;
inline constexpr const char kBuildType[] = "release";
#else
inline constexpr bool kDebugBuild = true;
inline constexpr const char kBuildType[] = "debug";
#endif

/// One Table VII workload: an operation name plus the captured lineage
/// relations it produced (one per input array).
struct Table7Workload {
  std::string name;
  std::vector<LineageRelation> relations;

  int64_t TotalRows() const {
    int64_t n = 0;
    for (const auto& r : relations) n += r.num_rows();
    return n;
  }
};

inline LineageRelation CaptureRegistryOp(
    const char* op_name, const std::vector<const NDArray*>& inputs,
    const OpArgs& args, int which = 0) {
  const ArrayOp* op = OpRegistry::Global().Find(op_name);
  DSLOG_CHECK(op != nullptr) << op_name;
  NDArray out = op->Apply(inputs, args).ValueOrDie();
  return std::move(
      op->Capture(inputs, out, args).ValueOrDie()[static_cast<size_t>(which)]);
}

/// Builds the twelve Table VII workloads at the configured scale.
inline std::vector<Table7Workload> BuildTable7Workloads(uint64_t seed) {
  Rng rng(seed);
  std::vector<Table7Workload> workloads;

  auto add = [&workloads](std::string name, std::vector<LineageRelation> rels) {
    workloads.push_back({std::move(name), std::move(rels)});
  };

  // 1. Negative: element-wise over a 500x1000 array.
  {
    NDArray a = NDArray::Random({500, 1000}, &rng);
    add("Negative", {CaptureRegistryOp("negative", {&a}, OpArgs())});
  }
  // 2. Addition: two 500x1000 inputs (one relation per input).
  {
    NDArray a = NDArray::Random({500, 1000}, &rng);
    NDArray b = NDArray::Random({500, 1000}, &rng);
    const ArrayOp* op = OpRegistry::Global().Find("add");
    NDArray out = op->Apply({&a, &b}, OpArgs()).ValueOrDie();
    auto rels = op->Capture({&a, &b}, out, OpArgs()).ValueOrDie();
    add("Addition", std::move(rels));
  }
  // 3. Aggregate: sum over axis 1 of 500x1000.
  {
    NDArray a = NDArray::Random({500, 1000}, &rng);
    OpArgs args;
    args.SetInt("axis", 1);
    add("Aggregate", {CaptureRegistryOp("sum", {&a}, args)});
  }
  // 4. Repetition: tile a 250k-cell vector x4.
  {
    NDArray a = NDArray::Random({250000}, &rng);
    OpArgs args;
    args.SetInt("reps", 4);
    add("Repetition", {CaptureRegistryOp("tile", {&a}, args)});
  }
  // 5. Matrix*Vector: (300x300) . (300).
  {
    NDArray a = NDArray::Random({300, 300}, &rng);
    NDArray v = NDArray::Random({300}, &rng);
    const ArrayOp* op = OpRegistry::Global().Find("matmul");
    NDArray out = op->Apply({&a, &v}, OpArgs()).ValueOrDie();
    auto rels = op->Capture({&a, &v}, out, OpArgs()).ValueOrDie();
    add("Matrix*Vector", std::move(rels));
  }
  // 6. Matrix*Matrix: (64x64) . (64x64).
  {
    NDArray a = NDArray::Random({64, 64}, &rng);
    NDArray b = NDArray::Random({64, 64}, &rng);
    const ArrayOp* op = OpRegistry::Global().Find("matmul");
    NDArray out = op->Apply({&a, &b}, OpArgs()).ValueOrDie();
    auto rels = op->Capture({&a, &b}, out, OpArgs()).ValueOrDie();
    add("Matrix*Matrix", std::move(rels));
  }
  // 7. Sort: random 500k-cell vector (ProvRC worst case).
  {
    NDArray a = NDArray::Random({500000}, &rng);
    add("Sort", {CaptureRegistryOp("sort", {&a}, OpArgs())});
  }
  // 8. ImgFilter: 3x3 convolution over a 300x300 frame.
  {
    NDArray frame = MakeSurveillanceFrame(300, 300, seed + 1);
    const double k[9] = {0.1, 0.1, 0.1, 0.1, 0.2, 0.1, 0.1, 0.1, 0.1};
    auto conv = Conv3x3Same(frame, k).ValueOrDie();
    add("ImgFilter", {std::move(conv.second)});
  }
  // 9/10. LIME and DRISE over the tiny detector on a synthetic frame.
  {
    NDArray frame = MakeSurveillanceFrame(128, 128, seed + 2);
    TinyDetector detector;
    Rng xrng(seed + 3);
    add("Lime",
        {LimeCapture(frame, detector, LimeOptions{}, &xrng).ValueOrDie()});
    add("DRISE",
        {DRiseCapture(frame, detector, DRiseOptions{}, &xrng).ValueOrDie()});
  }
  // 11. Group By: IMDB-like basics grouped by unsorted isAdult.
  {
    NDArray basics = MakeTitleBasics(200000, seed + 4);
    auto grouped = GroupByAggregate(basics, 2, 3).ValueOrDie();
    add("Group By", {std::move(grouped.lineage[0])});
  }
  // 12. Inner Join: basics x episode on sorted tconst.
  {
    NDArray basics = MakeTitleBasics(120000, seed + 5);
    NDArray episode = MakeTitleEpisode(80000, 120000, seed + 6);
    auto joined = InnerJoin(basics, episode, 0, 0).ValueOrDie();
    add("Inner Join", std::move(joined.lineage));
  }
  return workloads;
}

/// Serialized ProvRC size over all relations of a workload.
inline int64_t ProvRcBytes(const std::vector<LineageRelation>& rels,
                           bool gzip, const ProvRcOptions& options = {}) {
  int64_t total = 0;
  for (const auto& rel : rels) {
    CompressedTable t = ProvRcCompress(rel, options);
    total += static_cast<int64_t>(gzip ? SerializeCompressedTableGzip(t).size()
                                       : SerializeCompressedTable(t).size());
  }
  return total;
}

/// Serialized baseline-format size over all relations of a workload.
inline int64_t FormatBytes(const StorageFormat& format,
                           const std::vector<LineageRelation>& rels) {
  int64_t total = 0;
  for (const auto& rel : rels)
    total += static_cast<int64_t>(format.Encode(rel).size());
  return total;
}

inline void PrintRule(int width = 118) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

// --------------------------------------------------- machine-readable out --

/// Structured benchmark output, shared by every bench harness. Construct one
/// in main:
///
///   JsonReporter json("fig8_workflows", argc, argv);
///   json.Add().Str("workflow", name).Num("selectivity", sel).Num("s", t);
///
/// Passing `--json <path>` on the command line (or a non-empty
/// `default_path`) enables it; on destruction the accumulated records are
/// written as one JSON document:
///   {"bench": "<name>", "num_cpus": N, ..., "records": [{...}, ...]}
/// so successive runs can be archived as a perf trajectory. `num_cpus`
/// (std::thread::hardware_concurrency of the bench host) is recorded in
/// every document automatically, so a scaling number can never again be
/// read without knowing how many cores produced it. Additional top-level
/// fields go through TopStr/TopNum/TopBool (e.g. the degraded_host tag).
class JsonReporter {
 public:
  /// One flat record of string/number fields, insertion-ordered.
  class Record {
   public:
    Record& Str(const std::string& key, const std::string& value);
    Record& Num(const std::string& key, double value);

   private:
    friend class JsonReporter;
    /// key -> already-rendered JSON literal.
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  /// Parses `--json <path>` out of argv. Unrecognized arguments are left
  /// for the bench's own parsing.
  JsonReporter(std::string bench_name, int argc, char** argv,
               std::string default_path = "");
  ~JsonReporter();
  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;

  bool enabled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  /// Starts a new record. The reference stays valid for the reporter's
  /// lifetime (deque-backed), so it can be filled incrementally.
  Record& Add();

  /// Sets a top-level document field (next to "bench" and "num_cpus",
  /// outside "records"). Re-setting a key overwrites it.
  void TopStr(const std::string& key, const std::string& value);
  void TopNum(const std::string& key, double value);
  void TopBool(const std::string& key, bool value);

  /// Nested mode: Write() splices this reporter's document as the value of
  /// top-level field `key` inside the JsonReporter document already at
  /// path(), instead of overwriting the file. Re-splicing replaces a
  /// previous section with the same key, so repeated runs are idempotent;
  /// when the host file is missing or not a JSON object the document is
  /// written standalone. Lets a satellite bench (bench_catalog_scale) ride
  /// inside an archived document (BENCH_storage.json) without clobbering
  /// the host bench's records.
  void set_nested_key(std::string key) { nested_key_ = std::move(key); }

  /// Writes the document now; otherwise the destructor does. No-op when
  /// disabled or already written.
  void Write();

 private:
  std::string bench_name_;
  std::string path_;
  std::string nested_key_;
  /// key -> already-rendered JSON literal, insertion-ordered.
  std::vector<std::pair<std::string, std::string>> top_fields_;
  std::deque<Record> records_;
  bool written_ = false;
};

// ------------------------------------------------------- query measurement --

/// A workflow whose lineage has been encoded once per storage format
/// (setup cost excluded from query latency, as in the paper: tables are
/// already stored when the user issues prov_query).
struct PreparedWorkflow {
  const Workflow* workflow = nullptr;
  /// Per-format, per-step encoded buffers (format order of
  /// MakeAllBaselineFormats).
  std::vector<std::vector<std::string>> format_buffers;
  /// Serialized ProvRC-GZip tables per step (DSLog storage).
  std::vector<std::string> dslog_buffers;
};

inline PreparedWorkflow PrepareWorkflow(const Workflow& wf) {
  PreparedWorkflow prep;
  prep.workflow = &wf;
  auto formats = MakeAllBaselineFormats();
  prep.format_buffers.resize(formats.size());
  for (size_t f = 0; f < formats.size(); ++f)
    for (const auto& step : wf.steps)
      prep.format_buffers[f].push_back(formats[f]->Encode(step.relation));
  for (const auto& step : wf.steps)
    prep.dslog_buffers.push_back(
        SerializeCompressedTableGzip(ProvRcCompress(step.relation)));
  return prep;
}

/// Forward query over one baseline format: decode every hop's table, then
/// chain hash natural joins. Returns latency in seconds, or -1 on timeout.
double QueryBaselineFormat(const StorageFormat& format,
                           const std::vector<std::string>& buffers,
                           const std::vector<int64_t>& query_cells,
                           double timeout_seconds);

/// Forward query over the Array format using the vectorized equality scan
/// the paper evaluates (batched == comparisons, no hash index).
double QueryArrayVectorized(const std::vector<std::string>& buffers,
                            const std::vector<int64_t>& query_cells,
                            int query_ndim, double timeout_seconds);

/// Median of a non-empty sample (the upper middle for an even count).
inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Deserializes a workflow's ProvRC-GZip tables (DSLog's storage) into
/// owned tables; `decode_s`, when non-null, receives the wall time spent.
std::vector<CompressedTable> DecodeDSLogTables(
    const std::vector<std::string>& buffers, double* decode_s = nullptr);

/// Forward query through DSLog over decoded tables: times the in-situ
/// θ-join chain only. The first call on fresh tables also builds their
/// cached forward indexes.
double QueryDSLog(const std::vector<CompressedTable>& tables,
                  const std::vector<int64_t>& query_cells, int query_ndim,
                  bool merge);

/// Samples `count` distinct flattened cells of the workflow's first array
/// and returns them as index tuples (flattened).
std::vector<int64_t> SampleQueryCells(const Workflow& wf, int64_t count,
                                      Rng* rng);

}  // namespace bench
}  // namespace dslog

#endif  // DSLOG_BENCH_BENCH_UTIL_H_
