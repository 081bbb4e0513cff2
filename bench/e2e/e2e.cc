#include "e2e.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "array/op_registry.h"
#include "common/hash.h"

namespace dslog {
namespace e2e {

const char* LayerName(Layer layer) {
  switch (layer) {
    case kArray: return "array";
    case kProvRc: return "provrc";
    case kStorage: return "storage";
    case kAppend: return "storage";
    case kLogStore: return "logstore";
    case kQuery: return "query";
    case kNet: return "net";
    case kLoadGen: return "loadgen";
    case kNumLayers: break;
  }
  return "?";
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(p * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

std::vector<double> UnitMedians(const std::vector<std::vector<double>>& times) {
  std::vector<double> medians;
  for (size_t i = 0; !times.empty() && i < times[0].size(); ++i) {
    std::vector<double> unit;
    for (const auto& rep : times) unit.push_back(rep[i]);
    medians.push_back(Median(std::move(unit)));
  }
  return medians;
}

std::vector<double> MediansById(const std::vector<size_t>& ids,
                                const std::vector<double>& values, size_t n) {
  std::vector<std::vector<double>> by_id(n);
  for (size_t k = 0; k < ids.size(); ++k) by_id[ids[k]].push_back(values[k]);
  std::vector<double> medians;
  for (auto& unit : by_id)
    if (!unit.empty()) medians.push_back(Median(std::move(unit)));
  return medians;
}

void Report::SetLatency(const std::vector<double>& samples_ms) {
  Set("latency_ms_p50", Percentile(samples_ms, 0.5), "ms");
  Set("latency_ms_p95", Percentile(samples_ms, kTailPercentile), "ms");
  Note("latency_samples", std::to_string(samples_ms.size()));
  const double beyond =
      (1.0 - kTailPercentile) * static_cast<double>(samples_ms.size());
  if (beyond < 10)
    std::fprintf(stderr,
                 "warning: only %.1f samples beyond p95 (%zu samples); raise "
                 "--seconds for a stable tail\n",
                 beyond, samples_ms.size());
}

void Report::SetLayers(const LayerTimes& lt, int64_t units,
                       double timed_wall_ms) {
  const double per = units > 0 ? 1.0 / static_cast<double>(units) : 0.0;
  Set("array.capture_ms", lt.ms[kArray] * per, "ms");
  Set("provrc.compress_ms", lt.ms[kProvRc] * per, "ms");
  Set("storage.catalog_ms", lt.ms[kStorage] * per, "ms");
  Set("storage.append_ms", lt.ms[kAppend] * per, "ms");
  Set("logstore.resolve_ms", lt.ms[kLogStore] * per, "ms");
  Set("query.exec_ms", lt.ms[kQuery] * per, "ms");
  Set("net.overhead_ms", lt.ms[kNet] * per, "ms");
  Set("loadgen.wait_ms", lt.ms[kLoadGen] * per, "ms");
  Set("trace.layer_cover_frac",
      timed_wall_ms > 0 ? lt.Total() / timed_wall_ms : 0.0, "fraction");
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Sum of every numeric value following `"key": ` in `text`.
double SumField(std::string_view text, std::string_view key) {
  std::string needle = "\"";
  needle += key;
  needle += "\": ";
  double sum = 0;
  for (size_t pos = text.find(needle); pos != std::string_view::npos;
       pos = text.find(needle, pos + needle.size()))
    sum += std::strtod(text.data() + pos + needle.size(), nullptr);
  return sum;
}

}  // namespace

void ProfileTotals::Add(const QueryProfile& profile) {
  ++queries;
  wall_ms += profile.wall_ms;
  for (const HopProfile& hop : profile.hops) {
    join_ms += hop.wall_ms;
    resolve_ms += static_cast<double>(hop.resolve_us) / 1000.0;
    rows_scanned += static_cast<double>(hop.rows_scanned);
    rows_emitted += static_cast<double>(hop.rows_emitted);
    result_boxes += static_cast<double>(hop.result_boxes);
    est_rows += hop.est_rows;
  }
}

void ProfileTotals::AddJson(const std::string& json) {
  // Top-level fields precede the "hops" array; hop fields follow it.
  const size_t split = json.find("\"hops\"");
  if (split == std::string::npos) return;
  const std::string_view top(json.data(), split);
  const std::string_view hops(json.data() + split, json.size() - split);
  ++queries;
  wall_ms += SumField(top, "wall_ms");
  join_ms += SumField(hops, "wall_ms");
  resolve_ms += SumField(hops, "resolve_us") / 1000.0;
  rows_scanned += SumField(hops, "rows_scanned");
  rows_emitted += SumField(hops, "rows_emitted");
  result_boxes += SumField(hops, "result_boxes");
  est_rows += SumField(hops, "est_rows");
}

ProfileTotals& ProfileTotals::operator+=(const ProfileTotals& other) {
  queries += other.queries;
  wall_ms += other.wall_ms;
  join_ms += other.join_ms;
  resolve_ms += other.resolve_ms;
  rows_scanned += other.rows_scanned;
  rows_emitted += other.rows_emitted;
  result_boxes += other.result_boxes;
  est_rows += other.est_rows;
  return *this;
}

void Report::SetJoin(const ProfileTotals& totals) {
  Set("query.join_ms",
      Ratio(totals.join_ms, static_cast<double>(totals.queries)), "ms");
  Set("query.rows_scanned_per_emitted",
      Ratio(totals.rows_scanned, totals.rows_emitted), "ratio");
  Set("query.emitted_per_result_box",
      Ratio(totals.rows_emitted, totals.result_boxes), "ratio");
  Set("query.planner_est_error",
      Ratio(std::fabs(totals.est_rows - totals.rows_scanned),
            totals.rows_scanned),
      "ratio");
}

void Report::SetCache(const LogStoreStats& before, const LogStoreStats& after,
                      int64_t queries) {
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses =
      static_cast<double>(after.cache_misses - before.cache_misses);
  const double n = static_cast<double>(queries);
  Set("logstore.cache_hit_frac", Ratio(hits, hits + misses), "fraction");
  Set("logstore.bytes_decompressed_per_query",
      Ratio(static_cast<double>(after.bytes_decompressed -
                                before.bytes_decompressed),
            n),
      "B");
  Set("logstore.evictions_per_query",
      Ratio(static_cast<double>(after.evictions - before.evictions), n),
      "count");
}

uint64_t Fingerprint(const BoxTable& answer) {
  uint64_t h = HashValue(static_cast<int64_t>(answer.ndim()));
  for (int64_t i = 0; i < answer.num_boxes(); ++i)
    for (const Interval& iv : answer.Box(i)) {
      h = HashValue(iv.lo, h);
      h = HashValue(iv.hi, h);
    }
  return h;
}

std::vector<int64_t> CanonicalCells(std::vector<int64_t> cells, int arity) {
  LineageRelation rel(arity, 0);
  rel.mutable_flat() = std::move(cells);
  rel.SortAndDedup();
  return std::move(rel.mutable_flat());
}

bool SameCells(const BoxTable& answer, const std::vector<int64_t>& oracle,
               int arity) {
  if (answer.empty()) return oracle.empty();
  if (answer.ndim() != arity) return false;
  return answer.ExpandToCells() == oracle;
}

namespace {

int64_t NumCells(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t d : shape) n *= d;
  return n;
}

}  // namespace

std::vector<int64_t> SampleCells(const std::vector<int64_t>& shape,
                                 int64_t count, Rng* rng) {
  NDArray probe(shape);
  std::vector<int64_t> idx(shape.size());
  std::vector<int64_t> cells;
  for (int64_t flat : rng->SampleWithoutReplacement(
           NumCells(shape), std::min(count, NumCells(shape)))) {
    probe.UnravelIndex(flat, idx);
    cells.insert(cells.end(), idx.begin(), idx.end());
  }
  return cells;
}

namespace {

// All cell tuples inside `box` (row-major).
std::vector<int64_t> BoxCells(const std::vector<Interval>& box) {
  std::vector<int64_t> cells;
  std::vector<int64_t> idx(box.size());
  for (size_t d = 0; d < box.size(); ++d) idx[d] = box[d].lo;
  while (true) {
    cells.insert(cells.end(), idx.begin(), idx.end());
    size_t d = box.size();
    while (d > 0) {
      --d;
      if (++idx[d] <= box[d].hi) break;
      idx[d] = box[d].lo;
      if (d == 0) return cells;
    }
  }
}

}  // namespace

CheckedQuery MakeWorkflowQuery(const Workflow& wf,
                               const std::vector<std::string>& names,
                               bool forward, double selectivity, Rng* rng) {
  CheckedQuery q;
  q.workflow = &wf;
  q.forward = forward;
  if (forward) {
    const std::vector<int64_t>& shape = wf.shapes.front();
    const int64_t count = std::max<int64_t>(
        1, std::llround(selectivity * static_cast<double>(NumCells(shape))));
    q.cells = SampleCells(shape, count, rng);
    q.query = BoxTable::FromCells(static_cast<int>(shape.size()), q.cells);
    q.path = names;
    q.out_ndim = static_cast<int>(wf.shapes.back().size());
  } else {
    // One box over the last array: a slab of whole rows along axis 0.
    const std::vector<int64_t>& shape = wf.shapes.back();
    const int64_t rows = std::clamp<int64_t>(
        std::llround(selectivity * static_cast<double>(shape[0])), 1,
        shape[0]);
    const int64_t lo = rng->UniformRange(0, shape[0] - rows);
    std::vector<Interval> box = {{lo, lo + rows - 1}};
    for (size_t d = 1; d < shape.size(); ++d) box.push_back({0, shape[d] - 1});
    q.query = BoxTable::FromBox(box);
    q.cells = BoxCells(box);
    q.path.assign(names.rbegin(), names.rend());
    q.out_ndim = static_cast<int>(wf.shapes.front().size());
  }
  return q;
}

bool CheckAnswer(const CheckedQuery& q, const BoxTable& answer) {
  std::vector<RelationHop> hops;
  if (q.forward) {
    for (const auto& step : q.workflow->steps)
      hops.push_back({&step.relation, true});
  } else {
    for (auto it = q.workflow->steps.rbegin(); it != q.workflow->steps.rend();
         ++it)
      hops.push_back({&it->relation, false});
  }
  const std::vector<int64_t> oracle =
      CanonicalCells(UncompressedQuery(hops, q.cells), q.out_ndim);
  return SameCells(answer, oracle, q.out_ndim) &&
         Fingerprint(answer) == q.fingerprint;
}

int64_t CheckAll(const std::vector<CheckedQuery>& queries,
                 const std::function<Result<BoxTable>(const CheckedQuery&)>& ask) {
  std::vector<BoxTable> answers(queries.size());
  std::vector<char> ok(queries.size(), 0);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto answer = ask(queries[i]);
    if (!answer.ok()) continue;
    answers[i] = std::move(answer).ValueOrDie();
    ok[i] = 1;
  }
  // The oracle joins uncompressed relations, far slower than the queries:
  // spread it over a few threads (it is never timed).
  constexpr size_t kThreads = 4;
  std::vector<int64_t> wrong(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (size_t i = t; i < queries.size(); i += kThreads)
        if (!ok[i] || !CheckAnswer(queries[i], answers[i])) ++wrong[t];
    });
  for (std::thread& thread : threads) thread.join();
  int64_t total = 0;
  for (int64_t w : wrong) total += w;
  return total;
}

ChainSampler::ChainSampler(uint64_t structure_seed, bool value_independent_only)
    : rng_(structure_seed) {
  const OpRegistry& registry = OpRegistry::Global();
  for (const std::string& name : registry.UnaryPipelineNames()) {
    const ArrayOp* op = registry.Find(name);
    if (value_independent_only && op->value_dependent()) continue;
    pool_.push_back(op);
  }
}

bool ChainSampler::Propose(const NDArray& input, const ArrayOp** op,
                           OpArgs* args, NDArray* output) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    const ArrayOp* candidate = pool_[rng_.Uniform(pool_.size())];
    if (!candidate->SupportsUnaryShape(input.shape())) continue;
    OpArgs sampled = candidate->SampleArgs(input.shape(), &rng_);
    auto out = candidate->Apply({&input}, sampled);
    if (!out.ok()) continue;
    if (out.value().size() == 0 || out.value().size() > 4 * input.size())
      continue;
    *op = candidate;
    *args = std::move(sampled);
    *output = std::move(out).ValueOrDie();
    return true;
  }
  return false;
}

Result<CapturedChain> CaptureChain(const std::string& name,
                                   uint64_t structure_seed,
                                   uint64_t value_seed, int64_t cells,
                                   int num_ops, bool value_independent_only) {
  ChainSampler sampler(structure_seed, value_independent_only);
  Rng values(value_seed);
  NDArray current = NDArray::Random({cells}, &values);
  CapturedChain chain;
  chain.workflow.name = name;
  chain.workflow.shapes.push_back(current.shape());
  while (static_cast<int>(chain.args.size()) < num_ops) {
    const ArrayOp* op = nullptr;
    OpArgs args;
    NDArray next;
    if (!sampler.Propose(current, &op, &args, &next)) break;
    DSLOG_ASSIGN_OR_RETURN(auto rels, op->Capture({&current}, next, args));
    if (!ChainSampler::AcceptRows(rels[0].num_rows(), current.size()))
      continue;
    chain.workflow.steps.push_back({op->name(), std::move(rels[0])});
    chain.workflow.shapes.push_back(next.shape());
    chain.args.push_back(std::move(args));
    chain.content_hashes.push_back(current.ContentHash());
    current = std::move(next);
  }
  if (chain.args.empty()) return Status::Internal("empty chain " + name);
  return chain;
}

Status RegisterWorkflow(DSLog* log, const Workflow& wf,
                        const std::vector<std::string>& names,
                        const CapturedChain* chain) {
  for (size_t k = 0; k < wf.shapes.size(); ++k)
    DSLOG_RETURN_IF_ERROR(log->DefineArray(names[k], wf.shapes[k]));
  for (size_t k = 0; k < wf.steps.size(); ++k) {
    OperationRegistration reg;
    reg.op_name = wf.steps[k].op_name;
    reg.in_arrs = {names[k]};
    reg.out_arr = names[k + 1];
    reg.captured = {wf.steps[k].relation};
    if (chain != nullptr) {
      reg.args = chain->args[k];
      reg.content_hash = chain->content_hashes[k];
    }
    DSLOG_RETURN_IF_ERROR(log->RegisterOperation(std::move(reg)).status());
  }
  return Status::OK();
}

Result<std::vector<Workflow>> BuildFig8Workflows(uint64_t seed) {
  std::vector<Workflow> flows;
  DSLOG_ASSIGN_OR_RETURN(Workflow image, BuildImageWorkflow(96, 96, seed));
  DSLOG_ASSIGN_OR_RETURN(Workflow rel,
                         BuildRelationalWorkflow(20000, 12000, seed + 1));
  DSLOG_ASSIGN_OR_RETURN(Workflow resnet, BuildResNetWorkflow(48, 48, seed + 2));
  flows.push_back(std::move(image));
  flows.push_back(std::move(rel));
  flows.push_back(std::move(resnet));
  return flows;
}

std::vector<std::string> StoredNames(const Workflow& wf,
                                     const std::string& prefix) {
  std::vector<std::string> names;
  for (size_t i = 0; i < wf.shapes.size(); ++i)
    names.push_back(prefix + "_x" + std::to_string(i));
  return names;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace e2e
}  // namespace dslog
