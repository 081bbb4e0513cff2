#include "bench_util.h"

#include <cmath>
#include <cstring>
#include <thread>

#include "common/io.h"
#include "common/metrics.h"
#include "query/box.h"
#include "query/query_engine.h"

namespace dslog {
namespace bench {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  // Integral values render without an exponent/fraction for readability.
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  return buf;
}

}  // namespace

JsonReporter::Record& JsonReporter::Record::Str(const std::string& key,
                                                const std::string& value) {
  fields_.push_back({key, JsonEscape(value)});
  return *this;
}

JsonReporter::Record& JsonReporter::Record::Num(const std::string& key,
                                                double value) {
  fields_.push_back({key, JsonNumber(value)});
  return *this;
}

JsonReporter::JsonReporter(std::string bench_name, int argc, char** argv,
                           std::string default_path)
    : bench_name_(std::move(bench_name)), path_(std::move(default_path)) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") != 0) continue;
    if (i + 1 >= argc) {
      std::fprintf(stderr,
                   "JsonReporter: --json requires a path argument; no JSON "
                   "will be written\n");
      break;
    }
    path_ = argv[i + 1];
    break;
  }
}

JsonReporter::~JsonReporter() { Write(); }

JsonReporter::Record& JsonReporter::Add() {
  records_.emplace_back();
  return records_.back();
}

namespace {

void SetRendered(std::vector<std::pair<std::string, std::string>>* fields,
                 const std::string& key, std::string rendered) {
  for (auto& [k, v] : *fields) {
    if (k == key) {
      v = std::move(rendered);
      return;
    }
  }
  fields->push_back({key, std::move(rendered)});
}

}  // namespace

void JsonReporter::TopStr(const std::string& key, const std::string& value) {
  SetRendered(&top_fields_, key, JsonEscape(value));
}

void JsonReporter::TopNum(const std::string& key, double value) {
  SetRendered(&top_fields_, key, JsonNumber(value));
}

void JsonReporter::TopBool(const std::string& key, bool value) {
  SetRendered(&top_fields_, key, value ? "true" : "false");
}

void JsonReporter::Write() {
  if (written_ || path_.empty()) return;
  written_ = true;
  // Every document carries the dslog build type; debug documents are
  // additionally tagged so downstream tooling can reject them. TopStr can
  // not override these — a debug artifact must never claim to be release.
  TopStr("dslog_build_type", kBuildType);
  if (kDebugBuild) {
    TopBool("debug_build", true);
    std::fprintf(stderr,
                 "JsonReporter: WARNING: dslog compiled without NDEBUG; "
                 "writing debug-tagged (non-comparable) numbers to %s\n",
                 path_.c_str());
  }
  std::string doc = "{\"bench\": " + JsonEscape(bench_name_) +
                    ", \"num_cpus\": " +
                    JsonNumber(static_cast<double>(
                        std::thread::hardware_concurrency()));
  for (const auto& [key, value] : top_fields_)
    doc += ", " + JsonEscape(key) + ": " + value;
  // Every document carries a snapshot of the process-wide metrics registry
  // (counters/gauges/histograms accumulated while the bench ran), so a
  // perf number is always archived next to the cache/pool/join activity
  // that produced it. CI rejects JsonReporter documents without this block.
  doc += ", \"metrics\": " + metrics::Registry::Global().Snapshot().ToJson();
  doc += ", \"records\": [";
  bool first_record = true;
  for (const Record& r : records_) {
    if (!first_record) doc += ',';
    first_record = false;
    doc += "\n  {";
    bool first_field = true;
    for (const auto& [key, value] : r.fields_) {
      if (!first_field) doc += ", ";
      first_field = false;
      doc += JsonEscape(key) + ": " + value;
    }
    doc += '}';
  }
  doc += "\n]}";

  std::string out = doc + "\n";
  if (!nested_key_.empty()) {
    // Splice this document as a top-level field of the host document
    // already at path_, replacing any previous section with the same key
    // (always the last field, so a truncate-and-reappend is exact).
    auto host = ReadFileToString(path_);
    bool spliced = false;
    if (host.ok()) {
      std::string text = std::move(host).ValueOrDie();
      while (!text.empty() &&
             (text.back() == '\n' || text.back() == '\r' ||
              text.back() == ' '))
        text.pop_back();
      const std::string marker = ", " + JsonEscape(nested_key_) + ": {";
      size_t cut = text.rfind(marker);
      if (cut == std::string::npos && !text.empty() && text.back() == '}')
        cut = text.size() - 1;  // strip the host's closing brace
      if (cut != std::string::npos) {
        text.resize(cut);
        text += ", " + JsonEscape(nested_key_) + ": " + doc + "}\n";
        out = std::move(text);
        spliced = true;
      }
    }
    if (!spliced)
      std::fprintf(stderr,
                   "JsonReporter: %s missing or not a JSON object; writing "
                   "the %s document standalone\n",
                   path_.c_str(), nested_key_.c_str());
  }
  Status st = WriteFile(path_, out);
  if (!st.ok()) {
    std::fprintf(stderr, "JsonReporter: cannot write %s: %s\n", path_.c_str(),
                 st.ToString().c_str());
  } else {
    std::fprintf(stderr, "[json] wrote %zu record(s) to %s\n", records_.size(),
                 path_.c_str());
  }
}

double QueryBaselineFormat(const StorageFormat& format,
                           const std::vector<std::string>& buffers,
                           const std::vector<int64_t>& query_cells,
                           double timeout_seconds) {
  WallTimer timer;
  std::vector<int64_t> frontier = query_cells;
  for (const std::string& buffer : buffers) {
    auto rel = format.Decode(buffer);
    DSLOG_CHECK(rel.ok()) << rel.status().ToString();
    frontier = RelationJoinStep(rel.value(), /*forward=*/true, frontier);
    if (timer.ElapsedSeconds() > timeout_seconds) return -1.0;
    if (frontier.empty()) break;
  }
  return timer.ElapsedSeconds();
}

double QueryArrayVectorized(const std::vector<std::string>& buffers,
                            const std::vector<int64_t>& query_cells,
                            int query_ndim, double timeout_seconds) {
  auto format = MakeArrayFormat();
  WallTimer timer;
  constexpr int64_t kBatch = 1000;
  std::vector<int64_t> frontier = query_cells;
  int arity = query_ndim;
  for (const std::string& buffer : buffers) {
    auto relr = format->Decode(buffer);
    DSLOG_CHECK(relr.ok()) << relr.status().ToString();
    const LineageRelation& rel = relr.value();
    const int l = rel.out_ndim();
    const int m = rel.in_ndim();
    DSLOG_CHECK(arity == m) << "arity drift";
    // Vectorized equality: for each batch of query tuples, compare every
    // relation row's input side against the batch (the numpy == strategy).
    LineageRelation matched(l, 0);
    std::vector<int64_t> next;
    int64_t num_q = static_cast<int64_t>(frontier.size()) / m;
    for (int64_t q0 = 0; q0 < num_q; q0 += kBatch) {
      int64_t q1 = std::min(num_q, q0 + kBatch);
      for (int64_t r = 0; r < rel.num_rows(); ++r) {
        auto row = rel.Row(r);
        for (int64_t q = q0; q < q1; ++q) {
          bool eq = true;
          for (int k = 0; k < m && eq; ++k)
            eq = row[static_cast<size_t>(l + k)] ==
                 frontier[static_cast<size_t>(q * m + k)];
          if (eq) {
            next.insert(next.end(), row.begin(), row.begin() + l);
            break;
          }
        }
      }
      if (timer.ElapsedSeconds() > timeout_seconds) return -1.0;
    }
    // Dedup the emitted side.
    LineageRelation dedup(l, 0);
    dedup.mutable_flat() = std::move(next);
    dedup.SortAndDedup();
    frontier = dedup.flat();
    arity = l;
    if (frontier.empty()) break;
  }
  return timer.ElapsedSeconds();
}

std::vector<CompressedTable> DecodeDSLogTables(
    const std::vector<std::string>& buffers, double* decode_s) {
  WallTimer timer;
  std::vector<CompressedTable> tables;
  tables.reserve(buffers.size());
  for (const std::string& buffer : buffers) {
    auto t = DeserializeCompressedTableGzip(buffer);
    DSLOG_CHECK(t.ok()) << t.status().ToString();
    tables.push_back(std::move(t).ValueOrDie());
  }
  if (decode_s != nullptr) *decode_s = timer.ElapsedSeconds();
  return tables;
}

double QueryDSLog(const std::vector<CompressedTable>& tables,
                  const std::vector<int64_t>& query_cells, int query_ndim,
                  bool merge) {
  WallTimer timer;
  std::vector<QueryHop> hops;
  for (const auto& t : tables) hops.push_back({&t, /*forward=*/true});
  BoxTable q = BoxTable::FromCells(query_ndim, query_cells);
  QueryOptions options;
  options.merge_between_hops = merge;
  BoxTable result = InSituQuery(hops, q, options);
  (void)result;
  return timer.ElapsedSeconds();
}

std::vector<int64_t> SampleQueryCells(const Workflow& wf, int64_t count,
                                      Rng* rng) {
  const std::vector<int64_t>& shape = wf.shapes[0];
  int64_t total = 1;
  for (int64_t d : shape) total *= d;
  count = std::min(count, total);
  NDArray probe(shape);  // index helper
  std::vector<int64_t> cells;
  std::vector<int64_t> idx(shape.size());
  for (int64_t flat : rng->SampleWithoutReplacement(total, count)) {
    probe.UnravelIndex(flat, idx);
    cells.insert(cells.end(), idx.begin(), idx.end());
  }
  return cells;
}

}  // namespace bench
}  // namespace dslog
