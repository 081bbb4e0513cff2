// bench_e2e: runs one workload of the end-to-end benchmark per process.
//
//   bench_e2e --workload ingest|reuse|query|serve --seed N --workdir DIR
//             [--seconds T] [--trace FILE]
//
// Set-up runs kSetupRuns times on fresh objects (setup_s is their median),
// then the timed phase runs once and checks its answers. The last line of
// stdout is one JSON object with every metric, the counts and the stamps
// (nproc, SIMD ISA, whether tracing is compiled in, seed). --trace turns on
// trace spans and QueryOptions::profile and writes the Chrome trace to
// FILE. Exit codes: 0 ok, 1 error, 2 usage or non-release build, 3 wrong
// answers.
//
// bench/e2e/run.py builds this binary and is the command to run.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "common/simd.h"
#include "common/trace.h"
#include "e2e.h"

using namespace dslog;
using namespace dslog::e2e;

namespace {

constexpr int kSetupRuns = 5;

// Every per-layer metric, so each workload reports all of them (0 where a
// layer does no work in that workload).
constexpr const char* kLayerMetrics[][2] = {
    {"array.capture_ms", "ms"},
    {"array.capture_rows", "count"},
    {"provrc.compress_ms", "ms"},
    {"provrc.rows_out_per_in", "ratio"},
    {"storage.catalog_ms", "ms"},
    {"storage.append_ms", "ms"},
    {"storage.append_ms_last", "ms"},
    {"reuse.hit_frac", "fraction"},
    {"reuse.fallback_captures", "count"},
    {"reuse.mispredictions", "count"},
    {"logstore.resolve_ms", "ms"},
    {"logstore.cache_hit_frac", "fraction"},
    {"logstore.bytes_decompressed_per_query", "B"},
    {"logstore.evictions_per_query", "count"},
    {"query.exec_ms", "ms"},
    {"query.join_ms", "ms"},
    {"query.rows_scanned_per_emitted", "ratio"},
    {"query.emitted_per_result_box", "ratio"},
    {"query.planner_est_error", "ratio"},
    {"net.overhead_ms", "ms"},
    {"net.overhead_ms_p50", "ms"},
    {"net.bytes_per_query", "B"},
    {"net.overloaded", "count"},
    {"net.ingest_ms_p50", "ms"},
    {"loadgen.wait_ms", "ms"},
    {"loadgen.late_ms_p99", "ms"},
    {"trace.layer_cover_frac", "fraction"},
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload "
               "ingest|reuse|query|serve --seed N --workdir DIR "
               "[--seconds T] [--trace FILE]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "bench_e2e: refusing to measure a build without NDEBUG; "
               "configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  RunOptions options;
  std::string trace_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--trace") {
      trace_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes one value");
  if (options.workdir.empty()) return Usage("--workdir is required");
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");
  options.traced = !trace_path.empty();
  if (options.traced && !trace::kCompiledIn)
    return Usage("--trace needs a build with DSLOG_TRACE=ON");

  using Factory = std::unique_ptr<Workload> (*)(const RunOptions&);
  Factory make = nullptr;
  if (options.workload == "ingest") make = MakeIngest;
  if (options.workload == "reuse") make = MakeReuse;
  if (options.workload == "query") make = MakeQuery;
  if (options.workload == "serve") make = MakeServe;
  if (make == nullptr) return Usage("unknown --workload");

  std::error_code ec;
  std::filesystem::create_directories(options.workdir, ec);
  if (ec) return Usage(("cannot create --workdir: " + ec.message()).c_str());

  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < kSetupRuns; ++i) {
    workload.reset();  // tear the previous set-up down before timing anew
    workload = make(options);
    const Clock::time_point t0 = Clock::now();
    Status st = workload->Setup();
    setup_s.push_back(MillisSince(t0) / 1000.0);
    if (!st.ok()) {
      std::fprintf(stderr, "bench_e2e: set-up failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }

  // Each workload turns tracing on around its timed phase only.
  Report report;
  trace::Clear();
  Status st = workload->Run(&report);
  if (options.traced) {
    Status written = trace::WriteJson(trace_path);
    if (!written.ok() && st.ok()) st = written;
  }
  workload.reset();
  std::filesystem::remove_all(options.workdir, ec);
  if (!st.ok()) {
    std::fprintf(stderr, "bench_e2e: %s\n", st.ToString().c_str());
    return 1;
  }

  report.Set("setup_s", Median(setup_s), "s");
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  for (const auto& [name, unit] : kLayerMetrics)
    if (report.metrics.count(name) == 0) report.Set(name, 0.0, unit);

  for (const auto& [key, value] : report.notes)
    std::printf("# %s %s\n", key.c_str(), value.c_str());
  std::string setup_list;
  for (double s : setup_s)
    setup_list += (setup_list.empty() ? "" : ", ") + JsonNumber(s);
  std::string metrics;
  for (const auto& [name, metric] : report.metrics)
    metrics += (metrics.empty() ? "" : ", ") + JsonString(name) +
               ": {\"value\": " + JsonNumber(metric.value) +
               ", \"unit\": " + JsonString(metric.unit) + "}";
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"nproc\": %u, "
      "\"isa\": %s, \"trace_compiled\": %s, \"traced\": %s, "
      "\"setup_s_runs\": [%s], \"attempted\": %lld, \"failed\": %lld, "
      "\"wrong\": %lld, \"metrics\": {%s}}\n",
      JsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      JsonNumber(options.seconds).c_str(), std::thread::hardware_concurrency(),
      JsonString(simd::kIsaName).c_str(),
      trace::kCompiledIn ? "true" : "false",
      options.traced ? "true" : "false", setup_list.c_str(),
      static_cast<long long>(report.attempted),
      static_cast<long long>(report.failed),
      static_cast<long long>(report.wrong), metrics.c_str());
  return report.wrong == 0 ? 0 : 3;
}
