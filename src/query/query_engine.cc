#include "query/query_engine.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "common/check.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/simd.h"
#include "common/timer.h"
#include "common/trace.h"
#include "query/theta_join.h"

namespace dslog {

namespace {

/// One hop's θ-join, dispatched by direction. `counters` rides through to
/// the kernels (nullptr = unprofiled).
BoxTable RunHop(const QueryHop& hop, const BoxTable& current,
                JoinCounters* counters) {
  if (hop.forward)
    return ForwardThetaJoin(current, hop.table, hop.index, counters);
  return BackwardThetaJoin(current, hop.table, hop.index, counters);
}

}  // namespace

BoxTable InSituQuery(const std::vector<QueryHop>& hops, const BoxTable& query,
                     const QueryOptions& options, QueryProfile* profile) {
  DSLOG_CHECK(!hops.empty());
  const bool merge = options.merge_between_hops;
  static metrics::Counter& queries =
      metrics::Registry::Global().counter("dslog.query.count");
  static metrics::Counter& hops_run =
      metrics::Registry::Global().counter("dslog.query.hops");
  queries.Increment();

  if (!options.profile || profile == nullptr) {
    // The unprofiled hot path: one join and at most one Merge per hop,
    // plus two relaxed counter adds per query/hop — no clock reads, no
    // atomics inside the kernels.
    BoxTable current = query;
    for (const QueryHop& hop : hops) {
      // Inter-hop cancellation boundary: a cancelled query abandons its
      // partial frontier and returns empty (ProvQuery maps the armed token
      // to Status::Cancelled; bare callers poll the token themselves).
      if (options.cancel != nullptr && options.cancel->ShouldStop())
        return BoxTable();
      current = RunHop(hop, current, nullptr);
      if (merge) current.Merge();
      hops_run.Increment();
      if (current.empty()) break;
    }
    return current;
  }

  // Profiled path: tracing on for the query's duration, per-hop timers and
  // JoinCounters. The counters themselves are only touched once per kernel
  // invocation (see JoinCounters in query/theta_join.h).
  static metrics::Counter& profiled =
      metrics::Registry::Global().counter("dslog.query.profiled");
  static metrics::Histogram& query_us =
      metrics::Registry::Global().histogram("dslog.query.wall_us");
  profiled.Increment();
  trace::EnabledScope trace_on(true);
  trace::Span query_span("InSituQuery", "query");
  query_span.Arg("hops", static_cast<int64_t>(hops.size()));
  query_span.Arg("query_boxes", query.num_boxes());
  WallTimer query_timer;
  if (profile->hops.size() != hops.size()) profile->hops.resize(hops.size());
  profile->simd_isa = simd::kIsaName;
  profile->merge_between_hops = merge;

  BoxTable current = query;
  for (size_t h = 0; h < hops.size(); ++h) {
    if (options.cancel != nullptr && options.cancel->ShouldStop())
      return BoxTable();
    const QueryHop& hop = hops[h];
    HopProfile& hp = profile->hops[h];
    hp.forward = hop.forward;
    hp.table_rows = hop.table.num_rows;
    trace::Span hop_span(hop.forward ? "hop.forward" : "hop.backward",
                         "query");
    hop_span.Arg("hop", static_cast<int64_t>(h));
    hop_span.Arg("query_boxes", current.num_boxes());
    JoinCounters counters;
    WallTimer hop_timer;
    current = RunHop(hop, current, &counters);
    hp.merge_us = 0;
    if (merge) {
      trace::Span merge_span("BoxTable.Merge", "join");
      merge_span.Arg("boxes_in", current.num_boxes());
      WallTimer merge_timer;
      current.Merge();
      hp.merge_us = static_cast<int64_t>(merge_timer.ElapsedSeconds() * 1e6);
      merge_span.Arg("boxes_out", current.num_boxes());
    }
    hp.wall_ms = hop_timer.ElapsedMillis();
    hp.probes = counters.probes;
    hp.rows_scanned = counters.rows_scanned;
    hp.rows_emitted = counters.rows_emitted;
    hp.result_boxes = current.num_boxes();
    hops_run.Increment();
    hop_span.Arg("rows_scanned", hp.rows_scanned);
    hop_span.Arg("result_boxes", hp.result_boxes);
    if (current.empty()) break;
  }
  profile->wall_ms = query_timer.ElapsedMillis();
  profile->result_boxes = current.num_boxes();
  query_us.Record(
      static_cast<int64_t>(std::llround(profile->wall_ms * 1000.0)));
  return current;
}

namespace {

std::string ProfileJsonEscape(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string Num(double v) {
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  return buf;
}

}  // namespace

std::string QueryProfile::ToJson() const {
  std::string out = "{\"simd_isa\": " + ProfileJsonEscape(simd_isa) +
                    ", \"merge_between_hops\": " +
                    (merge_between_hops ? "true" : "false") +
                    ", \"wall_ms\": " + Num(wall_ms) +
                    ", \"result_boxes\": " +
                    Num(static_cast<double>(result_boxes)) + ", \"hops\": [";
  for (size_t h = 0; h < hops.size(); ++h) {
    const HopProfile& hp = hops[h];
    if (h > 0) out += ',';
    out += "\n  {\"hop\": " + Num(static_cast<double>(h)) +
           ", \"in_arr\": " + ProfileJsonEscape(hp.in_arr) +
           ", \"out_arr\": " + ProfileJsonEscape(hp.out_arr) +
           ", \"op_name\": " + ProfileJsonEscape(hp.op_name) +
           ", \"forward\": " + (hp.forward ? "true" : "false") +
           ", \"from_store\": " + (hp.from_store ? "true" : "false") +
           ", \"cache_hit\": " + (hp.cache_hit ? "true" : "false") +
           ", \"borrowed\": " + (hp.borrowed ? "true" : "false") +
           ", \"segment_bytes\": " + Num(static_cast<double>(hp.segment_bytes)) +
           ", \"bytes_decompressed\": " +
           Num(static_cast<double>(hp.bytes_decompressed)) +
           ", \"rows_materialized\": " +
           Num(static_cast<double>(hp.rows_materialized)) +
           ", \"resolve_us\": " + Num(static_cast<double>(hp.resolve_us)) +
           ", \"table_rows\": " + Num(static_cast<double>(hp.table_rows)) +
           ", \"probes\": " + Num(static_cast<double>(hp.probes)) +
           ", \"rows_scanned\": " + Num(static_cast<double>(hp.rows_scanned)) +
           ", \"rows_emitted\": " + Num(static_cast<double>(hp.rows_emitted)) +
           ", \"result_boxes\": " + Num(static_cast<double>(hp.result_boxes)) +
           ", \"merge_us\": " + Num(static_cast<double>(hp.merge_us)) +
           ", \"wall_ms\": " + Num(hp.wall_ms) + "}";
  }
  out += "\n]}";
  return out;
}

std::string QueryProfile::ToText() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "query: %.3f ms, %" PRId64
                " result boxes, simd=%s, merge=%s\n",
                wall_ms, result_boxes, simd_isa.c_str(),
                merge_between_hops ? "on" : "off");
  std::string out = buf;
  for (size_t h = 0; h < hops.size(); ++h) {
    const HopProfile& hp = hops[h];
    std::string edge = hp.in_arr.empty() && hp.out_arr.empty()
                           ? std::string("<anonymous>")
                           : hp.in_arr + " -> " + hp.out_arr;
    std::snprintf(buf, sizeof(buf),
                  "  hop %zu [%s] %s: rows=%" PRId64 " probes=%" PRId64
                  " scanned=%" PRId64 " emitted=%" PRId64 " -> %" PRId64
                  " boxes, %.3f ms (merge %" PRId64 " us)\n",
                  h, hp.forward ? "fwd" : "bwd", edge.c_str(),
                  hp.table_rows, hp.probes, hp.rows_scanned, hp.rows_emitted,
                  hp.result_boxes, hp.wall_ms, hp.merge_us);
    out += buf;
    std::snprintf(
        buf, sizeof(buf), "        storage: %s%s\n",
        !hp.from_store    ? "resident"
        : hp.cache_hit    ? "cache-hit"
        : hp.borrowed     ? "borrowed"
                          : "decoded",
        hp.from_store ? "" : " table");
    out += buf;
    if (hp.from_store && !hp.cache_hit) {
      std::snprintf(buf, sizeof(buf),
                    "        resolve: %" PRId64 " us, %" PRId64
                    " segment bytes, %" PRId64 " decompressed, %" PRId64
                    " rows materialized\n",
                    hp.resolve_us, hp.segment_bytes, hp.bytes_decompressed,
                    hp.rows_materialized);
      out += buf;
    }
  }
  return out;
}

namespace {

// Hash-set of flattened tuples: identity is the full tuple content.
struct TupleSet {
  explicit TupleSet(int arity) : arity_(arity) {}

  bool Insert(const int64_t* tuple) {
    uint64_t h = Hash64(tuple, static_cast<size_t>(arity_) * sizeof(int64_t));
    auto [it, inserted] = index_.insert({h, {}});
    auto& bucket = it->second;
    if (!inserted) {
      for (size_t off : bucket) {
        if (std::equal(tuple, tuple + arity_, data_.data() + off)) return false;
      }
    }
    bucket.push_back(data_.size());
    data_.insert(data_.end(), tuple, tuple + arity_);
    return true;
  }

  bool Contains(const int64_t* tuple) const {
    uint64_t h = Hash64(tuple, static_cast<size_t>(arity_) * sizeof(int64_t));
    auto it = index_.find(h);
    if (it == index_.end()) return false;
    for (size_t off : it->second)
      if (std::equal(tuple, tuple + arity_, data_.data() + off)) return true;
    return false;
  }

  const std::vector<int64_t>& data() const { return data_; }

 private:
  int arity_;
  std::vector<int64_t> data_;
  std::unordered_map<uint64_t, std::vector<size_t>> index_;
};

}  // namespace

std::vector<int64_t> RelationJoinStep(const LineageRelation& relation,
                                      bool forward,
                                      const std::vector<int64_t>& frontier) {
  // In the stored relation, row = (out tuple | in tuple). A forward
  // traversal matches on the *input* side and emits the output side.
  const int l = relation.out_ndim();
  const int m = relation.in_ndim();
  const int match_arity = forward ? m : l;
  const int emit_arity = forward ? l : m;
  const int match_offset = forward ? l : 0;
  const int emit_offset = forward ? 0 : l;

  DSLOG_CHECK(frontier.size() % static_cast<size_t>(match_arity) == 0);
  TupleSet probe(match_arity);
  for (size_t off = 0; off < frontier.size();
       off += static_cast<size_t>(match_arity))
    probe.Insert(frontier.data() + off);

  TupleSet result(emit_arity);
  for (int64_t r = 0; r < relation.num_rows(); ++r) {
    auto row = relation.Row(r);
    if (!probe.Contains(row.data() + match_offset)) continue;
    result.Insert(row.data() + emit_offset);
  }
  return result.data();
}

std::vector<int64_t> UncompressedQuery(const std::vector<RelationHop>& hops,
                                       const std::vector<int64_t>& query_cells) {
  DSLOG_CHECK(!hops.empty());
  std::vector<int64_t> frontier = query_cells;
  for (const RelationHop& hop : hops) {
    frontier = RelationJoinStep(*hop.relation, hop.forward, frontier);
    if (frontier.empty()) break;
  }
  return frontier;
}

}  // namespace dslog
