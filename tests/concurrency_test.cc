// Concurrency stress tests: N reader threads issuing ProvQuery /
// ProvQueryBatch against a DSLog while a writer thread interleaves
// DefineArray + RegisterOperation, asserting oracle-consistent results and
// no lost edges. Also unit coverage for the batch API's fan-out width and
// sequential equivalence. The whole suite must run clean under
// ThreadSanitizer (the CI tsan job runs it).

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "array/ndarray.h"
#include "array/op.h"
#include "array/op_registry.h"
#include "common/metrics.h"
#include "common/random.h"
#include "query/box.h"
#include "query/query_engine.h"
#include "storage/dslog.h"
#include "test_util.h"

namespace dslog {
namespace {

using test_util::SampleCells;
using test_util::ToTupleSet;
using test_util::TupleSet;

// --------------------------------------------------------- chain fixture --

struct ChainStep {
  std::string op_name;
  LineageRelation rel;
  std::vector<int64_t> out_shape;
};

// Deterministic chain of registry unary ops over a small 1-D array.
std::vector<ChainStep> BuildChain(int num_steps, uint64_t seed,
                                  std::vector<int64_t>* first_shape) {
  Rng rng(seed);
  auto pool = OpRegistry::Global().UnaryPipelineNames();
  NDArray current = NDArray::Random({32}, &rng);
  *first_shape = current.shape();
  std::vector<ChainStep> chain;
  int guard = 0;
  while (static_cast<int>(chain.size()) < num_steps && guard < 400) {
    ++guard;
    const ArrayOp* op =
        OpRegistry::Global().Find(pool[rng.Uniform(pool.size())]);
    if (!op->SupportsUnaryShape(current.shape())) continue;
    OpArgs args = op->SampleArgs(current.shape(), &rng);
    auto out = op->Apply({&current}, args);
    if (!out.ok()) continue;
    NDArray next = out.ValueOrDie();
    if (next.size() == 0 || next.size() > 4096) continue;
    auto captured = op->Capture({&current}, next, args);
    if (!captured.ok() || captured.value()[0].num_rows() == 0) continue;
    chain.push_back(
        {op->name(), std::move(captured.ValueOrDie()[0]), next.shape()});
    current = std::move(next);
  }
  return chain;
}

std::vector<std::string> ChainNames(size_t count) {
  std::vector<std::string> names;
  for (size_t i = 0; i < count; ++i)
    names.push_back(std::string("x").append(std::to_string(i)));
  return names;
}

// ------------------------------------------------------ readers vs writer --

TEST(ConcurrencyStressTest, ReadersVsWriterOracleConsistent) {
  constexpr int kOps = 8;
  constexpr int kReaders = 4;
  constexpr int kIters = 40;

  std::vector<int64_t> first_shape;
  std::vector<ChainStep> chain = BuildChain(kOps, 1234, &first_shape);
  ASSERT_EQ(static_cast<int>(chain.size()), kOps);
  std::vector<std::string> names = ChainNames(chain.size() + 1);
  std::vector<std::vector<int64_t>> shapes = {first_shape};
  for (const ChainStep& step : chain) shapes.push_back(step.out_shape);

  DSLog log;
  ASSERT_TRUE(log.DefineArray(names[0], shapes[0]).ok());

  std::atomic<int> registered{0};
  std::atomic<int> writer_failures{0};
  std::atomic<int> reader_failures{0};
  std::vector<std::string> first_failure(kReaders);

  std::thread writer([&] {
    for (int i = 0; i < kOps; ++i) {
      Status defined = log.DefineArray(names[static_cast<size_t>(i) + 1],
                                       shapes[static_cast<size_t>(i) + 1]);
      OperationRegistration reg;
      reg.op_name = chain[static_cast<size_t>(i)].op_name;
      reg.in_arrs = {names[static_cast<size_t>(i)]};
      reg.out_arr = names[static_cast<size_t>(i) + 1];
      reg.captured.push_back(chain[static_cast<size_t>(i)].rel);
      auto outcome = log.RegisterOperation(std::move(reg));
      if (!defined.ok() || !outcome.ok()) writer_failures.fetch_add(1);
      registered.store(i + 1, std::memory_order_release);
      std::this_thread::yield();
    }
  });

  auto reader = [&](int tid) {
    Rng rng(static_cast<uint64_t>(tid) * 7919 + 3);
    for (int iter = 0; iter < kIters; ++iter) {
      const int upto = registered.load(std::memory_order_acquire);
      if (upto == 0) {
        std::this_thread::yield();
        continue;
      }
      // Build 1-3 path queries over the already-registered prefix; results
      // must agree with the uncompressed oracle regardless of what the
      // writer is doing concurrently.
      const int batch_size = 1 + static_cast<int>(rng.Uniform(3));
      std::vector<std::vector<std::string>> paths;
      std::vector<BoxTable> queries;
      std::vector<TupleSet> want;
      std::vector<int> arities;
      for (int b = 0; b < batch_size; ++b) {
        const int j = 1 + static_cast<int>(rng.Uniform(
                              static_cast<uint64_t>(upto)));
        const bool forward = rng.Bernoulli(0.6);
        const auto& from_shape =
            forward ? shapes[0] : shapes[static_cast<size_t>(j)];
        const auto& to_shape =
            forward ? shapes[static_cast<size_t>(j)] : shapes[0];
        std::vector<int64_t> cells = SampleCells(from_shape, 5, &rng);
        std::vector<std::string> path(
            names.begin(), names.begin() + j + 1);
        std::vector<RelationHop> rhops;
        for (int k = 0; k < j; ++k) rhops.push_back({&chain[static_cast<size_t>(k)].rel, true});
        if (!forward) {
          std::reverse(path.begin(), path.end());
          std::reverse(rhops.begin(), rhops.end());
          for (auto& hop : rhops) hop.forward = false;
        }
        paths.push_back(std::move(path));
        queries.push_back(BoxTable::FromCells(
            static_cast<int>(from_shape.size()), cells));
        want.push_back(ToTupleSet(UncompressedQuery(rhops, cells),
                                  static_cast<int>(to_shape.size())));
        arities.push_back(static_cast<int>(to_shape.size()));
      }

      QueryOptions qopts;
      qopts.num_threads = 1 + static_cast<int>(rng.Uniform(3));
      std::vector<BoxTable> results;
      if (batch_size > 1 || rng.Bernoulli(0.5)) {
        auto r = log.ProvQueryBatch(paths, queries, qopts);
        if (!r.ok()) {
          if (reader_failures.fetch_add(1) == 0)
            first_failure[static_cast<size_t>(tid)] = r.status().ToString();
          continue;
        }
        results = std::move(r).value();
      } else {
        auto r = log.ProvQuery(paths[0], queries[0], qopts);
        if (!r.ok()) {
          if (reader_failures.fetch_add(1) == 0)
            first_failure[static_cast<size_t>(tid)] = r.status().ToString();
          continue;
        }
        results.push_back(std::move(r).value());
      }
      for (size_t b = 0; b < results.size(); ++b) {
        if (ToTupleSet(results[b].ExpandToCells(), arities[b]) != want[b]) {
          if (reader_failures.fetch_add(1) == 0)
            first_failure[static_cast<size_t>(tid)] =
                "oracle mismatch on path to " + paths[b].back();
        }
      }
      // Exercise the concurrent metadata readers too.
      (void)log.reuse_stats();
      (void)log.HasArray(names[static_cast<size_t>(upto)]);
    }
  };

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) readers.emplace_back(reader, t);
  writer.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(writer_failures, 0);
  std::string messages;
  for (const std::string& m : first_failure)
    if (!m.empty()) messages += m + "; ";
  EXPECT_EQ(reader_failures, 0) << messages;

  // No lost edges: every registered operation must be queryable.
  EXPECT_EQ(registered, kOps);
  for (int i = 0; i < kOps; ++i)
    EXPECT_NE(log.FindEdge(names[static_cast<size_t>(i)],
                           names[static_cast<size_t>(i) + 1]),
              nullptr)
        << "edge " << i << " lost";

  // Final deterministic check over the full path.
  Rng rng(99);
  std::vector<int64_t> cells = SampleCells(shapes[0], 6, &rng);
  std::vector<RelationHop> rhops;
  for (const ChainStep& step : chain) rhops.push_back({&step.rel, true});
  auto full = log.ProvQuery(
      names, BoxTable::FromCells(static_cast<int>(shapes[0].size()), cells));
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(ToTupleSet(full.value().ExpandToCells(),
                       static_cast<int>(shapes.back().size())),
            ToTupleSet(UncompressedQuery(rhops, cells),
                       static_cast<int>(shapes.back().size())));
}

// ------------------------------------------------------------- batch API --

class BatchFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<int64_t> first_shape;
    chain_ = BuildChain(5, 777, &first_shape);
    ASSERT_EQ(chain_.size(), 5u);
    names_ = ChainNames(chain_.size() + 1);
    shapes_ = {first_shape};
    for (const ChainStep& step : chain_) shapes_.push_back(step.out_shape);
    for (size_t i = 0; i < names_.size(); ++i)
      ASSERT_TRUE(log_.DefineArray(names_[i], shapes_[i]).ok());
    for (size_t i = 0; i < chain_.size(); ++i) {
      OperationRegistration reg;
      reg.op_name = chain_[i].op_name;
      reg.in_arrs = {names_[i]};
      reg.out_arr = names_[i + 1];
      reg.captured.push_back(chain_[i].rel);
      ASSERT_TRUE(log_.RegisterOperation(std::move(reg)).ok());
    }
  }

  std::vector<ChainStep> chain_;
  std::vector<std::string> names_;
  std::vector<std::vector<int64_t>> shapes_;
  DSLog log_;
};

TEST_F(BatchFixture, BatchMatchesSequentialProvQuery) {
  Rng rng(5);
  std::vector<std::vector<std::string>> paths;
  std::vector<BoxTable> queries;
  for (int b = 0; b < 12; ++b) {
    const int j =
        1 + static_cast<int>(rng.Uniform(chain_.size()));
    std::vector<std::string> path(names_.begin(), names_.begin() + j + 1);
    const bool forward = rng.Bernoulli(0.5);
    if (!forward) std::reverse(path.begin(), path.end());
    const auto& from_shape = forward ? shapes_[0] : shapes_[static_cast<size_t>(j)];
    queries.push_back(BoxTable::FromCells(
        static_cast<int>(from_shape.size()),
        SampleCells(from_shape, 4, &rng)));
    paths.push_back(std::move(path));
  }
  QueryOptions parallel;
  parallel.num_threads = 4;
  auto batch = log_.ProvQueryBatch(paths, queries, parallel);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch.value().size(), paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    auto single = log_.ProvQuery(paths[i], queries[i]);
    ASSERT_TRUE(single.ok());
    const int arity = single.value().ndim();
    EXPECT_EQ(ToTupleSet(batch.value()[i].ExpandToCells(), arity),
              ToTupleSet(single.value().ExpandToCells(), arity))
        << "batch entry " << i;
  }
}

// Exact (not just set-) equality of two box tables: same boxes, same order.
bool BoxTablesIdentical(const BoxTable& a, const BoxTable& b) {
  if (a.ndim() != b.ndim() || a.num_boxes() != b.num_boxes()) return false;
  for (int64_t i = 0; i < a.num_boxes(); ++i) {
    auto ba = a.Box(i);
    auto bb = b.Box(i);
    for (size_t k = 0; k < ba.size(); ++k)
      if (ba[k].lo != bb[k].lo || ba[k].hi != bb[k].hi) return false;
  }
  return true;
}

// Fans `paths`/`queries` across 8 threads with ProvQueryBatch and checks
// every entry against a sequential ProvQuery box for box — same boxes, same
// order — merged and unmerged, on each of 5 reruns. Each entry runs on one
// thread, so scheduling must not leak into any answer.
void ExpectBatchIdenticalToSequential(
    const DSLog& log, const std::vector<std::vector<std::string>>& paths,
    const std::vector<BoxTable>& queries) {
  for (bool merge : {true, false}) {
    QueryOptions sequential;
    sequential.merge_between_hops = merge;
    std::vector<BoxTable> want;
    for (size_t i = 0; i < paths.size(); ++i) {
      auto r = log.ProvQuery(paths[i], queries[i], sequential);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      want.push_back(std::move(r).value());
    }
    QueryOptions fanned = sequential;
    fanned.num_threads = 8;
    for (int rep = 0; rep < 5; ++rep) {
      auto batch = log.ProvQueryBatch(paths, queries, fanned);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      ASSERT_EQ(batch.value().size(), want.size());
      for (size_t i = 0; i < want.size(); ++i)
        EXPECT_TRUE(BoxTablesIdentical(batch.value()[i], want[i]))
            << "merge " << merge << " rep " << rep << " entry " << i;
    }
  }
}

TEST_F(BatchFixture, TreeMergedParallelJoinIsDeterministic) {
  // Backward paths from every chain array back to the first.
  Rng rng(41);
  std::vector<std::vector<std::string>> paths;
  std::vector<BoxTable> queries;
  for (int b = 0; b < 16; ++b) {
    const size_t j = 1 + static_cast<size_t>(b) % chain_.size();
    paths.emplace_back(names_.rend() - static_cast<std::ptrdiff_t>(j) - 1,
                       names_.rend());
    queries.push_back(BoxTable::FromCells(static_cast<int>(shapes_[j].size()),
                                          SampleCells(shapes_[j], 24, &rng)));
  }
  ExpectBatchIdenticalToSequential(log_, paths, queries);
}

TEST_F(BatchFixture, TreeMergedForwardJoinsAreDeterministic) {
  // Forward paths from the first chain array to every later one.
  Rng rng(43);
  std::vector<std::vector<std::string>> paths;
  std::vector<BoxTable> queries;
  for (int b = 0; b < 16; ++b) {
    const size_t j = 1 + static_cast<size_t>(b) % chain_.size();
    paths.emplace_back(names_.begin(),
                       names_.begin() + static_cast<std::ptrdiff_t>(j) + 1);
    queries.push_back(BoxTable::FromCells(static_cast<int>(shapes_[0].size()),
                                          SampleCells(shapes_[0], 24, &rng)));
  }
  ExpectBatchIdenticalToSequential(log_, paths, queries);
}

// The `dslog.query.batch_width` histogram (empty before any batch ran).
metrics::HistogramSnapshot BatchWidths() {
  const metrics::RegistrySnapshot snap = metrics::Registry::Global().Snapshot();
  const metrics::HistogramSnapshot* h =
      snap.FindHistogram("dslog.query.batch_width");
  return h == nullptr ? metrics::HistogramSnapshot{} : *h;
}

TEST_F(BatchFixture, FanOutWidthIsCappedByEntriesAndAtLeastOne) {
  Rng rng(47);
  std::vector<std::vector<std::string>> paths;
  std::vector<BoxTable> queries;
  for (size_t j = 1; j <= 3; ++j) {
    paths.emplace_back(names_.begin(),
                       names_.begin() + static_cast<std::ptrdiff_t>(j) + 1);
    queries.push_back(BoxTable::FromCells(static_cast<int>(shapes_[0].size()),
                                          SampleCells(shapes_[0], 6, &rng)));
  }
  std::vector<BoxTable> want;
  for (size_t i = 0; i < paths.size(); ++i) {
    auto r = log_.ProvQuery(paths[i], queries[i]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    want.push_back(std::move(r).value());
  }
  // {num_threads, expected width}: three entries never need more than three
  // threads, and a non-positive request still runs on the caller.
  for (const auto& [num_threads, width] :
       std::vector<std::pair<int, int64_t>>{{64, 3}, {0, 1}}) {
    QueryOptions options;
    options.num_threads = num_threads;
    const metrics::HistogramSnapshot before = BatchWidths();
    auto batch = log_.ProvQueryBatch(paths, queries, options);
    const metrics::HistogramSnapshot after = BatchWidths();
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(after.count - before.count, 1) << "num_threads " << num_threads;
    EXPECT_EQ(after.sum - before.sum, width) << "num_threads " << num_threads;
    ASSERT_EQ(batch.value().size(), want.size());
    for (size_t i = 0; i < want.size(); ++i)
      EXPECT_TRUE(BoxTablesIdentical(batch.value()[i], want[i]))
          << "num_threads " << num_threads << " entry " << i;
  }
}

TEST_F(BatchFixture, BatchSizeMismatchRejected) {
  auto r = log_.ProvQueryBatch({{names_[0], names_[1]}}, {}, {});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(BatchFixture, EmptyBatchReturnsEmpty) {
  auto r = log_.ProvQueryBatch({}, {}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
}

TEST_F(BatchFixture, BatchErrorNamesEntryIndex) {
  std::vector<std::vector<std::string>> paths = {
      {names_[0], names_[1]}, {names_[0], "nonexistent"}};
  std::vector<BoxTable> queries = {
      BoxTable::FromCells(static_cast<int>(shapes_[0].size()), {0}),
      BoxTable::FromCells(static_cast<int>(shapes_[0].size()), {0})};
  auto r = log_.ProvQueryBatch(paths, queries, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_NE(r.status().message().find("batch entry 1"), std::string::npos)
      << r.status().message();
}

}  // namespace
}  // namespace dslog
