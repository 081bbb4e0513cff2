// Randomized writer-vs-batch-reader differential stress over the DSLog
// catalog: M reader threads run ProvQueryBatch against the serial
// UncompressedQuery oracle while K writer threads ingest through per-thread
// StagedIngest logs, all contending on the one edge lock, sweeping reader
// and writer counts. Every case is seeded and reproducible: each thread
// derives its Rng from (case seed, thread id), and readers only query
// chain prefixes whose registration has been published, so oracle
// equality must hold exactly no matter how the scheduler interleaves the
// threads. The whole suite runs under the CI ThreadSanitizer job with no
// filter.

#include <algorithm>
#include <atomic>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "array/ndarray.h"
#include "array/op.h"
#include "array/op_registry.h"
#include "common/hash.h"
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
  NDArray current = NDArray::Random({24}, &rng);
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

// One writer's private lineage chain: arrays "w<t>_x<i>", the captured
// relations (the oracle's ground truth), and the high-water mark of
// committed registrations (published with release so readers querying the
// prefix see the drained edges).
struct WriterChain {
  std::vector<std::string> names;
  std::vector<std::vector<int64_t>> shapes;
  std::vector<ChainStep> steps;
  std::atomic<int> registered{0};
};

// `name` is the case's test ID and seeds it. The IDs are kept stable:
// their leading Shards<N> was the stripe count of an earlier lock-striped
// edge catalog and now only tells apart cases with equal thread counts.
struct CaseConfig {
  const char* name;
  int readers;
  int writers;
};

std::string CaseName(const ::testing::TestParamInfo<CaseConfig>& info) {
  return info.param.name;
}

// Keeps the printed parameter (part of the listed test name) free of the
// name pointer's address.
void PrintTo(const CaseConfig& config, std::ostream* os) {
  *os << config.name;
}

class ContentionTest : public ::testing::TestWithParam<CaseConfig> {};

TEST_P(ContentionTest, StagedWritersVsBatchReadersMatchOracle) {
  const CaseConfig config = GetParam();
  constexpr int kOpsPerWriter = 6;
  constexpr int kReaderIters = 25;
  const uint64_t case_seed =
      0x5eed0000ull ^ Hash64(std::string_view(config.name));

  DSLog log;

  // Build every chain up front (deterministic), define only the first
  // array; writers define the rest as they go, exercising concurrent
  // DefineArray against the readers' edge-lock traffic.
  std::vector<std::unique_ptr<WriterChain>> chains;
  for (int w = 0; w < config.writers; ++w) {
    auto chain = std::make_unique<WriterChain>();
    std::vector<int64_t> first_shape;
    chain->steps =
        BuildChain(kOpsPerWriter, case_seed * 31 + static_cast<uint64_t>(w),
                   &first_shape);
    ASSERT_EQ(static_cast<int>(chain->steps.size()), kOpsPerWriter);
    chain->shapes.push_back(first_shape);
    for (const ChainStep& step : chain->steps)
      chain->shapes.push_back(step.out_shape);
    for (size_t i = 0; i < chain->shapes.size(); ++i)
      chain->names.push_back("w" + std::to_string(w) + "_x" +
                             std::to_string(i));
    ASSERT_TRUE(log.DefineArray(chain->names[0], chain->shapes[0]).ok());
    chains.push_back(std::move(chain));
  }

  std::atomic<int> writer_failures{0};
  std::atomic<int> reader_failures{0};
  std::vector<std::string> first_failure(
      static_cast<size_t>(config.readers + config.writers));

  auto writer = [&](int wid) {
    WriterChain& chain = *chains[static_cast<size_t>(wid)];
    Rng rng(case_seed * 131 + static_cast<uint64_t>(wid) * 17);
    StagedIngest stager(&log);
    int committed = 0;
    int staged_from = 0;
    for (int i = 0; i < kOpsPerWriter; ++i) {
      Status defined =
          log.DefineArray(chain.names[static_cast<size_t>(i) + 1],
                          chain.shapes[static_cast<size_t>(i) + 1]);
      OperationRegistration reg;
      reg.op_name = chain.steps[static_cast<size_t>(i)].op_name;
      reg.in_arrs = {chain.names[static_cast<size_t>(i)]};
      reg.out_arr = chain.names[static_cast<size_t>(i) + 1];
      reg.captured.push_back(chain.steps[static_cast<size_t>(i)].rel);
      Status added = stager.Add(std::move(reg));
      if (!defined.ok() || !added.ok()) {
        if (writer_failures.fetch_add(1) == 0)
          first_failure[static_cast<size_t>(config.readers + wid)] =
              (defined.ok() ? added : defined).ToString();
        continue;
      }
      // Drain in randomized group sizes (the SmokedDuck batch-commit
      // shape), always on the last op so nothing stays staged.
      const bool drain = i + 1 == kOpsPerWriter || rng.Bernoulli(0.5);
      if (drain) {
        auto outcomes = stager.Drain();
        if (!outcomes.ok()) {
          if (writer_failures.fetch_add(1) == 0)
            first_failure[static_cast<size_t>(config.readers + wid)] =
                outcomes.status().ToString();
          continue;
        }
        if (static_cast<int>(outcomes.value().size()) !=
            i + 1 - staged_from) {
          writer_failures.fetch_add(1);
          continue;
        }
        committed = i + 1;
        staged_from = committed;
        // Publish: readers may now query the committed prefix.
        chain.registered.store(committed, std::memory_order_release);
      }
      std::this_thread::yield();
    }
    EXPECT_EQ(stager.staged(), 0);
    EXPECT_EQ(committed, kOpsPerWriter);
  };

  auto reader = [&](int tid) {
    Rng rng(case_seed * 977 + static_cast<uint64_t>(tid) * 7919 + 3);
    for (int iter = 0; iter < kReaderIters; ++iter) {
      // Pick a chain with at least one committed registration.
      const int w = static_cast<int>(
          rng.Uniform(static_cast<uint64_t>(config.writers)));
      WriterChain& chain = *chains[static_cast<size_t>(w)];
      const int upto = chain.registered.load(std::memory_order_acquire);
      if (upto == 0) {
        std::this_thread::yield();
        continue;
      }
      const int batch_size = 1 + static_cast<int>(rng.Uniform(3));
      std::vector<std::vector<std::string>> paths;
      std::vector<BoxTable> queries;
      std::vector<TupleSet> want;
      std::vector<int> arities;
      for (int b = 0; b < batch_size; ++b) {
        const int j =
            1 + static_cast<int>(rng.Uniform(static_cast<uint64_t>(upto)));
        const bool forward = rng.Bernoulli(0.6);
        const auto& from_shape =
            forward ? chain.shapes[0] : chain.shapes[static_cast<size_t>(j)];
        const auto& to_shape =
            forward ? chain.shapes[static_cast<size_t>(j)] : chain.shapes[0];
        std::vector<int64_t> cells = SampleCells(from_shape, 4, &rng);
        std::vector<std::string> path(chain.names.begin(),
                                      chain.names.begin() + j + 1);
        std::vector<RelationHop> rhops;
        for (int k = 0; k < j; ++k)
          rhops.push_back({&chain.steps[static_cast<size_t>(k)].rel, true});
        if (!forward) {
          std::reverse(path.begin(), path.end());
          std::reverse(rhops.begin(), rhops.end());
          for (auto& hop : rhops) hop.forward = false;
        }
        paths.push_back(std::move(path));
        queries.push_back(
            BoxTable::FromCells(static_cast<int>(from_shape.size()), cells));
        want.push_back(ToTupleSet(UncompressedQuery(rhops, cells),
                                  static_cast<int>(to_shape.size())));
        arities.push_back(static_cast<int>(to_shape.size()));
      }

      QueryOptions qopts;
      qopts.num_threads = 1 + static_cast<int>(rng.Uniform(4));
      qopts.merge_between_hops = rng.Bernoulli(0.8);
      auto r = log.ProvQueryBatch(paths, queries, qopts);
      if (!r.ok()) {
        if (reader_failures.fetch_add(1) == 0)
          first_failure[static_cast<size_t>(tid)] = r.status().ToString();
        continue;
      }
      for (size_t b = 0; b < r.value().size(); ++b) {
        if (ToTupleSet(r.value()[b].ExpandToCells(),
                       arities[static_cast<size_t>(b)]) !=
            want[static_cast<size_t>(b)]) {
          if (reader_failures.fetch_add(1) == 0)
            first_failure[static_cast<size_t>(tid)] =
                "oracle mismatch on path to " + paths[b].back();
        }
      }
    }
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < config.writers; ++w) threads.emplace_back(writer, w);
  for (int t = 0; t < config.readers; ++t) threads.emplace_back(reader, t);
  for (std::thread& t : threads) t.join();

  std::string messages;
  for (const std::string& m : first_failure)
    if (!m.empty()) messages += m + "; ";
  EXPECT_EQ(writer_failures, 0) << messages;
  EXPECT_EQ(reader_failures, 0) << messages;

  // No lost edges, and the quiesced catalog must agree with the oracle
  // over every full chain.
  for (const auto& chain : chains) {
    EXPECT_EQ(chain->registered.load(), kOpsPerWriter);
    for (int i = 0; i < kOpsPerWriter; ++i)
      EXPECT_NE(log.FindEdge(chain->names[static_cast<size_t>(i)],
                             chain->names[static_cast<size_t>(i) + 1]),
                nullptr)
          << "edge " << i << " lost";
    Rng rng(case_seed + 9);
    std::vector<int64_t> cells = SampleCells(chain->shapes[0], 5, &rng);
    std::vector<RelationHop> rhops;
    for (const ChainStep& step : chain->steps)
      rhops.push_back({&step.rel, true});
    auto full = log.ProvQuery(
        chain->names,
        BoxTable::FromCells(static_cast<int>(chain->shapes[0].size()), cells));
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    EXPECT_EQ(ToTupleSet(full.value().ExpandToCells(),
                         static_cast<int>(chain->shapes.back().size())),
              ToTupleSet(UncompressedQuery(rhops, cells),
                         static_cast<int>(chain->shapes.back().size())));
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardAndThreadSweep, ContentionTest,
    ::testing::Values(CaseConfig{"Shards1Readers2Writers1", 2, 1},
                      CaseConfig{"Shards1Readers4Writers2", 4, 2},
                      CaseConfig{"Shards2Readers3Writers2", 3, 2},
                      CaseConfig{"Shards16Readers2Writers1", 2, 1},
                      CaseConfig{"Shards16Readers4Writers2", 4, 2},
                      CaseConfig{"Shards64Readers4Writers2", 4, 2}),
    CaseName);

// ------------------------------------------------- staged ingest semantics --

TEST(StagedIngestTest, AddRequiresCapturedLineage) {
  DSLog log;
  ASSERT_TRUE(log.DefineArray("a", {8}).ok());
  ASSERT_TRUE(log.DefineArray("b", {8}).ok());
  StagedIngest stager(&log);
  OperationRegistration reg;
  reg.op_name = "negative";
  reg.in_arrs = {"a"};
  reg.out_arr = "b";  // no captured relation: predicted ingest
  Status st = stager.Add(std::move(reg));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(stager.staged(), 0);
}

TEST(StagedIngestTest, ErrorDrainCommitsNothingAndKeepsOps) {
  std::vector<int64_t> first_shape;
  std::vector<ChainStep> chain = BuildChain(2, 555, &first_shape);
  ASSERT_EQ(chain.size(), 2u);

  DSLog log;
  ASSERT_TRUE(log.DefineArray("x0", first_shape).ok());
  ASSERT_TRUE(log.DefineArray("x1", chain[0].out_shape).ok());
  StagedIngest stager(&log);

  OperationRegistration good;
  good.op_name = chain[0].op_name;
  good.in_arrs = {"x0"};
  good.out_arr = "x1";
  good.captured.push_back(chain[0].rel);
  ASSERT_TRUE(stager.Add(std::move(good)).ok());

  OperationRegistration bad;
  bad.op_name = chain[1].op_name;
  bad.in_arrs = {"x1"};
  bad.out_arr = "x2_undefined";
  bad.captured.push_back(chain[1].rel);
  ASSERT_TRUE(stager.Add(std::move(bad)).ok());  // validated at Drain

  auto outcomes = stager.Drain();
  EXPECT_FALSE(outcomes.ok());
  EXPECT_EQ(stager.staged(), 2);  // kept for retry
  EXPECT_EQ(log.FindEdge("x0", "x1"), nullptr);  // nothing committed

  // Defining the missing array makes the same staged batch drain cleanly.
  ASSERT_TRUE(log.DefineArray("x2_undefined", chain[1].out_shape).ok());
  auto retry = stager.Drain();
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry.value().size(), 2u);
  EXPECT_EQ(stager.staged(), 0);
  EXPECT_NE(log.FindEdge("x0", "x1"), nullptr);
  EXPECT_NE(log.FindEdge("x1", "x2_undefined"), nullptr);
}

TEST(StagedIngestTest, DrainMatchesRegisterOperationResults) {
  std::vector<int64_t> first_shape;
  std::vector<ChainStep> chain = BuildChain(4, 888, &first_shape);
  ASSERT_EQ(chain.size(), 4u);
  std::vector<std::vector<int64_t>> shapes = {first_shape};
  for (const ChainStep& step : chain) shapes.push_back(step.out_shape);

  // Same chain ingested twice: once through RegisterOperation, once staged.
  DSLog direct;
  DSLog staged_log;
  for (size_t i = 0; i < shapes.size(); ++i) {
    std::string name = "x" + std::to_string(i);
    ASSERT_TRUE(direct.DefineArray(name, shapes[i]).ok());
    ASSERT_TRUE(staged_log.DefineArray(name, shapes[i]).ok());
  }
  StagedIngest stager(&staged_log);
  for (size_t i = 0; i < chain.size(); ++i) {
    OperationRegistration reg;
    reg.op_name = chain[i].op_name;
    reg.in_arrs = {"x" + std::to_string(i)};
    reg.out_arr = "x" + std::to_string(i + 1);
    reg.captured.push_back(chain[i].rel);
    OperationRegistration copy = reg;
    copy.captured = {chain[i].rel};
    ASSERT_TRUE(direct.RegisterOperation(std::move(copy)).ok());
    ASSERT_TRUE(stager.Add(std::move(reg)).ok());
  }
  EXPECT_EQ(stager.staged(), 4);
  auto outcomes = stager.Drain();
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  EXPECT_EQ(outcomes.value().size(), 4u);

  // Identical query results through both ingest paths.
  std::vector<std::string> names;
  for (size_t i = 0; i < shapes.size(); ++i)
    names.push_back("x" + std::to_string(i));
  Rng rng(3);
  std::vector<int64_t> cells = SampleCells(shapes[0], 6, &rng);
  BoxTable query =
      BoxTable::FromCells(static_cast<int>(shapes[0].size()), cells);
  auto via_direct = direct.ProvQuery(names, query);
  auto via_staged = staged_log.ProvQuery(names, query);
  ASSERT_TRUE(via_direct.ok());
  ASSERT_TRUE(via_staged.ok());
  const int arity = static_cast<int>(shapes.back().size());
  EXPECT_EQ(ToTupleSet(via_staged.value().ExpandToCells(), arity),
            ToTupleSet(via_direct.value().ExpandToCells(), arity));
}

}  // namespace
}  // namespace dslog
