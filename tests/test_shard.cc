// Tests for the sharded index layer: the tid partition function, the
// scatter-gather router's central promise — answers byte-identical to one
// SG-tree over the same data, for every query type and shard count — plus
// snapshot persistence, durable (per-shard WAL) operation, and a
// kill-one-shard crash-recovery torture. The multithreaded stress tests are
// ThreadSanitizer targets (see the tsan CI job).

#include "shard/sharded_index.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "durability/durable_tree.h"
#include "durability/env.h"
#include "durability/fault_injection.h"
#include "exec/index_backend.h"
#include "exec/query_api.h"
#include "exec/query_executor.h"
#include "obs/metrics.h"
#include "sgtree/invariant_auditor.h"
#include "sgtree/sg_tree.h"
#include "shard/query_router.h"
#include "tests/test_util.h"

namespace sgtree {
namespace {

using ::sgtree::testing::ClusteredDataset;
using ::sgtree::testing::RandomSignature;

constexpr uint32_t kBits = 120;

SgTreeOptions TreeOptions() {
  SgTreeOptions options;
  options.num_bits = kBits;
  options.max_entries = 8;
  return options;
}

ShardedIndexOptions ShardOptions(uint32_t num_shards) {
  ShardedIndexOptions options;
  options.num_shards = num_shards;
  options.tree = TreeOptions();
  return options;
}

// A mixed batch cycling through all six query types.
std::vector<QueryRequest> MixedBatch(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<QueryRequest> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    QueryRequest request;
    request.type = static_cast<QueryType>(i % 6);
    request.query = RandomSignature(rng, kBits, 0.07);
    request.k = 1 + static_cast<uint32_t>(i % 7);
    request.epsilon = 6.0 + static_cast<double>(i % 5);
    batch.push_back(std::move(request));
  }
  return batch;
}

// Serial single-tree oracle: one Execute() per query, with no pool, as the
// router runs each shard task.
std::vector<QueryResult> SingleTreeReference(
    const SgTree& tree, const std::vector<QueryRequest>& batch) {
  std::vector<QueryResult> out;
  out.reserve(batch.size());
  for (const QueryRequest& request : batch) {
    out.push_back(Execute(SgTreeBackend(tree), request));
  }
  return out;
}

// Result VALUES must match: neighbors, ids, and the error flag. Counters
// and timings are intentionally excluded (a sharded run sums per-shard
// work, which differs from the single tree's).
void ExpectSameAnswers(const std::vector<QueryResult>& expected,
                       const std::vector<QueryResult>& actual,
                       const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].neighbors, actual[i].neighbors)
        << label << " query " << i;
    EXPECT_EQ(expected[i].ids, actual[i].ids) << label << " query " << i;
    EXPECT_EQ(expected[i].error, actual[i].error) << label << " query " << i;
  }
}

// ---------------------------------------------------------------------------
// The partition function.
// ---------------------------------------------------------------------------

TEST(ShardOfTest, SingleShardTakesEverything) {
  for (uint64_t tid : {0ull, 1ull, 12345ull, ~0ull}) {
    EXPECT_EQ(ShardedIndex::ShardOf(tid, 1), 0u);
  }
}

TEST(ShardOfTest, IsAPureFunctionOfTidAndCount) {
  Rng rng(40);
  for (int trial = 0; trial < 1000; ++trial) {
    const uint64_t tid = rng.NextU64();
    for (uint32_t n : {2u, 3u, 8u, 64u}) {
      const uint32_t shard = ShardedIndex::ShardOf(tid, n);
      EXPECT_LT(shard, n);
      EXPECT_EQ(shard, ShardedIndex::ShardOf(tid, n));
    }
  }
}

TEST(ShardOfTest, SequentialTidsSpreadEvenly) {
  // Sequential tids are the common case (generators number 0..n-1); the
  // splitmix64 finalizer must not let them pile onto one shard.
  constexpr uint32_t kShards = 8;
  constexpr uint64_t kTids = 80'000;
  std::vector<uint64_t> counts(kShards, 0);
  for (uint64_t tid = 0; tid < kTids; ++tid) {
    ++counts[ShardedIndex::ShardOf(tid, kShards)];
  }
  const auto expected = static_cast<double>(kTids) / kShards;
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_GT(static_cast<double>(counts[s]), 0.9 * expected) << "shard " << s;
    EXPECT_LT(static_cast<double>(counts[s]), 1.1 * expected) << "shard " << s;
  }
}

// ---------------------------------------------------------------------------
// Scatter-gather vs the single tree: the byte-identical contract.
// ---------------------------------------------------------------------------

class ShardCountTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ShardCountTest, AllQueryTypesMatchSingleTree) {
  const uint32_t num_shards = GetParam();
  const Dataset dataset = ClusteredDataset(41, 1200, kBits, 8, 10, 2);
  SgTree single(TreeOptions());
  for (const Transaction& txn : dataset.transactions) single.Insert(txn);

  ShardedIndex index(ShardOptions(num_shards));
  EXPECT_EQ(index.InsertBatch(dataset.transactions),
            dataset.transactions.size());
  EXPECT_EQ(index.size(), dataset.transactions.size());
  for (uint32_t s = 0; s < num_shards; ++s) {
    EXPECT_TRUE(AuditTree(index.shard(s)).ok()) << "shard " << s;
  }

  const std::vector<QueryRequest> batch = MixedBatch(42, 48);
  const std::vector<QueryResult> expected = SingleTreeReference(single, batch);

  QueryExecutorOptions exec_options;
  exec_options.num_threads = 3;
  QueryExecutor executor(exec_options);
  for (const bool shared_bound : {true, false}) {
    QueryRouterOptions router_options;
    router_options.shared_knn_bound = shared_bound;
    QueryRouter router(index, &executor, router_options);
    ExpectSameAnswers(expected, router.Run(batch),
                      "shards=" + std::to_string(num_shards) +
                          " shared_bound=" + std::to_string(shared_bound));
  }
}

TEST_P(ShardCountTest, BulkLoadedShardsMatchSingleTree) {
  const uint32_t num_shards = GetParam();
  const Dataset dataset = ClusteredDataset(43, 900, kBits, 8, 10, 2);
  SgTree single(TreeOptions());
  for (const Transaction& txn : dataset.transactions) single.Insert(txn);

  auto index = ShardedIndex::BulkLoad(dataset, ShardOptions(num_shards));
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->size(), dataset.transactions.size());

  const std::vector<QueryRequest> batch = MixedBatch(44, 36);
  QueryExecutor executor;
  QueryRouter router(*index, &executor);
  // Canonical tie resolution (sgtree/search.h) makes the answers
  // independent of tree shape, so a bulk-loaded index must agree with the
  // insert-built single tree too.
  ExpectSameAnswers(SingleTreeReference(single, batch), router.Run(batch),
                    "bulk shards=" + std::to_string(num_shards));
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardCountTest,
                         ::testing::Values(1u, 2u, 8u));

TEST(QueryRouterTest, EverySchedulingModeMatchesSingleTree) {
  // The router has one schedule, but its shape depends on the batch: the
  // slice size is a function of batch size, shard count and lane count,
  // and chunked claiming and stealing decide which lane runs which slice.
  // None of that may change the answers. The lane counts and batch sizes
  // here give slices of 1 up to 21 queries (1 lane, n = 42), and every
  // schedule must reproduce the single-tree oracle for the full six-type
  // mix.
  const Dataset dataset = ClusteredDataset(61, 1000, kBits, 8, 10, 2);
  SgTree single(TreeOptions());
  for (const Transaction& txn : dataset.transactions) single.Insert(txn);
  ShardedIndex index(ShardOptions(4));
  index.InsertBatch(dataset.transactions);

  const std::vector<QueryRequest> batch = MixedBatch(62, 42);
  const std::vector<QueryResult> expected = SingleTreeReference(single, batch);

  for (const uint32_t lanes : {1u, 4u, 8u}) {
    QueryExecutorOptions exec_options;
    exec_options.num_threads = lanes;
    QueryExecutor executor(exec_options);
    QueryRouter router(index, &executor);
    for (const size_t n : {size_t{1}, size_t{5}, batch.size()}) {
      const std::vector<QueryRequest> prefix(batch.begin(),
                                             batch.begin() + n);
      ExpectSameAnswers(
          std::vector<QueryResult>(expected.begin(), expected.begin() + n),
          router.Run(prefix),
          "lanes=" + std::to_string(lanes) + " n=" + std::to_string(n));
    }
  }
}

TEST(QueryRouterTest, ColdProtocolCountersAreGeometryIndependent) {
  // The router's counter contract: with the shared bound off, every
  // (query, shard) sub-query runs with no pool, so each query's merged
  // result — trace included — is the merge of cold per-shard Execute()
  // calls, whatever the lane count or slice size.
  const Dataset dataset = ClusteredDataset(63, 700, kBits, 8, 10, 2);
  ShardedIndex index(ShardOptions(3));
  index.InsertBatch(dataset.transactions);
  const std::vector<QueryRequest> batch = MixedBatch(64, 24);

  // Reference: each query against each shard on its own.
  std::vector<QueryTrace> cold_traces(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    for (uint32_t si = 0; si < index.num_shards(); ++si) {
      cold_traces[i] += Execute(SgTreeBackend(index.shard(si)), batch[i]).trace;
    }
  }

  auto run = [&](uint32_t lanes, size_t n) {
    QueryExecutorOptions exec_options;
    exec_options.num_threads = lanes;
    QueryExecutor executor(exec_options);
    QueryRouterOptions router_options;
    router_options.shared_knn_bound = false;
    QueryRouter router(index, &executor, router_options);
    return router.Run(std::vector<QueryRequest>(batch.begin(),
                                                batch.begin() + n));
  };
  const std::vector<QueryResult> reference = run(1, batch.size());
  // 3 shards: 1 lane aims at 3 slices per shard and 4 lanes at 11, so
  // n = 1 and 3 give 1-query slices, and n = 24 gives 8-query (1 lane) and
  // 3-query (4 lanes) slices.
  for (const uint32_t lanes : {1u, 4u}) {
    for (const size_t n : {size_t{1}, size_t{3}, batch.size()}) {
      const std::vector<QueryResult> results = run(lanes, n);
      ASSERT_EQ(results.size(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(results[i].trace, cold_traces[i])
            << "lanes=" << lanes << " n=" << n << " query " << i;
        EXPECT_EQ(results[i], reference[i])
            << "lanes=" << lanes << " n=" << n << " query " << i;
      }
    }
  }
}

TEST(QueryRouterTest, RepeatedRunsAreFullyDeterministic) {
  const Dataset dataset = ClusteredDataset(45, 800, kBits, 8, 10, 2);
  ShardedIndex index(ShardOptions(4));
  index.InsertBatch(dataset.transactions);
  const std::vector<QueryRequest> batch = MixedBatch(46, 30);

  QueryExecutorOptions exec_options;
  exec_options.num_threads = 4;
  QueryExecutor executor(exec_options);
  // Shared bound off and no pools: per-shard counters are a pure
  // function of the input, so whole results (values AND counters) must be
  // identical run over run.
  QueryRouterOptions router_options;
  router_options.shared_knn_bound = false;
  QueryRouter router(index, &executor, router_options);
  const std::vector<QueryResult> first = router.Run(batch);
  for (int run = 0; run < 3; ++run) {
    const std::vector<QueryResult> again = router.Run(batch);
    ASSERT_EQ(again.size(), first.size());
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i], again[i]) << "run " << run << " query " << i;
    }
  }
}

TEST(QueryRouterTest, InvalidRequestsAreNotFannedOut) {
  const Dataset dataset = ClusteredDataset(47, 300, kBits, 6, 10, 2);
  ShardedIndex index(ShardOptions(2));
  index.InsertBatch(dataset.transactions);
  QueryExecutor executor;
  QueryRouter router(index, &executor);

  std::vector<QueryRequest> batch = MixedBatch(48, 4);
  batch[1].type = QueryType::kKnn;
  batch[1].k = 0;
  batch[3].type = QueryType::kRange;
  batch[3].epsilon = -1.0;
  const auto results = router.Run(batch);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
  EXPECT_FALSE(results[3].ok());
  EXPECT_TRUE(results[1].neighbors.empty());
  EXPECT_EQ(results[1].trace.nodes_visited(), 0u);

  // The report distinguishes batch size from rejects; rejected queries
  // contribute no latency samples and no counters.
  const BatchReport& report = router.last_batch_report();
  EXPECT_EQ(report.queries, 4u);
  EXPECT_EQ(report.rejected, 2u);
}

// Degenerate batch shapes. The serving layer leans on these: the batcher
// runs a lone request as a batch of one (nothing else was queued) or a
// batch holding byte-identical duplicates (two clients asked the same
// thing before the cache had it), and the result-cache keying assumes each
// duplicate gets its own, equal answer in order.
TEST(QueryRouterTest, EmptyBatchYieldsEmptyResults) {
  const Dataset dataset = ClusteredDataset(51, 300, kBits, 6, 10, 2);
  ShardedIndex index(ShardOptions(4));
  index.InsertBatch(dataset.transactions);
  QueryExecutor executor;
  QueryRouter router(index, &executor);

  const std::vector<QueryResult> results = router.Run({});
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(router.last_batch_report().queries, 0u);
  EXPECT_EQ(router.last_batch_report().rejected, 0u);

  // The router is still healthy afterwards: a real batch runs normally.
  const auto batch = MixedBatch(51, 6);
  EXPECT_EQ(router.Run(batch).size(), batch.size());
}

TEST(QueryRouterTest, SingleQueryOnEightShardFleetMatchesSingleTree) {
  const Dataset dataset = ClusteredDataset(53, 900, kBits, 8, 10, 2);
  SgTree single(TreeOptions());
  for (const Transaction& txn : dataset.transactions) single.Insert(txn);
  ShardedIndex index(ShardOptions(8));
  index.InsertBatch(dataset.transactions);
  QueryExecutor executor;
  QueryRouter router(index, &executor);

  // Every type, one at a time: the fan-out runs 8 shard tasks for ONE
  // query and the merge must still be byte-identical to the single tree.
  const std::vector<QueryRequest> all = MixedBatch(53, 6);
  for (size_t i = 0; i < all.size(); ++i) {
    const std::vector<QueryRequest> one = {all[i]};
    ExpectSameAnswers(SingleTreeReference(single, one), router.Run(one),
                      "single query " + std::to_string(i));
  }
}

TEST(QueryRouterTest, DuplicateRequestsGetIdenticalAnswersInOrder) {
  const Dataset dataset = ClusteredDataset(55, 600, kBits, 6, 10, 2);
  SgTree single(TreeOptions());
  for (const Transaction& txn : dataset.transactions) single.Insert(txn);
  ShardedIndex index(ShardOptions(4));
  index.InsertBatch(dataset.transactions);
  QueryExecutor executor;
  QueryRouter router(index, &executor);

  // Triplicate every request, interleaved so duplicates are not adjacent.
  const std::vector<QueryRequest> distinct = MixedBatch(55, 6);
  std::vector<QueryRequest> batch;
  for (int round = 0; round < 3; ++round) {
    for (const QueryRequest& request : distinct) batch.push_back(request);
  }
  const std::vector<QueryResult> results = router.Run(batch);
  ExpectSameAnswers(SingleTreeReference(single, batch), results,
                    "duplicated batch");
  ASSERT_EQ(results.size(), 3 * distinct.size());
  for (size_t i = 0; i < distinct.size(); ++i) {
    for (int round = 1; round < 3; ++round) {
      const QueryResult& first = results[i];
      const QueryResult& again = results[i + round * distinct.size()];
      EXPECT_EQ(first.neighbors, again.neighbors) << "query " << i;
      EXPECT_EQ(first.ids, again.ids) << "query " << i;
      EXPECT_EQ(first.error, again.error) << "query " << i;
    }
  }
}

TEST(QueryRouterTest, FeedsShardMetrics) {
  const Dataset dataset = ClusteredDataset(49, 400, kBits, 6, 10, 2);
  ShardedIndex index(ShardOptions(3));
  index.InsertBatch(dataset.transactions);
  QueryExecutor executor;
  obs::MetricsRegistry registry;
  QueryRouterOptions router_options;
  router_options.metrics = &registry;
  QueryRouter router(index, &executor, router_options);
  const auto batch = MixedBatch(50, 12);
  router.Run(batch);

  EXPECT_EQ(registry.GetCounter("shard.queries")->Value(), 12u);
  EXPECT_EQ(registry.GetCounter("shard.rejected")->Value(), 0u);
  EXPECT_EQ(registry.GetCounter("shard.fanout_tasks")->Value(), 36u);
  for (uint32_t s = 0; s < 3; ++s) {
    const std::string prefix = "shard." + std::to_string(s) + ".";
    EXPECT_EQ(registry.GetCounter(prefix + "queries")->Value(), 12u);
  }
  EXPECT_GT(router.last_batch_report().p99_us, 0.0);
  EXPECT_EQ(router.last_batch_report().queries, 12u);
}

// ---------------------------------------------------------------------------
// Concurrency: the TSAN targets. Shared k-NN bound + multiple workers,
// graded against the serial oracle.
// ---------------------------------------------------------------------------

TEST(ShardStressTest, SharedBoundManyWorkersMatchesSerialOracle) {
  const Dataset dataset = ClusteredDataset(53, 1000, kBits, 8, 10, 2);
  SgTree single(TreeOptions());
  for (const Transaction& txn : dataset.transactions) single.Insert(txn);
  ShardedIndex index(ShardOptions(8));
  index.InsertBatch(dataset.transactions);

  // All-kNN batch to hammer the shared atomic bound from every worker.
  Rng rng(54);
  std::vector<QueryRequest> batch;
  for (int i = 0; i < 120; ++i) {
    QueryRequest request;
    request.type =
        i % 2 == 0 ? QueryType::kKnn : QueryType::kBestFirstKnn;
    request.query = RandomSignature(rng, kBits, 0.07);
    request.k = 1 + static_cast<uint32_t>(i % 10);
    batch.push_back(std::move(request));
  }
  const std::vector<QueryResult> expected = SingleTreeReference(single, batch);

  QueryExecutorOptions exec_options;
  exec_options.num_threads = 4;
  QueryExecutor executor(exec_options);
  QueryRouter router(index, &executor);  // shared_knn_bound on by default.
  for (int run = 0; run < 3; ++run) {
    ExpectSameAnswers(expected, router.Run(batch),
                      "sharedbound run=" + std::to_string(run));
  }
}

TEST(ShardStressTest, TinySlicesMatchSerialOracle) {
  // Worst case for the fan-out: 8-query batches on 8 lanes and 8 shards
  // give 1-query slices and a claim size of 1, so all 8 sub-queries of a
  // query can run on different lanes at once, sharing its k-NN bound.
  // TSAN checks the claiming, stealing and bound updates; the oracle
  // checks the answers.
  const Dataset dataset = ClusteredDataset(65, 1000, kBits, 8, 10, 2);
  SgTree single(TreeOptions());
  for (const Transaction& txn : dataset.transactions) single.Insert(txn);
  ShardedIndex index(ShardOptions(8));
  index.InsertBatch(dataset.transactions);

  const std::vector<QueryRequest> batch = MixedBatch(66, 96);
  const std::vector<QueryResult> expected = SingleTreeReference(single, batch);

  QueryExecutorOptions exec_options;
  exec_options.num_threads = 8;
  QueryExecutor executor(exec_options);
  QueryRouter router(index, &executor);
  constexpr size_t kBatch = 8;
  for (int run = 0; run < 3; ++run) {
    for (size_t first = 0; first < batch.size(); first += kBatch) {
      ExpectSameAnswers(
          std::vector<QueryResult>(expected.begin() + first,
                                   expected.begin() + first + kBatch),
          router.Run(std::vector<QueryRequest>(
              batch.begin() + first, batch.begin() + first + kBatch)),
          "run=" + std::to_string(run) + " first=" + std::to_string(first));
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot persistence.
// ---------------------------------------------------------------------------

TEST(ShardedIndexPersistenceTest, SaveLoadRoundTripAnswersIdentically) {
  const Dataset dataset = ClusteredDataset(55, 700, kBits, 8, 10, 2);
  ShardedIndex index(ShardOptions(4));
  index.InsertBatch(dataset.transactions);

  const std::string path =
      ::testing::TempDir() + "/sgtree_sharded_roundtrip.idx";
  std::string error;
  ASSERT_TRUE(index.Save(path, &error)) << error;
  auto loaded = ShardedIndex::Load(path, ShardOptions(1), &error);
  ASSERT_NE(loaded, nullptr) << error;
  // The manifest, not the caller, decides the shard count.
  EXPECT_EQ(loaded->num_shards(), 4u);
  EXPECT_EQ(loaded->size(), index.size());

  const auto batch = MixedBatch(56, 24);
  QueryExecutor executor;
  QueryRouter router_a(index, &executor);
  const auto expected = router_a.Run(batch);
  QueryRouter router_b(*loaded, &executor);
  ExpectSameAnswers(expected, router_b.Run(batch), "loaded");

  std::remove(path.c_str());
  for (uint32_t s = 0; s < 4; ++s) {
    std::remove(ShardedIndex::ShardSnapshotPath(path, s).c_str());
  }
}

TEST(ShardedIndexPersistenceTest, LoadRejectsGarbageManifest) {
  const std::string path = ::testing::TempDir() + "/sgtree_sharded_bad.idx";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a manifest";
  }
  std::string error;
  EXPECT_EQ(ShardedIndex::Load(path, ShardOptions(1), &error), nullptr);
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Durable shards.
// ---------------------------------------------------------------------------

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  // Start from a clean slate: remove any per-shard state a previous run
  // left behind.
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(ShardedDurableTest, ReopenedIndexAnswersIdentically) {
  const Dataset dataset = ClusteredDataset(57, 400, kBits, 6, 10, 2);
  const std::string dir = FreshDir("sharded_durable_reopen");
  const auto batch = MixedBatch(58, 24);
  QueryExecutor executor;

  std::vector<QueryResult> before;
  {
    std::string error;
    auto index =
        ShardedIndex::OpenDurable(Env::Posix(), dir, ShardOptions(3), &error);
    ASSERT_NE(index, nullptr) << error;
    ASSERT_TRUE(index->durable());
    EXPECT_EQ(index->InsertBatch(dataset.transactions),
              dataset.transactions.size());
    QueryRouter router(*index, &executor);
    before = router.Run(batch);
  }  // Close (destructors flush nothing extra: the WAL already has it all).

  std::string error;
  auto reopened =
      ShardedIndex::OpenDurable(Env::Posix(), dir, ShardOptions(3), &error);
  ASSERT_NE(reopened, nullptr) << error;
  EXPECT_EQ(reopened->size(), dataset.transactions.size());
  QueryRouter router(*reopened, &executor);
  ExpectSameAnswers(before, router.Run(batch), "reopened");

  // And the recovered shards must equal a never-persisted in-memory build.
  ShardedIndex in_memory(ShardOptions(3));
  in_memory.InsertBatch(dataset.transactions);
  QueryRouter reference(in_memory, &executor);
  ExpectSameAnswers(reference.Run(batch), router.Run(batch), "vs in-memory");
}

// A directory built with 3 shards reopens as 3 shards whatever count the
// caller passes, as sgtree_serve --durable-dir opens it with the default
// options (one shard).
TEST(ShardedDurableTest, ReopenTakesShardCountFromDirectory) {
  const Dataset dataset = ClusteredDataset(61, 300, kBits, 6, 10, 2);
  const std::string dir = FreshDir("sharded_durable_count");
  {
    std::string error;
    auto index =
        ShardedIndex::OpenDurable(Env::Posix(), dir, ShardOptions(3), &error);
    ASSERT_NE(index, nullptr) << error;
    ASSERT_EQ(index->InsertBatch(dataset.transactions),
              dataset.transactions.size());
  }
  std::string error;
  auto reopened =
      ShardedIndex::OpenDurable(Env::Posix(), dir, ShardOptions(1), &error);
  ASSERT_NE(reopened, nullptr) << error;
  EXPECT_EQ(reopened->num_shards(), 3u);
  EXPECT_EQ(reopened->size(), dataset.transactions.size());

  ShardedIndex in_memory(ShardOptions(3));
  in_memory.InsertBatch(dataset.transactions);
  QueryExecutor executor;
  const auto batch = MixedBatch(62, 24);
  QueryRouter reference(in_memory, &executor);
  QueryRouter router(*reopened, &executor);
  ExpectSameAnswers(reference.Run(batch), router.Run(batch), "reopened");
}

// A directory holding fewer shards than the caller asks for — here only
// shard-0, as a 3-shard creation that failed at shard-1 leaves it — is
// refused with both counts, and nothing is created in it; asking for that
// many or fewer opens it.
TEST(ShardedDurableTest, ReopenRefusesDirectoryWithFewerShards) {
  const std::string dir = FreshDir("sharded_durable_partial");
  std::filesystem::create_directories(dir);
  {
    std::string error;
    DurableTree::Options options;
    options.tree = TreeOptions();
    ASSERT_NE(DurableTree::Open(Env::Posix(), ShardedIndex::ShardDirFor(dir, 0),
                                options, &error),
              nullptr)
        << error;
  }
  std::string error;
  EXPECT_EQ(
      ShardedIndex::OpenDurable(Env::Posix(), dir, ShardOptions(3), &error),
      nullptr);
  EXPECT_EQ(error, dir + " holds 1 shard(s), fewer than the 3 asked for");
  EXPECT_FALSE(std::filesystem::exists(ShardedIndex::ShardDirFor(dir, 1)));

  auto reopened =
      ShardedIndex::OpenDurable(Env::Posix(), dir, ShardOptions(1), &error);
  ASSERT_NE(reopened, nullptr) << error;
  EXPECT_EQ(reopened->num_shards(), 1u);
}

// Kill-one-shard torture: a serial insert workload runs over the
// fault-injecting env; the kill point lands inside one shard's WAL, after
// which every shard's writes fail (the process is dead). On reopen with a
// clean env, exactly the acknowledged inserts must be present and the
// answers must match a never-crashed in-memory index over the same acked
// prefix.
TEST(ShardedDurableTest, KillMidWriteLosesNothingAcknowledged) {
  constexpr uint32_t kShards = 3;
  const Dataset dataset = ClusteredDataset(59, 60, kBits, 6, 10, 2);

  // Clean instrumented pass: count the writes the full workload issues.
  uint64_t open_writes = 0;
  uint64_t total_writes = 0;
  {
    FaultState state;
    FaultInjectingEnv env(Env::Posix(), &state);
    const std::string dir = FreshDir("sharded_torture_clean");
    std::string error;
    auto index =
        ShardedIndex::OpenDurable(&env, dir, ShardOptions(kShards), &error);
    ASSERT_NE(index, nullptr) << error;
    open_writes = state.writes_issued();
    for (const Transaction& txn : dataset.transactions) {
      ASSERT_TRUE(index->Insert(txn));
    }
    total_writes = state.writes_issued();
  }
  ASSERT_GT(total_writes, open_writes);

  // Sweep kill points across the insert phase, with and without a torn
  // tail on the fatal write.
  const uint64_t span = total_writes - open_writes;
  struct Trial {
    uint64_t kill;
    uint64_t torn;
  };
  const std::vector<Trial> trials = {
      {open_writes + 1, UINT64_MAX},
      {open_writes + span / 3, UINT64_MAX},
      {open_writes + span / 2, 3},  // Torn: 3 bytes of the record land.
      {open_writes + 2 * span / 3, UINT64_MAX},
      {total_writes - 1, 5},
  };
  for (size_t t = 0; t < trials.size(); ++t) {
    SCOPED_TRACE("trial " + std::to_string(t) + " kill_at_write=" +
                 std::to_string(trials[t].kill));
    FaultPlan plan;
    plan.kill_at_write = trials[t].kill;
    plan.torn_prefix_bytes = trials[t].torn;
    FaultState state(plan);
    FaultInjectingEnv env(Env::Posix(), &state);
    const std::string dir = FreshDir("sharded_torture_" + std::to_string(t));

    std::vector<Transaction> acked;
    {
      std::string error;
      auto index =
          ShardedIndex::OpenDurable(&env, dir, ShardOptions(kShards), &error);
      ASSERT_NE(index, nullptr) << error;  // Kill points start after open.
      for (const Transaction& txn : dataset.transactions) {
        if (!index->Insert(txn)) break;  // The shard's WAL is dead.
        acked.push_back(txn);
      }
      EXPECT_LT(acked.size(), dataset.transactions.size());
    }

    // Recover with a clean env: per-shard recovery must surface exactly
    // the acknowledged prefix.
    std::string error;
    auto recovered = ShardedIndex::OpenDurable(Env::Posix(), dir,
                                               ShardOptions(kShards), &error);
    ASSERT_NE(recovered, nullptr) << error;
    EXPECT_EQ(recovered->size(), acked.size());
    for (uint32_t s = 0; s < kShards; ++s) {
      EXPECT_TRUE(AuditTree(recovered->shard(s)).ok()) << "shard " << s;
    }

    ShardedIndex reference(ShardOptions(kShards));
    for (const Transaction& txn : acked) {
      ASSERT_TRUE(reference.Insert(txn));
    }
    QueryExecutor executor;
    const auto batch = MixedBatch(60 + t, 18);
    QueryRouter recovered_router(*recovered, &executor);
    QueryRouter reference_router(reference, &executor);
    ExpectSameAnswers(reference_router.Run(batch),
                      recovered_router.Run(batch), "recovered");
  }
}

// A shard directory written by the page-file DurableTree is refused with
// a reason that says to rebuild, and nothing is created beside it.
TEST(ShardedDurableTest, RetiredPageFileShardIsRefused) {
  const std::string dir = FreshDir("sharded_retired");
  std::filesystem::create_directories(dir);
  std::filesystem::copy(std::string(SGTREE_GOLDEN_DIR) + "/durable_v1_small",
                        ShardedIndex::ShardDirFor(dir, 0));
  auto listing = [&dir] {
    std::vector<std::string> paths;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(dir)) {
      paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    return paths;
  };
  const std::vector<std::string> before = listing();
  std::string error;
  EXPECT_EQ(ShardedIndex::OpenDurable(Env::Posix(), dir, ShardOptions(1),
                                      &error),
            nullptr);
  EXPECT_EQ(error, "shard 0: " + ShardedIndex::ShardDirFor(dir, 0) +
                       ": retired page-file format (pages.sgp); rebuild the "
                       "index from its data");
  EXPECT_EQ(listing(), before);
}

}  // namespace
}  // namespace sgtree
