// Differential tests for a loaded static image: an SgTree that reads its
// records in place in the image must answer byte-identically to the tree
// built by inserts — full QueryResult equality, counters and traces
// included — for all six query types, through both the mmap (Open) and
// buffered (OpenFromBytes) paths, standalone and behind the sharded
// scatter-gather router, and under concurrent readers sharing one loaded
// tree (the TSAN target). It also checks that the reads are in place: a
// node leaves the image only when an update edits it.

#include "static/static_tree_view.h"

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "durability/durable_tree.h"
#include "durability/env.h"
#include "durability/fault_injection.h"
#include "exec/index_backend.h"
#include "exec/query_api.h"
#include "exec/query_executor.h"
#include "shard/query_router.h"
#include "shard/sharded_index.h"
#include "sgtree/invariant_auditor.h"
#include "sgtree/sg_tree.h"
#include "static/static_tree_builder.h"
#include "storage/buffer_pool.h"
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

// A mixed batch cycling through all six query types (test_shard.cc's
// protocol, so the two suites grade the same workload).
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

// Runs `batch` through `backend` with no pool: every node read is one
// random I/O, so counters are a pure function of the input.
std::vector<QueryResult> RunBatch(const IndexBackend& backend,
                                  const std::vector<QueryRequest>& batch) {
  std::vector<QueryResult> out;
  out.reserve(batch.size());
  for (const QueryRequest& request : batch) {
    out.push_back(Execute(backend, request));
  }
  return out;
}

// Full equality — values AND trace (operator== excludes only the
// wall time). This is the byte-identical contract, not just same answers.
void ExpectIdenticalResults(const std::vector<QueryResult>& expected,
                            const std::vector<QueryResult>& actual,
                            const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i]) << label << " query " << i;
  }
}

struct Fixture {
  explicit Fixture(uint32_t num_transactions = 900)
      : dataset(ClusteredDataset(71, num_transactions, kBits, 8, 10, 2)),
        tree(TreeOptions()) {
    for (const Transaction& txn : dataset.transactions) tree.Insert(txn);
    image = BuildStaticImage(tree);
    std::string error;
    StaticOpenOptions options;
    options.tree = TreeOptions();
    view = StaticTreeView::OpenFromBytes(image.data(), image.size(), options,
                                         &error);
    EXPECT_NE(view, nullptr) << error;
    if (view != nullptr) loaded = ThawStatic(view);
  }

  Dataset dataset;
  SgTree tree;  // Built by inserts.
  std::vector<uint8_t> image;
  std::shared_ptr<const StaticTreeView> view;
  std::unique_ptr<SgTree> loaded;  // The image, read in place.
};

// ---------------------------------------------------------------------------
// The header mirrors the tree.
// ---------------------------------------------------------------------------

TEST(StaticTreeViewTest, HeaderMatchesSourceTree) {
  Fixture f;
  EXPECT_EQ(f.view->size(), f.tree.size());
  EXPECT_EQ(f.view->node_count(), f.tree.node_count());
  EXPECT_EQ(f.view->height(), f.tree.height());
  EXPECT_EQ(f.view->num_bits(), f.tree.num_bits());
  EXPECT_EQ(f.view->max_entries(), f.tree.max_entries());
  EXPECT_EQ(f.view->file_size(), f.image.size());
  EXPECT_EQ(f.loaded->TransactionAreaBounds(), f.tree.TransactionAreaBounds());
  EXPECT_FALSE(f.view->zero_copy());  // OpenFromBytes copies.
}

TEST(StaticTreeViewTest, EmptyTreeRoundTrips) {
  const SgTree empty(TreeOptions());
  const std::vector<uint8_t> image = BuildStaticImage(empty);
  std::string error;
  StaticOpenOptions options;
  options.tree = TreeOptions();
  auto view =
      StaticTreeView::OpenFromBytes(image.data(), image.size(), options,
                                    &error);
  ASSERT_NE(view, nullptr) << error;
  EXPECT_EQ(view->size(), 0u);
  const std::unique_ptr<SgTree> loaded = ThawStatic(std::move(view));
  EXPECT_EQ(loaded->root(), kInvalidPageId);
  ExpectIdenticalResults(RunBatch(SgTreeBackend(empty), MixedBatch(72, 12)),
                         RunBatch(SgTreeBackend(*loaded), MixedBatch(72, 12)),
                         "empty");
}

TEST(StaticTreeBackendTest, SupportsAllSixQueryTypes) {
  // A loaded image is an SgTree, served by the one tree backend.
  Fixture f(60);
  const SgTreeBackend backend(*f.loaded);
  EXPECT_STREQ(backend.name(), "sgtree");
  for (int type = 0; type < 6; ++type) {
    EXPECT_TRUE(backend.Supports(static_cast<QueryType>(type))) << type;
  }
}

// ---------------------------------------------------------------------------
// The differential core: loaded == built by inserts, byte for byte.
// ---------------------------------------------------------------------------

TEST(StaticDifferentialTest, AllQueryTypesIdenticalToDynamicTree) {
  Fixture f;
  const std::vector<QueryRequest> batch = MixedBatch(73, 72);
  ExpectIdenticalResults(RunBatch(SgTreeBackend(f.tree), batch),
                         RunBatch(SgTreeBackend(*f.loaded), batch),
                         "buffered image");
}

TEST(StaticDifferentialTest, UntracedContextIdenticalToDynamicTree) {
  // The I/O rule of a context without a pool (Execute still attaches the
  // result's trace): every node read is one miss. No search reads a node
  // twice in one query, so on both trees and for all six query types the
  // no-pool result equals the result from a cleared pool of any size,
  // trace included.
  Fixture f(500);
  const std::vector<QueryRequest> batch = MixedBatch(74, 36);
  const SgTreeBackend dynamic_backend(f.tree);
  const SgTreeBackend static_backend(*f.loaded);
  BufferPool pools[] = {BufferPool(0), BufferPool(8), BufferPool(4096)};
  for (size_t i = 0; i < batch.size(); ++i) {
    const QueryResult expected = Execute(dynamic_backend, batch[i]);
    const QueryResult actual = Execute(static_backend, batch[i]);
    EXPECT_EQ(expected, actual) << "query " << i;
    for (const QueryResult* no_pool : {&expected, &actual}) {
      EXPECT_GT(no_pool->trace.nodes_visited(), 0u) << "query " << i;
      EXPECT_EQ(no_pool->trace.buffer_hits, 0u) << "query " << i;
      EXPECT_EQ(no_pool->trace.buffer_misses, no_pool->trace.nodes_visited())
          << "query " << i;
    }
    for (BufferPool& pool : pools) {
      for (const IndexBackend* backend :
           {static_cast<const IndexBackend*>(&dynamic_backend),
            static_cast<const IndexBackend*>(&static_backend)}) {
        pool.Clear();
        const QueryResult cold = Execute(*backend, batch[i], &pool);
        EXPECT_EQ(cold, expected) << backend->name() << " query " << i
                                  << " pool " << pool.capacity();
      }
    }
  }
}

TEST(StaticDifferentialTest, MmapOpenIdenticalToBufferedOpen) {
  Fixture f;
  const std::string path = ::testing::TempDir() + "/sgtree_static_diff.sgi";
  std::string error;
  ASSERT_TRUE(BuildStaticTree(f.tree, path, &error)) << error;

  StaticOpenOptions options;
  options.tree = TreeOptions();
  auto mapped = StaticTreeView::Open(Env::Posix(), path, options, &error);
  ASSERT_NE(mapped, nullptr) << error;
  EXPECT_TRUE(mapped->zero_copy());
  const std::unique_ptr<SgTree> mapped_tree = ThawStatic(std::move(mapped));

  const std::vector<QueryRequest> batch = MixedBatch(75, 48);
  ExpectIdenticalResults(RunBatch(SgTreeBackend(*f.loaded), batch),
                         RunBatch(SgTreeBackend(*mapped_tree), batch), "mmap");
  // And both match the tree built by inserts, closing the triangle.
  ExpectIdenticalResults(RunBatch(SgTreeBackend(f.tree), batch),
                         RunBatch(SgTreeBackend(*mapped_tree), batch),
                         "mmap vs dynamic");
  std::remove(path.c_str());
}

TEST(StaticDifferentialTest, WrappingEnvFallbackIdenticalToPosixMmap) {
  // A wrapping Env (no MapReadOnly override of its own) serves the image
  // through the read-into-buffer fallback; answers must not depend on
  // which path produced the bytes.
  Fixture f(500);
  const std::string path = ::testing::TempDir() + "/sgtree_static_fb.sgi";
  std::string error;
  ASSERT_TRUE(BuildStaticTree(f.tree, path, &error)) << error;

  FaultState state;  // No faults planned: a pure pass-through wrapper.
  FaultInjectingEnv env(Env::Posix(), &state);
  StaticOpenOptions options;
  options.tree = TreeOptions();
  auto fallback = StaticTreeView::Open(&env, path, options, &error);
  ASSERT_NE(fallback, nullptr) << error;
  EXPECT_FALSE(fallback->zero_copy());
  const std::unique_ptr<SgTree> fallback_tree = ThawStatic(std::move(fallback));

  const std::vector<QueryRequest> batch = MixedBatch(76, 36);
  ExpectIdenticalResults(RunBatch(SgTreeBackend(f.tree), batch),
                         RunBatch(SgTreeBackend(*fallback_tree), batch),
                         "fallback env");
  std::remove(path.c_str());
}

TEST(StaticDifferentialTest, ExportStaticSnapshotsADurableTree) {
  const Dataset dataset = ClusteredDataset(77, 300, kBits, 6, 10, 2);
  const std::string dir = ::testing::TempDir() + "/sgtree_static_export";
  std::filesystem::remove_all(dir);
  Env* env = Env::Posix();

  DurableTree::Options options;
  options.tree = TreeOptions();
  std::string error;
  auto durable = DurableTree::Open(env, dir, options, &error);
  ASSERT_NE(durable, nullptr) << error;
  for (const Transaction& txn : dataset.transactions) {
    ASSERT_TRUE(durable->Insert(txn));
  }

  const std::string path = dir + "/export.sgi";
  ASSERT_TRUE(ExportStatic(*durable, path, &error)) << error;
  StaticOpenOptions open_options;
  open_options.tree = TreeOptions();
  auto view = StaticTreeView::Open(env, path, open_options, &error);
  ASSERT_NE(view, nullptr) << error;
  EXPECT_EQ(view->size(), dataset.transactions.size());
  const std::unique_ptr<SgTree> exported = ThawStatic(std::move(view));

  const std::vector<QueryRequest> batch = MixedBatch(78, 30);
  ExpectIdenticalResults(RunBatch(SgTreeBackend(durable->tree()), batch),
                         RunBatch(SgTreeBackend(*exported), batch),
                         "exported");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Reads in place: a node leaves the image only when an update edits it.
// ---------------------------------------------------------------------------

// Ids of the image's nodes that the loaded tree no longer reads from the
// image's bytes, ascending.
std::vector<PageId> MovedNodes(const SgTree& loaded,
                               const StaticTreeView& view) {
  std::vector<PageId> moved;
  for (PageId id = 0; id < view.node_count(); ++id) {
    if (loaded.GetNodeNoCharge(id).words().data() != view.Record(id)) {
      moved.push_back(id);
    }
  }
  return moved;
}

TEST(StaticInPlaceTest, LoadedTreeCopiesOnlyTheNodesAnUpdateEdits) {
  Fixture f;
  SgTree& loaded = *f.loaded;
  const uint32_t height = loaded.height();
  ASSERT_GE(height, 3u);
  ASSERT_EQ(loaded.node_count(), f.view->node_count());
  // Every node is read from the image's record, at the image's address,
  // and an erase that finds nothing reads its way down and copies nothing.
  EXPECT_TRUE(MovedNodes(loaded, *f.view).empty());
  EXPECT_FALSE(loaded.Erase(Transaction{5'000'000, {1, 2, 3}}));
  EXPECT_TRUE(MovedNodes(loaded, *f.view).empty());

  // One insert copies exactly the nodes of its descent, one per level,
  // each a child of the one before in the image (BFS ids grow with depth,
  // so ascending ids are root-first); every other node of the image stays
  // in place.
  loaded.Insert(Transaction{5'000'001, {1, 2, 3}});
  const std::vector<PageId> moved = MovedNodes(loaded, *f.view);
  ASSERT_EQ(moved.size(), height);
  EXPECT_EQ(moved.front(), 0u);
  for (size_t i = 1; i < moved.size(); ++i) {
    const NodeView parent(f.view->Record(moved[i - 1]), kBits);
    bool is_child = false;
    for (const EntryView entry : parent) is_child |= entry.ref == moved[i];
    EXPECT_TRUE(is_child) << "node " << moved[i];
  }
  EXPECT_TRUE(AuditTree(loaded).ok());
  f.tree.Insert(Transaction{5'000'001, {1, 2, 3}});
  EXPECT_EQ(BuildStaticImage(loaded), BuildStaticImage(f.tree));
}

// ---------------------------------------------------------------------------
// Sharded static mode: SaveStatic / Load / router equivalence.
// ---------------------------------------------------------------------------

class StaticShardCountTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(StaticShardCountTest, RouterIdenticalToDynamicShards) {
  const uint32_t num_shards = GetParam();
  const Dataset dataset = ClusteredDataset(79, 1000, kBits, 8, 10, 2);
  ShardedIndexOptions shard_options;
  shard_options.num_shards = num_shards;
  shard_options.tree = TreeOptions();
  ShardedIndex dynamic_index(shard_options);
  ASSERT_EQ(dynamic_index.InsertBatch(dataset.transactions),
            dataset.transactions.size());

  const std::string path = ::testing::TempDir() + "/sgtree_static_shards_" +
                           std::to_string(num_shards) + ".idx";
  std::string error;
  ASSERT_TRUE(dynamic_index.SaveStatic(path, &error)) << error;
  auto static_index = ShardedIndex::Load(path, shard_options, &error);
  ASSERT_NE(static_index, nullptr) << error;
  ASSERT_TRUE(static_index->static_mode());
  EXPECT_EQ(static_index->num_shards(), num_shards);
  EXPECT_EQ(static_index->size(), dynamic_index.size());
  EXPECT_EQ(static_index->node_count(), dynamic_index.node_count());

  const std::vector<QueryRequest> batch = MixedBatch(80, 48);
  QueryExecutorOptions exec_options;
  exec_options.num_threads = 3;
  QueryExecutor executor(exec_options);
  // Shared bound off: every sub-query starts cold, so per-shard counters
  // are pure functions of the input and FULL results must match across
  // the two index flavors.
  QueryRouterOptions router_options;
  router_options.shared_knn_bound = false;
  QueryRouter dynamic_router(dynamic_index, &executor, router_options);
  QueryRouter static_router(*static_index, &executor, router_options);
  const std::vector<QueryResult> expected = dynamic_router.Run(batch);
  const std::vector<QueryResult> actual = static_router.Run(batch);
  ExpectIdenticalResults(expected, actual,
                         "shards=" + std::to_string(num_shards));

  // Values also match a single dynamic tree over the same data (the
  // router's own contract, now extended to the static flavor).
  SgTree single(TreeOptions());
  for (const Transaction& txn : dataset.transactions) single.Insert(txn);
  const std::vector<QueryResult> oracle =
      RunBatch(SgTreeBackend(single), batch);
  ASSERT_EQ(oracle.size(), actual.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(oracle[i].neighbors, actual[i].neighbors) << "query " << i;
    EXPECT_EQ(oracle[i].ids, actual[i].ids) << "query " << i;
    EXPECT_EQ(oracle[i].error, actual[i].error) << "query " << i;
  }

  std::remove(path.c_str());
  for (uint32_t s = 0; s < num_shards; ++s) {
    std::remove(ShardedIndex::ShardSnapshotPath(path, s).c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, StaticShardCountTest,
                         ::testing::Values(1u, 2u, 8u));

TEST(StaticShardedIndexTest, StaticModeIsImmutable) {
  const Dataset dataset = ClusteredDataset(81, 200, kBits, 6, 10, 2);
  ShardedIndexOptions shard_options;
  shard_options.num_shards = 2;
  shard_options.tree = TreeOptions();
  ShardedIndex dynamic_index(shard_options);
  dynamic_index.InsertBatch(dataset.transactions);

  const std::string path =
      ::testing::TempDir() + "/sgtree_static_immutable.idx";
  std::string error;
  ASSERT_TRUE(dynamic_index.SaveStatic(path, &error)) << error;
  auto loaded = ShardedIndex::Load(path, shard_options, &error);
  ASSERT_NE(loaded, nullptr) << error;
  ASSERT_TRUE(loaded->static_mode());

  Transaction txn;
  txn.tid = 999'999;
  txn.items = {1, 2, 3};
  EXPECT_FALSE(loaded->Insert(txn));
  EXPECT_FALSE(loaded->Erase(txn));
  EXPECT_EQ(loaded->InsertBatch({txn}), 0u);
  EXPECT_EQ(loaded->size(), dataset.transactions.size());  // Unchanged.
  EXPECT_FALSE(loaded->Save(path + ".resave", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(loaded->SaveStatic(path + ".resave", &error));

  std::remove(path.c_str());
  for (uint32_t s = 0; s < 2; ++s) {
    std::remove(ShardedIndex::ShardSnapshotPath(path, s).c_str());
  }
}

// ---------------------------------------------------------------------------
// Concurrency: many threads, one shared loaded tree (the TSAN target).
// ---------------------------------------------------------------------------

TEST(StaticStressTest, ManyThreadsOneSharedViewMatchSerial) {
  Fixture f(1000);
  const std::vector<QueryRequest> batch = MixedBatch(82, 60);
  const std::vector<QueryResult> expected =
      RunBatch(SgTreeBackend(*f.loaded), batch);

  constexpr int kThreads = 8;
  std::vector<std::vector<QueryResult>> per_thread(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Each thread its own results; the loaded tree is the only
        // shared state — read-only here, so no synchronization.
        per_thread[t] = RunBatch(SgTreeBackend(*f.loaded), batch);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    ExpectIdenticalResults(expected, per_thread[t],
                           "thread " + std::to_string(t));
  }
}

}  // namespace
}  // namespace sgtree
