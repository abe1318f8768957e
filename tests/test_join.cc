// Differential test suite for the collection-level join API: both join
// backends (tree-vs-tree, PRETTI) must produce the exact same containment
// pair set as a brute-force oracle on random and adversarial collections,
// and the sharded JoinRouter's merged answer must be byte-identical to a
// join over one unsharded index holding all the data, for both predicates
// — the same central promise the point-query router is tested under in
// test_shard.cc. The repeated sharded-join test is a ThreadSanitizer
// target (see the tsan CI job).

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/distance.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "exec/join_api.h"
#include "exec/query_executor.h"
#include "join/pretti_join.h"
#include "join/set_collection.h"
#include "join/tree_join.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"
#include "shard/join_router.h"
#include "shard/sharded_index.h"
#include "sgtree/join.h"
#include "sgtree/sg_tree.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace sgtree {
namespace {

constexpr uint32_t kBits = 120;

SgTreeOptions TreeOptions() {
  SgTreeOptions options;
  options.num_bits = kBits;
  options.max_entries = 8;
  return options;
}

std::unique_ptr<SgTree> BuildTree(const std::vector<Transaction>& txns,
                                  Metric metric = Metric::kHamming) {
  SgTreeOptions options = TreeOptions();
  options.metric = metric;
  auto tree = std::make_unique<SgTree>(options);
  for (const Transaction& txn : txns) tree->Insert(txn);
  return tree;
}

std::vector<ItemId> Normalized(const Transaction& txn) {
  std::vector<ItemId> items = txn.items;
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  return items;
}

// Brute-force containment oracle: r ⊆ s (the empty set is a subset of
// everything), distance = |s| - |r|, canonical (tid_a, tid_b) order.
std::vector<JoinPair> OracleContainment(const std::vector<Transaction>& r,
                                        const std::vector<Transaction>& s) {
  std::vector<JoinPair> pairs;
  for (const Transaction& tr : r) {
    const std::vector<ItemId> ri = Normalized(tr);
    for (const Transaction& ts : s) {
      const std::vector<ItemId> si = Normalized(ts);
      if (std::includes(si.begin(), si.end(), ri.begin(), ri.end())) {
        pairs.push_back({tr.tid, ts.tid,
                         static_cast<double>(si.size() - ri.size())});
      }
    }
  }
  std::sort(pairs.begin(), pairs.end(), CanonicalPairLess);
  return pairs;
}

// Brute-force similarity oracle over exact signatures — the same Distance()
// the tree join applies to leaf-entry pairs, so matching pairs carry
// bit-identical distances.
std::vector<JoinPair> OracleSimilarity(const std::vector<Transaction>& r,
                                       const std::vector<Transaction>& s,
                                       Metric metric, double epsilon) {
  std::vector<JoinPair> pairs;
  for (const Transaction& tr : r) {
    const Signature sr = Signature::FromItems(tr.items, kBits);
    for (const Transaction& ts : s) {
      const Signature ss = Signature::FromItems(ts.items, kBits);
      const double d = Distance(sr, ss, metric);
      if (d <= epsilon) pairs.push_back({tr.tid, ts.tid, d});
    }
  }
  std::sort(pairs.begin(), pairs.end(), CanonicalPairLess);
  return pairs;
}

// Both trees plus the derived PRETTI structures, with the lifetimes the
// backends require (collections outlive postings outlive backends).
struct JoinSides {
  std::unique_ptr<SgTree> r_tree;
  std::unique_ptr<SgTree> s_tree;
  SetCollection r_sets;
  SetCollection s_sets;
  std::unique_ptr<InvertedPostings> postings;

  explicit JoinSides(const std::vector<Transaction>& r,
                     const std::vector<Transaction>& s,
                     Metric metric = Metric::kHamming)
      : r_tree(BuildTree(r, metric)), s_tree(BuildTree(s, metric)) {
    r_sets = SetCollection::FromTree(*r_tree, {});
    s_sets = SetCollection::FromTree(*s_tree, {});
    postings = std::make_unique<InvertedPostings>(s_sets);
  }

  TreeJoinBackend Tree() const { return {*r_tree, *s_tree}; }
  PrettiJoinBackend Pretti() const { return {r_sets, *postings}; }
};

// Runs the containment join with both backends and asserts each equals the
// brute-force oracle exactly (pairs, distances, and order).
void ExpectAllBackendsMatchOracle(const std::vector<Transaction>& r,
                                  const std::vector<Transaction>& s) {
  const std::vector<JoinPair> oracle = OracleContainment(r, s);
  const JoinSides sides(r, s);
  const JoinRequest request{JoinType::kContainment, Metric::kHamming, 0.0};

  std::vector<JoinPair> tree_pairs;
  const JoinResult tree_result =
      CollectJoin(sides.Tree(), request, &tree_pairs);
  ASSERT_TRUE(tree_result.ok()) << tree_result.error;
  EXPECT_EQ(tree_pairs, oracle) << "tree join diverged from the oracle";
  EXPECT_EQ(tree_result.pairs, oracle.size());

  std::vector<JoinPair> pretti_pairs;
  const JoinResult pretti_result =
      CollectJoin(sides.Pretti(), request, &pretti_pairs);
  ASSERT_TRUE(pretti_result.ok()) << pretti_result.error;
  EXPECT_EQ(pretti_pairs, oracle) << "pretti join diverged from the oracle";
  EXPECT_EQ(pretti_result.pairs, oracle.size());
}

// Random sets with the given item skew; tids offset per side so the two
// collections never share a tid.
std::vector<Transaction> UniformSets(uint64_t seed, uint32_t n,
                                     uint64_t base_tid, uint32_t num_items,
                                     uint32_t max_size) {
  Rng rng(seed);
  std::vector<Transaction> txns;
  txns.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Transaction txn;
    txn.tid = base_tid + i;
    const auto size = 1 + static_cast<uint32_t>(rng.UniformInt(max_size));
    txn.items = testing::RandomItems(rng, num_items, size);
    txns.push_back(std::move(txn));
  }
  return txns;
}

std::vector<Transaction> ZipfSets(uint64_t seed, uint32_t n,
                                  uint64_t base_tid, double theta) {
  Rng rng(seed);
  const ZipfSampler zipf(kBits, theta);
  std::vector<Transaction> txns;
  txns.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Transaction txn;
    txn.tid = base_tid + i;
    const auto size = 1 + static_cast<uint32_t>(rng.UniformInt(6));
    while (txn.items.size() < size) {
      const auto item = static_cast<ItemId>(zipf.Sample(rng));
      if (std::find(txn.items.begin(), txn.items.end(), item) ==
          txn.items.end()) {
        txn.items.push_back(item);
      }
    }
    std::sort(txn.items.begin(), txn.items.end());
    txns.push_back(std::move(txn));
  }
  return txns;
}

// ---------------------------------------------------------------------------
// Validation and support checking.

TEST(JoinValidationTest, ContainmentNeedsNoParameters) {
  EXPECT_EQ(ValidateJoinRequest({JoinType::kContainment, Metric::kHamming,
                                 -123.0}),
            "");
}

TEST(JoinValidationTest, MessagesNameTheOffendingValue) {
  EXPECT_EQ(ValidateJoinRequest({JoinType::kSimilarity, Metric::kJaccard, 0.0}),
            "threshold must be in (0,1] for jaccard similarity joins, got 0");
  EXPECT_EQ(ValidateJoinRequest({JoinType::kSimilarity, Metric::kDice, 1.5}),
            "threshold must be in (0,1] for dice similarity joins, got 1.5");
  EXPECT_EQ(
      ValidateJoinRequest({JoinType::kSimilarity, Metric::kHamming, -1.0}),
      "threshold must be a finite distance >= 0 for hamming similarity "
      "joins, got -1");
  EXPECT_EQ(ValidateJoinRequest(
                {JoinType::kSimilarity, Metric::kCosine,
                 std::numeric_limits<double>::quiet_NaN()}),
            "threshold must be a number for similarity joins, got NaN");
}

TEST(JoinValidationTest, ExecuteJoinSurfacesValidationWithoutRunning) {
  const JoinSides sides(UniformSets(1, 20, 100, 40, 4),
                        UniformSets(2, 20, 500, 40, 6));
  std::vector<JoinPair> pairs;
  const JoinResult result = CollectJoin(
      sides.Tree(), {JoinType::kSimilarity, Metric::kJaccard, 0.0}, &pairs);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error,
            "threshold must be in (0,1] for jaccard similarity joins, got 0");
  EXPECT_EQ(result.pairs, 0u);
  EXPECT_TRUE(pairs.empty());
}

TEST(JoinSupportTest, PrettiAndFvtRefuseSimilarity) {
  const JoinSides sides(UniformSets(3, 10, 100, 40, 4),
                        UniformSets(4, 10, 500, 40, 6));
  const JoinRequest similar{JoinType::kSimilarity, Metric::kHamming, 4.0};
  EXPECT_EQ(sides.Pretti().SupportReason(similar),
            "pretti is a containment-only join; use the tree backend for "
            "similarity joins");
  EXPECT_EQ(sides.Tree().SupportReason(similar), "");

  // The tree backend serves the trees' build-time metric only.
  const JoinRequest jaccard{JoinType::kSimilarity, Metric::kJaccard, 0.5};
  EXPECT_EQ(sides.Tree().SupportReason(jaccard),
            "tree join runs the trees' build-time metric (hamming), got "
            "jaccard");

  std::vector<JoinPair> pairs;
  const JoinResult result = CollectJoin(sides.Pretti(), similar, &pairs);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error,
            "pretti is a containment-only join; use the tree backend for "
            "similarity joins");
  EXPECT_EQ(result.backend, "") << "a refused join runs no backend";
  EXPECT_TRUE(pairs.empty());
}

// ---------------------------------------------------------------------------
// Golden fixture: a small join whose full answer, including the empty-set
// row and the canonical order, is pinned by hand.

TEST(GoldenJoinTest, SmallFixturePinsPairsAndCanonicalOrder) {
  const std::vector<Transaction> r = {
      {1, {1}}, {2, {1, 2}}, {3, {}}, {4, {5}}};
  const std::vector<Transaction> s = {
      {10, {1, 2, 3}}, {11, {1}}, {12, {2, 5}}};
  const std::vector<JoinPair> expected = {
      {1, 10, 2}, {1, 11, 0}, {2, 10, 1}, {3, 10, 3},
      {3, 11, 1}, {3, 12, 2}, {4, 12, 1}};
  ASSERT_EQ(OracleContainment(r, s), expected);
  ExpectAllBackendsMatchOracle(r, s);
}

// ---------------------------------------------------------------------------
// Differential containment joins: tree == pretti == oracle.

TEST(DifferentialJoinTest, ClusteredCollections) {
  const Dataset left = testing::ClusteredDataset(11, 160, kBits, 5, 10, 3);
  const Dataset right = testing::ClusteredDataset(12, 140, kBits, 5, 14, 3);
  std::vector<Transaction> r = left.transactions;
  std::vector<Transaction> s = right.transactions;
  for (Transaction& txn : r) txn.tid += 1000;
  for (Transaction& txn : s) txn.tid += 5000;
  ExpectAllBackendsMatchOracle(r, s);
}

TEST(DifferentialJoinTest, ZipfSkewedCollections) {
  ExpectAllBackendsMatchOracle(ZipfSets(21, 200, 1000, 0.9),
                               ZipfSets(22, 200, 5000, 0.9));
}

TEST(DifferentialJoinTest, DuplicateHeavyCollections) {
  // Ten distinct sets spread over 120 rows per side: identical R sets must
  // share one trie path / one probe, and every duplicate must still emit.
  Rng rng(31);
  std::vector<std::vector<ItemId>> pool;
  for (int i = 0; i < 10; ++i) {
    pool.push_back(testing::RandomItems(rng, 25, 1 + (i % 5)));
  }
  std::vector<Transaction> r, s;
  for (uint32_t i = 0; i < 120; ++i) {
    r.push_back({1000 + i, pool[rng.UniformInt(pool.size())]});
    s.push_back({5000 + i, pool[rng.UniformInt(pool.size())]});
  }
  ExpectAllBackendsMatchOracle(r, s);
}

TEST(DifferentialJoinTest, EmptySetsOnBothSides) {
  // The empty set is a subset of everything (and only a superset of other
  // empty sets); every backend must agree on those pairs.
  Rng rng(41);
  std::vector<Transaction> r, s;
  for (uint32_t i = 0; i < 60; ++i) {
    Transaction tr{1000 + i, {}};
    Transaction ts{5000 + i, {}};
    if (i % 7 != 0) {
      tr.items = testing::RandomItems(
          rng, 30, 1 + static_cast<uint32_t>(rng.UniformInt(4)));
      ts.items = testing::RandomItems(
          rng, 30, 1 + static_cast<uint32_t>(rng.UniformInt(4)));
    }
    r.push_back(std::move(tr));
    s.push_back(std::move(ts));
  }
  ExpectAllBackendsMatchOracle(r, s);
}

TEST(DifferentialJoinTest, EmptyCollections) {
  const std::vector<Transaction> some = UniformSets(51, 30, 1000, 40, 5);
  ExpectAllBackendsMatchOracle({}, some);
  ExpectAllBackendsMatchOracle(some, {});
  ExpectAllBackendsMatchOracle({}, {});
}

// ---------------------------------------------------------------------------
// Similarity joins (tree backend only).

TEST(SimilarityJoinTest, TreeMatchesBruteForceHamming) {
  const std::vector<Transaction> r = UniformSets(61, 80, 1000, 40, 6);
  const std::vector<Transaction> s = UniformSets(62, 80, 5000, 40, 6);
  const JoinSides sides(r, s);
  const JoinRequest request{JoinType::kSimilarity, Metric::kHamming, 4.0};
  std::vector<JoinPair> pairs;
  const JoinResult result = CollectJoin(sides.Tree(), request, &pairs);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(pairs, OracleSimilarity(r, s, Metric::kHamming, 4.0));
}

TEST(SimilarityJoinTest, TreeMatchesBruteForceJaccard) {
  const std::vector<Transaction> r = UniformSets(63, 80, 1000, 30, 6);
  const std::vector<Transaction> s = UniformSets(64, 80, 5000, 30, 6);
  // The tree join serves the trees' build-time metric, so the jaccard join
  // needs jaccard trees (a hamming tree refuses with a one-line reason).
  const JoinSides sides(r, s, Metric::kJaccard);
  // Threshold is the minimum similarity; the join runs at epsilon = 1 - t.
  const JoinRequest request{JoinType::kSimilarity, Metric::kJaccard, 0.5};
  std::vector<JoinPair> pairs;
  const JoinResult result = CollectJoin(sides.Tree(), request, &pairs);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(pairs, OracleSimilarity(r, s, Metric::kJaccard, 0.5));
}

// ---------------------------------------------------------------------------
// Streaming semantics: cancellation and trace consistency.

TEST(JoinSinkTest, LimitSinkCancelsEveryBackend) {
  const std::vector<Transaction> r = ZipfSets(71, 100, 1000, 0.9);
  const std::vector<Transaction> s = ZipfSets(72, 100, 5000, 0.9);
  const JoinSides sides(r, s);
  const JoinRequest request{JoinType::kContainment, Metric::kHamming, 0.0};
  const size_t total = OracleContainment(r, s).size();
  ASSERT_GT(total, 5u) << "fixture too sparse to test truncation";

  const TreeJoinBackend tree = sides.Tree();
  const PrettiJoinBackend pretti = sides.Pretti();
  for (const JoinBackend* backend :
       {static_cast<const JoinBackend*>(&tree),
        static_cast<const JoinBackend*>(&pretti)}) {
    std::vector<JoinPair> pairs;
    LimitJoinSink sink(&pairs, 5);
    const JoinResult result = ExecuteJoin(*backend, request, &sink);
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_TRUE(result.truncated) << backend->name();
    EXPECT_EQ(pairs.size(), 5u) << backend->name();
    EXPECT_EQ(result.pairs, 5u) << backend->name();
  }
}

TEST(JoinTraceTest, TracesAreSelfConsistent) {
  const JoinSides sides(ZipfSets(81, 120, 1000, 0.8),
                        ZipfSets(82, 120, 5000, 0.8));
  const JoinRequest request{JoinType::kContainment, Metric::kHamming, 0.0};

  std::vector<JoinPair> pairs;
  const JoinResult tree_result = CollectJoin(sides.Tree(), request, &pairs);
  ASSERT_TRUE(tree_result.ok());
  EXPECT_EQ(CheckTraceInvariants(
                tree_result.trace,
                {.pooled = true, .strict_pruning = false, .predicate = true}),
            "");
  EXPECT_GT(tree_result.trace.nodes_visited(), 0u);

  const JoinResult result = CollectJoin(sides.Pretti(), request, &pairs);
  ASSERT_TRUE(result.ok());
  // The trie walk has no buffer pool; only the relaxed invariants apply.
  EXPECT_EQ(CheckTraceInvariants(
                result.trace,
                {.pooled = false, .strict_pruning = false, .predicate = false}),
            "");
  EXPECT_GT(result.trace.nodes_visited(), 0u);
}

// The tree join sizes each side's per-run pool from that tree's
// buffer_pages: its pairs and trace are those of the traversal run over
// two caller-owned pools of that many frames.
TEST(JoinTraceTest, TreeJoinPoolsTakeTheTreesBufferPages) {
  constexpr uint32_t kFrames = 16;
  SgTreeOptions options = TreeOptions();
  options.buffer_pages = kFrames;
  SgTree r_tree(options);
  SgTree s_tree(options);
  for (const Transaction& txn : UniformSets(83, 200, 1000, 40, 6)) {
    r_tree.Insert(txn);
  }
  for (const Transaction& txn : UniformSets(84, 200, 5000, 40, 6)) {
    s_tree.Insert(txn);
  }
  ASSERT_GT(r_tree.node_count(), kFrames);
  ASSERT_GT(s_tree.node_count(), kFrames);
  const JoinRequest request{JoinType::kSimilarity, Metric::kHamming, 4.0};

  std::vector<JoinPair> pairs;
  const JoinResult result =
      CollectJoin(TreeJoinBackend(r_tree, s_tree), request, &pairs);
  ASSERT_TRUE(result.ok()) << result.error;

  // Reads through pools of `frames` frames each, into `*trace`.
  auto traverse = [&](uint32_t frames, QueryTrace* trace) {
    BufferPool pool_r(frames);
    BufferPool pool_s(frames);
    std::vector<JoinPair> out;
    VectorJoinSink sink(&out);
    EXPECT_TRUE(SimilarityJoinInto(r_tree, s_tree, JoinDistanceBound(request),
                                   {&pool_r, trace}, {&pool_s, trace},
                                   &sink));
    std::sort(out.begin(), out.end(), CanonicalPairLess);
    return out;
  };
  QueryTrace trace;
  EXPECT_EQ(pairs, traverse(kFrames, &trace));
  EXPECT_EQ(result.trace, trace);
  // The frame count shows in the trace: pools that hold every node miss
  // less often.
  QueryTrace unbounded;
  traverse(static_cast<uint32_t>(r_tree.node_count() + s_tree.node_count()),
           &unbounded);
  EXPECT_LT(unbounded.buffer_misses, trace.buffer_misses);
}

// ---------------------------------------------------------------------------
// Sharded joins: the router's merged answer is byte-identical to one
// unsharded index, for both predicates and every shard count.

ShardedIndexOptions ShardOptions(uint32_t num_shards) {
  ShardedIndexOptions options;
  options.num_shards = num_shards;
  options.tree = TreeOptions();
  return options;
}

// The predicate picks the algorithm: containment runs PRETTI, similarity
// the tree join, so each request below pins one backend of the rule.
const JoinRequest kContain{JoinType::kContainment, Metric::kHamming, 0.0};
const JoinRequest kSimilar{JoinType::kSimilarity, Metric::kHamming, 3.0};

TEST(ShardedJoinTest, ByteIdenticalToSingleIndexForEveryAlgorithm) {
  const std::vector<Transaction> r = ZipfSets(91, 150, 1000, 0.9);
  const std::vector<Transaction> s = ZipfSets(92, 150, 5000, 0.9);

  // Single-index oracles: one tree per side over all the data.
  const JoinSides single(r, s);
  std::vector<JoinPair> contain_oracle;
  std::vector<JoinPair> similar_oracle;
  ASSERT_TRUE(CollectJoin(single.Tree(), kContain, &contain_oracle).ok());
  ASSERT_TRUE(CollectJoin(single.Tree(), kSimilar, &similar_oracle).ok());
  ASSERT_EQ(contain_oracle, OracleContainment(r, s));
  ASSERT_EQ(similar_oracle, OracleSimilarity(r, s, Metric::kHamming, 3.0));
  ASSERT_FALSE(similar_oracle.empty()) << "fixture too sparse";

  QueryExecutor executor;
  for (const uint32_t left_shards : {1u, 2u, 8u}) {
    for (const uint32_t right_shards : {1u, 3u}) {
      ShardedIndex left(ShardOptions(left_shards));
      ShardedIndex right(ShardOptions(right_shards));
      ASSERT_EQ(left.InsertBatch(r), r.size());
      ASSERT_EQ(right.InsertBatch(s), s.size());
      JoinRouter router(left, right, &executor);
      for (const auto& [request, oracle] :
           {std::pair{kContain, &contain_oracle},
            std::pair{kSimilar, &similar_oracle}}) {
        std::vector<JoinPair> pairs;
        const JoinResult result = router.Run(request, &pairs);
        ASSERT_TRUE(result.ok()) << result.error;
        EXPECT_EQ(pairs, *oracle)
            << result.backend << " over " << left_shards << "x"
            << right_shards << " shards diverged from the single index";
        EXPECT_EQ(result.pairs, oracle->size());
      }
    }
  }
}

TEST(ShardedJoinTest, RouterFeedsJoinMetrics) {
  const std::vector<Transaction> r = UniformSets(95, 60, 1000, 40, 5);
  const std::vector<Transaction> s = UniformSets(96, 60, 5000, 40, 5);
  ShardedIndex left(ShardOptions(2));
  ShardedIndex right(ShardOptions(3));
  ASSERT_EQ(left.InsertBatch(r), r.size());
  ASSERT_EQ(right.InsertBatch(s), s.size());

  QueryExecutor executor;
  obs::MetricsRegistry metrics;
  JoinRouterOptions options;
  options.metrics = &metrics;
  JoinRouter router(left, right, &executor, options);

  std::vector<JoinPair> pairs;
  const JoinResult result = router.Run(kContain, &pairs);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(metrics.GetCounter("join.requests")->Value(), 1u);
  EXPECT_EQ(metrics.GetCounter("join.rejected")->Value(), 0u);
  EXPECT_EQ(metrics.GetCounter("join.pairs")->Value(), result.pairs);
  EXPECT_EQ(metrics.GetCounter("join.fanout_tasks")->Value(), 2u * 3u);
  EXPECT_EQ(metrics.GetHistogram("join.latency_us")->Count(), 1u);

  // A malformed request is rejected at the API boundary and counted.
  const JoinResult rejected =
      router.Run({JoinType::kSimilarity, Metric::kJaccard, 0.0}, &pairs);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error,
            "threshold must be in (0,1] for jaccard similarity joins, got 0");
  EXPECT_EQ(metrics.GetCounter("join.requests")->Value(), 2u);
  EXPECT_EQ(metrics.GetCounter("join.rejected")->Value(), 1u);
}

// One router answers both predicates, each with the algorithm the rule
// picks: similarity through the tree join, containment through PRETTI.
TEST(ShardedJoinTest, SimilarityRunsShardedThroughTreeAlgo) {
  const std::vector<Transaction> r = UniformSets(97, 70, 1000, 40, 6);
  const std::vector<Transaction> s = UniformSets(98, 70, 5000, 40, 6);
  ShardedIndex left(ShardOptions(4));
  ShardedIndex right(ShardOptions(2));
  ASSERT_EQ(left.InsertBatch(r), r.size());
  ASSERT_EQ(right.InsertBatch(s), s.size());

  QueryExecutor executor;
  JoinRouter router(left, right, &executor);
  const JoinRequest similar{JoinType::kSimilarity, Metric::kHamming, 5.0};
  std::vector<JoinPair> pairs;
  const JoinResult result = router.Run(similar, &pairs);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.backend, "tree");
  EXPECT_EQ(pairs, OracleSimilarity(r, s, Metric::kHamming, 5.0));

  const JoinResult contained = router.Run(kContain, &pairs);
  ASSERT_TRUE(contained.ok()) << contained.error;
  EXPECT_EQ(contained.backend, "pretti");
  EXPECT_EQ(pairs, OracleContainment(r, s));
}

// Multi-threaded scatter-gather determinism: repeated sharded joins over a
// multi-lane executor must return the identical canonical vector every
// time, for both predicates. This is the join suite's ThreadSanitizer
// entry point.
TEST(ShardedJoinStressTest, RepeatedShardedJoinsAreDeterministic) {
  const std::vector<Transaction> r = ZipfSets(101, 180, 1000, 0.9);
  const std::vector<Transaction> s = ZipfSets(102, 180, 5000, 0.9);
  ShardedIndex left(ShardOptions(8));
  ShardedIndex right(ShardOptions(4));
  ASSERT_EQ(left.InsertBatch(r), r.size());
  ASSERT_EQ(right.InsertBatch(s), s.size());

  QueryExecutorOptions exec_options;
  exec_options.num_threads = 4;
  QueryExecutor executor(exec_options);
  JoinRouter router(left, right, &executor);
  const std::vector<JoinPair> contain_oracle = OracleContainment(r, s);
  const std::vector<JoinPair> similar_oracle =
      OracleSimilarity(r, s, Metric::kHamming, 3.0);

  for (const auto& [request, oracle] :
       {std::pair{kContain, &contain_oracle},
        std::pair{kSimilar, &similar_oracle}}) {
    for (int round = 0; round < 3; ++round) {
      std::vector<JoinPair> pairs;
      const JoinResult result = router.Run(request, &pairs);
      ASSERT_TRUE(result.ok()) << result.error;
      ASSERT_EQ(pairs, *oracle)
          << result.backend << " round " << round << " diverged";
    }
  }
}

}  // namespace
}  // namespace sgtree
