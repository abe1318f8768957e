// Tests for the extension features: cosine metric, incremental NN
// iteration / all-ties NN, and the alternative bulk-load orders.

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/linear_scan.h"
#include "common/rng.h"
#include "data/quest_generator.h"
#include "sgtree/bulk_load.h"
#include "sgtree/incremental.h"
#include "sgtree/invariant_auditor.h"
#include "sgtree/search.h"
#include "tests/test_util.h"

namespace sgtree {
namespace {

using ::sgtree::testing::ClusteredDataset;
using ::sgtree::testing::RandomSignature;

SgTreeOptions SmallOptions(uint32_t num_bits = 200) {
  SgTreeOptions options;
  options.num_bits = num_bits;
  options.max_entries = 10;
  return options;
}

// ---------------------------------------------------------------------------
// Cosine metric.
// ---------------------------------------------------------------------------

TEST(CosineTest, BasicValues) {
  const auto a = Signature::FromItems(std::vector<uint32_t>{0, 1, 2, 3}, 32);
  const auto b = Signature::FromItems(std::vector<uint32_t>{2, 3, 4, 5}, 32);
  // |AND| = 2, sqrt(4*4) = 4.
  EXPECT_DOUBLE_EQ(Distance(a, b, Metric::kCosine), 0.5);
  EXPECT_DOUBLE_EQ(Distance(a, a, Metric::kCosine), 0.0);
  const Signature empty(32);
  EXPECT_DOUBLE_EQ(Distance(a, empty, Metric::kCosine), 1.0);
  EXPECT_DOUBLE_EQ(Distance(empty, empty, Metric::kCosine), 0.0);
}

TEST(CosineTest, BoundIsSound) {
  Rng rng(301);
  for (int trial = 0; trial < 200; ++trial) {
    Signature cover(200);
    std::vector<Signature> members;
    for (int g = 0; g < 5; ++g) {
      Signature t = RandomSignature(rng, 200, 0.06);
      if (t.Empty()) t.Set(static_cast<uint32_t>(rng.UniformInt(200)));
      cover.UnionWith(t);
      members.push_back(std::move(t));
    }
    const Signature query = RandomSignature(rng, 200, 0.06);
    const double bound = MinDistBound(query, cover, Metric::kCosine);
    for (const Signature& t : members) {
      EXPECT_LE(bound, Distance(query, t, Metric::kCosine) + 1e-12);
    }
  }
}

TEST(CosineTest, TreeSearchExact) {
  const Dataset dataset = ClusteredDataset(302, 900, 200, 8, 10, 3);
  SgTreeOptions options = SmallOptions();
  options.metric = Metric::kCosine;
  SgTree tree(options);
  for (const Transaction& txn : dataset.transactions) tree.Insert(txn);
  LinearScan scan(dataset);
  Rng rng(303);
  for (int q = 0; q < 25; ++q) {
    Signature query = RandomSignature(rng, 200, 0.05);
    if (query.Empty()) query.Set(1);
    EXPECT_DOUBLE_EQ(
        DfsNearest(tree, query, tree.OwnPoolContext()).distance,
                     scan.Nearest(query, Metric::kCosine).distance);
    const auto knn = DfsKNearest(tree, query, 7, tree.OwnPoolContext());
    const auto expected = scan.KNearest(query, 7, Metric::kCosine);
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_DOUBLE_EQ(knn[i].distance, expected[i].distance);
    }
  }
}

// ---------------------------------------------------------------------------
// Incremental NN iteration.
// ---------------------------------------------------------------------------

struct IteratorFixture {
  Dataset dataset;
  std::unique_ptr<SgTree> tree;
  std::unique_ptr<LinearScan> scan;
};

IteratorFixture MakeIteratorFixture(uint64_t seed) {
  IteratorFixture f;
  f.dataset = ClusteredDataset(seed, 800, 200, 8, 10, 3);
  f.tree = std::make_unique<SgTree>(SmallOptions());
  for (const Transaction& txn : f.dataset.transactions) f.tree->Insert(txn);
  f.scan = std::make_unique<LinearScan>(f.dataset);
  return f;
}

TEST(NearestIteratorTest, YieldsAscendingDistances) {
  const IteratorFixture f = MakeIteratorFixture(310);
  Rng rng(311);
  const Signature query = RandomSignature(rng, 200, 0.05);
  NearestIterator it(*f.tree, query);
  double previous = -1;
  int count = 0;
  while (auto n = it.Next()) {
    EXPECT_GE(n->distance, previous);
    previous = n->distance;
    ++count;
  }
  EXPECT_EQ(count, 800);
}

TEST(NearestIteratorTest, PrefixMatchesKNearest) {
  const IteratorFixture f = MakeIteratorFixture(312);
  Rng rng(313);
  for (int trial = 0; trial < 10; ++trial) {
    const Signature query = RandomSignature(rng, 200, 0.05);
    const auto expected = f.scan->KNearest(query, 15);
    NearestIterator it(*f.tree, query);
    for (size_t i = 0; i < expected.size(); ++i) {
      const auto n = it.Next();
      ASSERT_TRUE(n.has_value());
      EXPECT_DOUBLE_EQ(n->distance, expected[i].distance) << "i=" << i;
      EXPECT_EQ(n->tid, expected[i].tid) << "i=" << i;  // Tid tie order.
    }
  }
}

TEST(NearestIteratorTest, PeekDoesNotAdvance) {
  const IteratorFixture f = MakeIteratorFixture(314);
  Rng rng(315);
  const Signature query = RandomSignature(rng, 200, 0.05);
  NearestIterator it(*f.tree, query);
  const double peeked = it.PeekDistance();
  EXPECT_DOUBLE_EQ(it.PeekDistance(), peeked);
  const auto n = it.Next();
  ASSERT_TRUE(n.has_value());
  EXPECT_DOUBLE_EQ(n->distance, peeked);
}

TEST(NearestIteratorTest, EarlyStopTouchesFewNodes) {
  const IteratorFixture f = MakeIteratorFixture(316);
  // Query = an existing transaction: the first neighbor is distance 0.
  const Signature query =
      Signature::FromItems(f.dataset.transactions[100].items, 200);
  QueryTrace trace;
  NearestIterator it(*f.tree, query, QueryContext{nullptr, &trace});
  ASSERT_TRUE(it.Next().has_value());
  // Fetching one neighbor must not traverse the whole tree.
  EXPECT_LT(trace.nodes_visited(), f.tree->node_count() / 2);
}

TEST(NearestIteratorTest, EmptyTree) {
  SgTree tree(SmallOptions());
  NearestIterator it(tree, Signature(200));
  EXPECT_TRUE(std::isinf(it.PeekDistance()));
  EXPECT_FALSE(it.Next().has_value());
}

TEST(AllNearestTest, ReturnsExactlyTheTies) {
  SgTree tree(SmallOptions(64));
  // Three transactions at distance 1 from the query, others farther.
  const auto query = Signature::FromItems(std::vector<uint32_t>{1, 2, 3}, 64);
  tree.Insert(Signature::FromItems(std::vector<uint32_t>{1, 2}, 64), 10);
  tree.Insert(Signature::FromItems(std::vector<uint32_t>{2, 3}, 64), 11);
  tree.Insert(Signature::FromItems(std::vector<uint32_t>{1, 2, 3, 4}, 64),
              12);
  tree.Insert(Signature::FromItems(std::vector<uint32_t>{5, 6, 7}, 64), 13);
  tree.Insert(Signature::FromItems(std::vector<uint32_t>{1}, 64), 14);
  const auto ties = AllNearest(tree, query);
  ASSERT_EQ(ties.size(), 3u);
  EXPECT_EQ(ties[0].tid, 10u);
  EXPECT_EQ(ties[1].tid, 11u);
  EXPECT_EQ(ties[2].tid, 12u);
  for (const Neighbor& n : ties) EXPECT_DOUBLE_EQ(n.distance, 1.0);
}

TEST(AllNearestTest, MatchesScanTieCount) {
  const IteratorFixture f = MakeIteratorFixture(317);
  Rng rng(318);
  for (int trial = 0; trial < 20; ++trial) {
    const Signature query = RandomSignature(rng, 200, 0.05);
    const auto ties = AllNearest(*f.tree, query);
    ASSERT_FALSE(ties.empty());
    const double best = f.scan->Nearest(query).distance;
    size_t expected = 0;
    for (const auto& n : f.scan->KNearest(query, 800)) {
      if (n.distance == best) ++expected;
    }
    EXPECT_EQ(ties.size(), expected);
    for (const Neighbor& n : ties) EXPECT_DOUBLE_EQ(n.distance, best);
  }
}

// ---------------------------------------------------------------------------
// Bulk-load orders.
// ---------------------------------------------------------------------------

class BulkOrderTest : public ::testing::TestWithParam<BulkLoadOrder> {};

TEST_P(BulkOrderTest, InvariantsAndExactness) {
  const Dataset dataset = ClusteredDataset(330, 1200, 200, 8, 12, 3);
  BulkLoadOptions bulk;
  bulk.order = GetParam();
  auto tree = BulkLoad(dataset, SmallOptions(), bulk);
  EXPECT_EQ(tree->size(), dataset.size());
  const AuditReport report = AuditTree(*tree);
  ASSERT_TRUE(report.ok()) << report.FirstMessage();
  EXPECT_GT(report.stats.avg_utilization, 0.8);

  LinearScan scan(dataset);
  Rng rng(331);
  for (int q = 0; q < 15; ++q) {
    Signature query = RandomSignature(rng, 200, 0.05);
    if (query.Empty()) query.Set(0);
    EXPECT_DOUBLE_EQ(
        DfsNearest(*tree, query, tree->OwnPoolContext()).distance,
                     scan.Nearest(query).distance);
  }
}

TEST_P(BulkOrderTest, OrderingActuallyClusters) {
  // Every ordering must beat a random shuffle on leaf-level entry area.
  const Dataset dataset = ClusteredDataset(332, 1500, 300, 6, 14, 2);
  BulkLoadOptions bulk;
  bulk.order = GetParam();
  auto tree = BulkLoad(dataset, SmallOptions(300), bulk);
  const AuditReport report = AuditTree(*tree);
  ASSERT_TRUE(report.ok());

  // Shuffled baseline: pack entries in tid order scrambled by a fixed RNG.
  std::vector<Entry> shuffled;
  for (const Transaction& txn : dataset.transactions) {
    shuffled.push_back(Entry{Signature::FromItems(txn.items, 300), txn.tid});
  }
  Rng rng(333);
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.UniformInt(i)]);
  }
  // Pack without sorting by building with gray order on a pre-shuffled
  // input is not possible through the public API, so compute the shuffled
  // leaf areas directly.
  const uint32_t leaf_size = 9;  // 0.9 * 10.
  double shuffled_area_sum = 0;
  uint32_t shuffled_leaves = 0;
  for (size_t i = 0; i < shuffled.size(); i += leaf_size) {
    Signature cover(300);
    for (size_t j = i; j < std::min(shuffled.size(), i + leaf_size); ++j) {
      cover.UnionWith(shuffled[j].sig);
    }
    shuffled_area_sum += cover.Area();
    ++shuffled_leaves;
  }
  const double shuffled_avg = shuffled_area_sum / shuffled_leaves;
  ASSERT_GE(report.stats.avg_entry_area.size(), 2u);
  EXPECT_LT(report.stats.avg_entry_area[1], shuffled_avg * 0.8)
      << BulkLoadOrderName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllOrders, BulkOrderTest,
                         ::testing::Values(BulkLoadOrder::kGrayCode,
                                           BulkLoadOrder::kClusterPartition,
                                           BulkLoadOrder::kMinHash),
                         [](const auto& info) {
                           std::string name = BulkLoadOrderName(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace sgtree
