#include "sgtree/bulk_load.h"

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/linear_scan.h"
#include "common/rng.h"
#include "sgtree/clustering.h"
#include "sgtree/invariant_auditor.h"
#include "sgtree/join.h"
#include "sgtree/search.h"
#include "tests/test_util.h"

namespace sgtree {
namespace {

using ::sgtree::testing::ClusteredDataset;

SgTreeOptions SmallOptions(uint32_t num_bits = 200) {
  SgTreeOptions options;
  options.num_bits = num_bits;
  options.max_entries = 10;
  return options;
}

// ---------------------------------------------------------------------------
// Gray-code bulk loading.
// ---------------------------------------------------------------------------

TEST(BulkLoadTest, EmptyDataset) {
  Dataset dataset;
  dataset.num_items = 200;
  auto tree = BulkLoad(dataset, SmallOptions());
  EXPECT_TRUE(tree->empty());
  EXPECT_TRUE(AuditTree(*tree).ok());
}

TEST(BulkLoadTest, SingleTransaction) {
  Dataset dataset;
  dataset.num_items = 200;
  dataset.transactions.push_back({5, {1, 2, 3}});
  auto tree = BulkLoad(dataset, SmallOptions());
  EXPECT_EQ(tree->size(), 1u);
  EXPECT_EQ(tree->height(), 1u);
  EXPECT_TRUE(AuditTree(*tree).ok());
}

class BulkSizeTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BulkSizeTest, InvariantsHoldAcrossSizes) {
  const Dataset dataset = ClusteredDataset(20, GetParam(), 200, 8, 10, 2);
  auto tree = BulkLoad(dataset, SmallOptions());
  EXPECT_EQ(tree->size(), GetParam());
  const AuditReport report = AuditTree(*tree);
  EXPECT_TRUE(report.ok()) << report.FirstMessage();
}

INSTANTIATE_TEST_SUITE_P(Sizes, BulkSizeTest,
                         ::testing::Values(2u, 9u, 10u, 11u, 99u, 100u, 101u,
                                           500u, 1234u));

TEST(BulkLoadTest, SearchResultsMatchLinearScan) {
  const Dataset dataset = ClusteredDataset(21, 800, 200, 8, 12, 3);
  auto tree = BulkLoad(dataset, SmallOptions());
  LinearScan scan(dataset);
  Rng rng(22);
  for (int q = 0; q < 25; ++q) {
    Signature query = testing::RandomSignature(rng, 200, 0.06);
    if (query.Empty()) query.Set(0);
    EXPECT_DOUBLE_EQ(DfsNearest(*tree, query).distance,
                     scan.Nearest(query).distance);
    const auto range_tree = RangeSearch(*tree, query, 6.0);
    const auto range_scan = scan.Range(query, 6.0);
    ASSERT_EQ(range_tree.size(), range_scan.size());
  }
}

TEST(BulkLoadTest, PackedTreeIsDenserThanIncremental) {
  const Dataset dataset = ClusteredDataset(23, 1000, 200, 8, 12, 3);
  auto packed = BulkLoad(dataset, SmallOptions());
  SgTree incremental(SmallOptions());
  for (const Transaction& txn : dataset.transactions) {
    incremental.Insert(txn);
  }
  EXPECT_LT(packed->node_count(), incremental.node_count());
  const AuditReport packed_report = AuditTree(*packed);
  ASSERT_TRUE(packed_report.ok());
  EXPECT_GT(packed_report.stats.avg_utilization, 0.8);  // 0.9 fill requested.
}

TEST(BulkLoadTest, GrayOrderClustersLeaves) {
  // Bulk loading by Gray order must produce leaf-covering entries whose
  // area is not wildly larger than the incremental tree's — i.e. real
  // clustering, not arbitrary packing. Allow generous slack; the key check
  // is that it is far below the dictionary size.
  const Dataset dataset = ClusteredDataset(24, 1500, 200, 6, 12, 2);
  auto packed = BulkLoad(dataset, SmallOptions());
  const AuditReport report = AuditTree(*packed);
  ASSERT_TRUE(report.ok());
  ASSERT_GE(report.stats.avg_entry_area.size(), 2u);
  EXPECT_LT(report.stats.avg_entry_area[1], 120.0);
}

TEST(BulkLoadTest, FillFractionRespected) {
  BulkLoadOptions bulk;
  bulk.fill_fraction = 0.5;
  const Dataset dataset = ClusteredDataset(25, 500, 200, 8, 10, 2);
  auto tree = BulkLoadEntries(
      [&] {
        std::vector<Entry> entries;
        for (const Transaction& txn : dataset.transactions) {
          entries.push_back(Entry{Signature::FromItems(txn.items, 200),
                                  txn.tid});
        }
        return entries;
      }(),
      SmallOptions(), bulk);
  const AuditReport report = AuditTree(*tree);
  ASSERT_TRUE(report.ok()) << report.FirstMessage();
  // Half-full leaves: utilization around 0.5, never above ~0.7.
  EXPECT_LT(report.stats.avg_utilization, 0.75);
  EXPECT_GE(report.stats.avg_utilization, 0.4);
}

TEST(BulkLoadTest, BulkTreeAcceptsUpdates) {
  const Dataset dataset = ClusteredDataset(26, 400, 200, 8, 10, 2);
  auto tree = BulkLoad(dataset, SmallOptions());
  Rng rng(27);
  for (uint64_t i = 0; i < 150; ++i) {
    Signature sig = testing::RandomSignature(rng, 200, 0.06);
    if (sig.Empty()) sig.Set(2);
    tree->Insert(sig, 10000 + i);
  }
  ASSERT_TRUE(tree->Erase(dataset.transactions[7]));
  EXPECT_EQ(tree->size(), 400u + 150u - 1u);
  EXPECT_TRUE(AuditTree(*tree).ok());
}

// ---------------------------------------------------------------------------
// Similarity join / closest pairs (reconstructed Section 4.2).
// ---------------------------------------------------------------------------

struct JoinFixture {
  Dataset da;
  Dataset db;
  std::unique_ptr<SgTree> ta;
  std::unique_ptr<SgTree> tb;
};

JoinFixture MakeJoinFixture(uint64_t seed, uint32_t size_a, uint32_t size_b) {
  JoinFixture f;
  f.da = ClusteredDataset(seed, size_a, 150, 6, 10, 2);
  f.db = ClusteredDataset(seed + 1, size_b, 150, 6, 10, 2);
  SgTreeOptions options = SmallOptions(150);
  f.ta = BulkLoad(f.da, options);
  f.tb = BulkLoad(f.db, options);
  return f;
}

std::vector<JoinPair> BruteForceJoin(const Dataset& a, const Dataset& b,
                                     double epsilon) {
  std::vector<JoinPair> result;
  for (const auto& ta : a.transactions) {
    const Signature sa = Signature::FromItems(ta.items, a.num_items);
    for (const auto& tb : b.transactions) {
      const Signature sb = Signature::FromItems(tb.items, b.num_items);
      const double d = Distance(sa, sb, Metric::kHamming);
      if (d <= epsilon) result.push_back({ta.tid, tb.tid, d});
    }
  }
  std::sort(result.begin(), result.end(),
            [](const JoinPair& x, const JoinPair& y) {
              if (x.distance != y.distance) return x.distance < y.distance;
              if (x.tid_a != y.tid_a) return x.tid_a < y.tid_a;
              return x.tid_b < y.tid_b;
            });
  return result;
}

TEST(JoinTest, PairBoundIsSound) {
  Rng rng(30);
  for (int trial = 0; trial < 100; ++trial) {
    Signature cover_a(100);
    Signature cover_b(100);
    std::vector<Signature> as;
    std::vector<Signature> bs;
    for (int i = 0; i < 4; ++i) {
      Signature t = testing::RandomSignature(rng, 100, 0.08);
      if (t.Empty()) t.Set(static_cast<uint32_t>(rng.UniformInt(100)));
      cover_a.UnionWith(t);
      as.push_back(std::move(t));
      Signature u = testing::RandomSignature(rng, 100, 0.08);
      if (u.Empty()) u.Set(static_cast<uint32_t>(rng.UniformInt(100)));
      cover_b.UnionWith(u);
      bs.push_back(std::move(u));
    }
    const double bound = PairMinDist(cover_a, false, cover_b, false,
                                     Metric::kHamming, 0);
    for (const Signature& x : as) {
      for (const Signature& y : bs) {
        EXPECT_LE(bound, Distance(x, y, Metric::kHamming));
      }
    }
  }
}

TEST(JoinTest, SimilarityJoinMatchesBruteForce) {
  const JoinFixture f = MakeJoinFixture(31, 150, 120);
  for (double epsilon : {0.0, 2.0, 5.0, 10.0}) {
    const auto expected = BruteForceJoin(f.da, f.db, epsilon);
    const auto actual = SimilarityJoin(*f.ta, *f.tb, epsilon);
    ASSERT_EQ(actual.size(), expected.size()) << "epsilon=" << epsilon;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i], expected[i]);
    }
  }
}

TEST(JoinTest, SelfJoinContainsDiagonal) {
  const JoinFixture f = MakeJoinFixture(32, 100, 100);
  const auto pairs = SimilarityJoin(*f.ta, *f.ta, 0.0);
  // Every transaction pairs with itself at distance 0.
  std::set<uint64_t> diagonal;
  for (const auto& pair : pairs) {
    if (pair.tid_a == pair.tid_b) diagonal.insert(pair.tid_a);
  }
  EXPECT_EQ(diagonal.size(), 100u);
}

TEST(JoinTest, ClosestPairsMatchBruteForce) {
  const JoinFixture f = MakeJoinFixture(33, 120, 90);
  const auto all = BruteForceJoin(f.da, f.db, 1e9);
  for (uint32_t k : {1u, 5u, 20u}) {
    const auto actual = ClosestPairs(*f.ta, *f.tb, k);
    ASSERT_EQ(actual.size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_DOUBLE_EQ(actual[i].distance, all[i].distance) << "k=" << k;
    }
  }
}

TEST(JoinTest, JoinPrunesDisjointData) {
  // Two datasets over disjoint item ranges: the join must finish without
  // comparing most transaction pairs.
  Dataset da = ClusteredDataset(34, 200, 150, 4, 8, 1);
  Dataset db = ClusteredDataset(35, 200, 150, 4, 8, 1);
  for (auto& txn : db.transactions) {
    for (auto& item : txn.items) item = (item % 60) + 90;  // Shift range.
    std::sort(txn.items.begin(), txn.items.end());
    txn.items.erase(std::unique(txn.items.begin(), txn.items.end()),
                    txn.items.end());
  }
  // Clamp da's items below 90 so the ranges are truly disjoint.
  for (auto& txn : da.transactions) {
    for (auto& item : txn.items) item = item % 90;
    std::sort(txn.items.begin(), txn.items.end());
    txn.items.erase(std::unique(txn.items.begin(), txn.items.end()),
                    txn.items.end());
  }
  auto ta = BulkLoad(da, SmallOptions(150));
  auto tb = BulkLoad(db, SmallOptions(150));
  QueryTrace trace;
  const auto pairs =
      SimilarityJoin(*ta, *tb, 1.0, QueryContext{nullptr, &trace},
                     QueryContext{nullptr, &trace});
  EXPECT_TRUE(pairs.empty());
  EXPECT_LT(trace.candidates_verified, 200u * 200u / 4);
}

TEST(JoinTest, EmptyTreeJoins) {
  const JoinFixture f = MakeJoinFixture(36, 50, 50);
  SgTree empty(SmallOptions(150));
  EXPECT_TRUE(SimilarityJoin(*f.ta, empty, 5.0).empty());
  EXPECT_TRUE(ClosestPairs(empty, *f.tb, 3).empty());
}

// ---------------------------------------------------------------------------
// Leaf-guided clustering (Section 6 future work).
// ---------------------------------------------------------------------------

TEST(ClusteringTest, PartitionsAllTransactions) {
  const Dataset dataset = ClusteredDataset(40, 600, 200, 5, 12, 2);
  SgTree tree(SmallOptions());
  for (const Transaction& txn : dataset.transactions) tree.Insert(txn);
  const auto clusters = ClusterByLeaves(tree, 5);
  ASSERT_EQ(clusters.size(), 5u);
  std::set<uint64_t> seen;
  for (const auto& cluster : clusters) {
    EXPECT_FALSE(cluster.tids.empty());
    for (uint64_t tid : cluster.tids) {
      EXPECT_TRUE(seen.insert(tid).second) << "tid in two clusters";
    }
  }
  EXPECT_EQ(seen.size(), 600u);
}

TEST(ClusteringTest, RecoversPlantedClusters) {
  // Plant 3 well-separated clusters; leaf-guided clustering with k=3 must
  // group transactions from the same plant together for the vast majority.
  const uint32_t per_cluster = 150;
  Dataset dataset;
  dataset.num_items = 300;
  Rng rng(41);
  for (uint32_t c = 0; c < 3; ++c) {
    for (uint32_t i = 0; i < per_cluster; ++i) {
      Transaction txn;
      txn.tid = c * per_cluster + i;
      // Items inside a 40-bit band per cluster.
      txn.items = testing::RandomItems(rng, 40, 8);
      for (auto& item : txn.items) item += c * 100;
      dataset.transactions.push_back(std::move(txn));
    }
  }
  SgTree tree(SmallOptions(300));
  for (const Transaction& txn : dataset.transactions) tree.Insert(txn);
  const auto clusters = ClusterByLeaves(tree, 3);
  ASSERT_EQ(clusters.size(), 3u);
  int pure = 0;
  int total = 0;
  for (const auto& cluster : clusters) {
    std::vector<int> counts(3, 0);
    for (uint64_t tid : cluster.tids) ++counts[tid / per_cluster];
    pure += *std::max_element(counts.begin(), counts.end());
    total += static_cast<int>(cluster.tids.size());
  }
  EXPECT_EQ(total, 450);
  EXPECT_GT(pure, 440);  // >97% purity on trivially separable data.
}

TEST(ClusteringTest, KLargerThanLeafCount) {
  Dataset dataset = ClusteredDataset(42, 20, 100, 2, 8, 1);
  SgTree tree(SmallOptions(100));
  for (const Transaction& txn : dataset.transactions) tree.Insert(txn);
  const auto clusters = ClusterByLeaves(tree, 1000);
  EXPECT_LE(clusters.size(), 1000u);
  EXPECT_GE(clusters.size(), 1u);
}

}  // namespace
}  // namespace sgtree
