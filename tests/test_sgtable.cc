#include "sgtable/sg_table.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/linear_scan.h"
#include "common/rng.h"
#include "data/quest_generator.h"
#include "sgtable/cooccurrence.h"
#include "sgtable/item_clustering.h"
#include "tests/test_util.h"

namespace sgtree {
namespace {

using ::sgtree::testing::ClusteredDataset;

// ---------------------------------------------------------------------------
// Co-occurrence matrix.
// ---------------------------------------------------------------------------

Dataset TinyDataset() {
  // Figure 1 of the paper: S = {a..g} as items 0..6.
  Dataset dataset;
  dataset.num_items = 7;
  dataset.transactions = {
      {1, {2, 3}},           // T1 = {c, d}
      {2, {0, 1, 2}},        // T2 = {a, b, c}
      {3, {0, 1, 4}},        // T3 = {a, b, e}
      {4, {1, 3, 5, 6}},     // T4 = {b, d, f, g}
      {5, {0, 1, 2, 3, 4}},  // T5 = {a, b, c, d, e}
      {6, {1, 4, 5}},        // T6 = {b, e, f}
  };
  return dataset;
}

TEST(CooccurrenceTest, CountsMatchManualTally) {
  const Dataset dataset = TinyDataset();
  CooccurrenceMatrix matrix(dataset);
  EXPECT_EQ(matrix.num_items(), 7u);
  EXPECT_EQ(matrix.transactions_scanned(), 6u);
  // a & b co-occur in T2, T3, T5.
  EXPECT_EQ(matrix.Count(0, 1), 3u);
  EXPECT_EQ(matrix.Count(1, 0), 3u);  // Symmetric.
  // c & d co-occur in T1, T5.
  EXPECT_EQ(matrix.Count(2, 3), 2u);
  // f & g co-occur in T4 only.
  EXPECT_EQ(matrix.Count(5, 6), 1u);
  // a & g never co-occur.
  EXPECT_EQ(matrix.Count(0, 6), 0u);
}

TEST(CooccurrenceTest, SupportOnDiagonal) {
  const Dataset dataset = TinyDataset();
  CooccurrenceMatrix matrix(dataset);
  EXPECT_EQ(matrix.Support(1), 5u);  // b appears in T2..T6.
  EXPECT_EQ(matrix.Count(1, 1), 5u);
  EXPECT_EQ(matrix.Support(6), 1u);
}

TEST(CooccurrenceTest, SamplingCapRespected) {
  const Dataset dataset = TinyDataset();
  CooccurrenceMatrix matrix(dataset, 2);
  EXPECT_EQ(matrix.transactions_scanned(), 2u);
  EXPECT_EQ(matrix.Count(0, 1), 1u);  // Only T1, T2 scanned.
}

// ---------------------------------------------------------------------------
// Item clustering.
// ---------------------------------------------------------------------------

TEST(ItemClusteringTest, GroupsCorrelatedItems) {
  // Three planted item blocks that always co-occur.
  Dataset dataset;
  dataset.num_items = 9;
  Rng rng(1);
  for (uint64_t t = 0; t < 300; ++t) {
    const uint32_t block = static_cast<uint32_t>(rng.UniformInt(3));
    dataset.transactions.push_back(
        {t, {block * 3, block * 3 + 1, block * 3 + 2}});
  }
  CooccurrenceMatrix matrix(dataset);
  ItemClusteringOptions options;
  options.num_signatures = 3;
  options.critical_mass_fraction = 1.0;  // Effectively off.
  const auto groups = ClusterItems(matrix, options);
  ASSERT_EQ(groups.size(), 3u);
  std::set<std::vector<ItemId>> expected = {
      {0, 1, 2}, {3, 4, 5}, {6, 7, 8}};
  std::set<std::vector<ItemId>> actual;
  for (const auto& group : groups) actual.insert(group.items);
  EXPECT_EQ(actual, expected);
}

TEST(ItemClusteringTest, GroupsAreDisjoint) {
  const Dataset dataset = ClusteredDataset(2, 500, 120, 8, 10, 2);
  CooccurrenceMatrix matrix(dataset);
  ItemClusteringOptions options;
  options.num_signatures = 10;
  const auto groups = ClusterItems(matrix, options);
  EXPECT_LE(groups.size(), 10u);
  std::set<ItemId> seen;
  for (const auto& group : groups) {
    EXPECT_FALSE(group.items.empty());
    for (ItemId item : group.items) {
      EXPECT_TRUE(seen.insert(item).second) << "item in two groups";
    }
  }
}

TEST(ItemClusteringTest, CriticalMassFreezesHeavyClusters) {
  // With a tiny critical mass every cluster freezes almost immediately, so
  // groups stay small; with it off the groups grow larger.
  const Dataset dataset = ClusteredDataset(3, 500, 60, 4, 12, 1);
  CooccurrenceMatrix matrix(dataset);
  ItemClusteringOptions tight;
  tight.num_signatures = 8;
  tight.critical_mass_fraction = 0.01;
  ItemClusteringOptions loose = tight;
  loose.critical_mass_fraction = 1.0;
  const auto tight_groups = ClusterItems(matrix, tight);
  const auto loose_groups = ClusterItems(matrix, loose);
  size_t tight_max = 0;
  size_t loose_max = 0;
  for (const auto& group : tight_groups) {
    tight_max = std::max(tight_max, group.items.size());
  }
  for (const auto& group : loose_groups) {
    loose_max = std::max(loose_max, group.items.size());
  }
  EXPECT_LE(tight_max, loose_max);
}

TEST(ItemClusteringTest, NeverExceedsRequestedCount) {
  const Dataset dataset = ClusteredDataset(4, 300, 100, 6, 8, 2);
  CooccurrenceMatrix matrix(dataset);
  for (uint32_t k : {1u, 4u, 16u, 64u}) {
    ItemClusteringOptions options;
    options.num_signatures = k;
    EXPECT_LE(ClusterItems(matrix, options).size(), k);
  }
}

// ---------------------------------------------------------------------------
// SG-table construction and hashing.
// ---------------------------------------------------------------------------

SgTableOptions SmallTableOptions() {
  SgTableOptions options;
  options.clustering.num_signatures = 8;
  options.activation_threshold = 2;
  return options;
}

TEST(SgTableTest, HashesEveryTransaction) {
  const Dataset dataset = ClusteredDataset(5, 800, 150, 8, 10, 2);
  SgTable table(dataset, SmallTableOptions());
  EXPECT_EQ(table.size(), 800u);
  EXPECT_GT(table.occupied_buckets(), 1u);
  size_t total = 0;
  (void)total;
  EXPECT_LE(table.vertical_signatures().size(), 8u);
}

TEST(SgTableTest, ActivationCodeMatchesDefinition) {
  const Dataset dataset = ClusteredDataset(6, 400, 150, 8, 10, 2);
  SgTableOptions options = SmallTableOptions();
  SgTable table(dataset, options);
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const Signature sig = testing::RandomSignature(rng, 150, 0.08);
    const uint64_t code = table.ActivationCode(sig);
    for (size_t i = 0; i < table.vertical_signatures().size(); ++i) {
      const Signature group = Signature::FromItems(
          table.vertical_signatures()[i].items, 150);
      const bool activated =
          Signature::IntersectCount(sig, group) >= 2;  // theta = 2.
      EXPECT_EQ(((code >> i) & 1) != 0, activated);
    }
  }
}

TEST(SgTableTest, PaperFigure1Activation) {
  // Figure 1: groups A={a,e}, B={c,d}, C={b,f,g}, theta=2.
  // T5 = {a,b,c,d,e} activates A (a,e) and B (c,d) but not C (only b).
  Dataset dataset = TinyDataset();
  SgTableOptions options;
  options.activation_threshold = 2;
  options.clustering.num_signatures = 3;
  SgTable table(dataset, options);
  // Build the activation by hand against the paper's groups rather than the
  // learned ones: use ActivationCode only for learned groups; here we just
  // verify T1 = {c,d} lands in a different bucket than T5 = {a,b,c,d,e}
  // when their activations differ. The core check: identical transactions
  // share a bucket.
  const Signature t1 = Signature::FromItems(std::vector<uint32_t>{2, 3}, 7);
  const Signature t1_dup =
      Signature::FromItems(std::vector<uint32_t>{2, 3}, 7);
  EXPECT_EQ(table.ActivationCode(t1), table.ActivationCode(t1_dup));
}

TEST(SgTableTest, InsertAddsToExistingBuckets) {
  const Dataset dataset = ClusteredDataset(8, 300, 150, 8, 10, 2);
  SgTable table(dataset, SmallTableOptions());
  const size_t before = table.size();
  Transaction extra;
  extra.tid = 99999;
  extra.items = dataset.transactions[0].items;
  table.Insert(extra);
  EXPECT_EQ(table.size(), before + 1);
  // The new transaction must now be the 0-distance NN of itself.
  const Signature q = Signature::FromItems(extra.items, 150);
  EXPECT_DOUBLE_EQ(table.Nearest(q).distance, 0.0);
}

// ---------------------------------------------------------------------------
// Bucket bound soundness and search exactness — the crux of the baseline.
// ---------------------------------------------------------------------------

TEST(SgTableTest, BucketBoundIsSound) {
  const Dataset dataset = ClusteredDataset(9, 600, 150, 8, 10, 2);
  SgTable table(dataset, SmallTableOptions());
  Rng rng(10);
  for (int trial = 0; trial < 30; ++trial) {
    const Signature q = testing::RandomSignature(rng, 150, 0.08);
    // For every transaction: its distance must be >= its bucket's bound.
    for (const Transaction& txn : dataset.transactions) {
      const Signature sig = Signature::FromItems(txn.items, 150);
      const uint64_t code = table.ActivationCode(sig);
      EXPECT_LE(table.BucketBound(q, code),
                Distance(q, sig, Metric::kHamming))
          << "tid " << txn.tid;
    }
  }
}

TEST(SgTableTest, NearestMatchesLinearScan) {
  const Dataset dataset = ClusteredDataset(11, 900, 150, 8, 10, 2);
  SgTable table(dataset, SmallTableOptions());
  LinearScan scan(dataset);
  Rng rng(12);
  for (int q = 0; q < 40; ++q) {
    Signature query = testing::RandomSignature(rng, 150, 0.07);
    if (query.Empty()) query.Set(0);
    EXPECT_DOUBLE_EQ(table.Nearest(query).distance,
                     scan.Nearest(query).distance);
  }
}

TEST(SgTableTest, KNearestMatchesLinearScan) {
  const Dataset dataset = ClusteredDataset(13, 700, 150, 8, 10, 2);
  SgTable table(dataset, SmallTableOptions());
  LinearScan scan(dataset);
  Rng rng(14);
  for (uint32_t k : {1u, 5u, 25u}) {
    for (int q = 0; q < 15; ++q) {
      const Signature query = testing::RandomSignature(rng, 150, 0.07);
      const auto expected = scan.KNearest(query, k);
      const auto actual = table.KNearest(query, k);
      ASSERT_EQ(actual.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_DOUBLE_EQ(actual[i].distance, expected[i].distance);
      }
    }
  }
}

TEST(SgTableTest, RangeMatchesLinearScan) {
  const Dataset dataset = ClusteredDataset(15, 700, 150, 8, 10, 2);
  SgTable table(dataset, SmallTableOptions());
  LinearScan scan(dataset);
  Rng rng(16);
  for (double epsilon : {2.0, 6.0, 12.0}) {
    for (int q = 0; q < 10; ++q) {
      const Signature query = testing::RandomSignature(rng, 150, 0.07);
      const auto expected = scan.Range(query, epsilon);
      const auto actual = table.Range(query, epsilon);
      ASSERT_EQ(actual.size(), expected.size()) << "epsilon=" << epsilon;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i].tid, expected[i].tid);
      }
    }
  }
}

TEST(SgTableTest, QuestWorkloadExact) {
  QuestOptions qopt;
  qopt.num_transactions = 2000;
  qopt.num_items = 300;
  qopt.num_patterns = 120;
  qopt.seed = 17;
  QuestGenerator gen(qopt);
  const Dataset dataset = gen.Generate();
  SgTableOptions options = SmallTableOptions();
  options.clustering.num_signatures = 10;
  SgTable table(dataset, options);
  LinearScan scan(dataset);
  for (const Transaction& q : gen.GenerateQueries(25)) {
    const Signature query = Signature::FromItems(q.items, 300);
    EXPECT_DOUBLE_EQ(table.Nearest(query).distance,
                     scan.Nearest(query).distance);
  }
}

TEST(SgTableTest, PruningSkipsBuckets) {
  const Dataset dataset = ClusteredDataset(18, 2000, 150, 8, 10, 1);
  SgTable table(dataset, SmallTableOptions());
  QueryTrace trace;
  // Query near an actual transaction: close NN means strong pruning.
  const Signature query =
      Signature::FromItems(dataset.transactions[0].items, 150);
  table.Nearest(query, QueryContext{nullptr, &trace});
  EXPECT_LT(trace.candidates_verified, dataset.size());
  EXPECT_GT(trace.buffer_misses, 0u);
}

TEST(SgTableTest, ThetaOneActivatesOnAnyOverlap) {
  const Dataset dataset = ClusteredDataset(19, 300, 150, 8, 10, 2);
  SgTableOptions options = SmallTableOptions();
  options.activation_threshold = 1;
  SgTable table(dataset, options);
  LinearScan scan(dataset);
  Rng rng(20);
  for (int q = 0; q < 20; ++q) {
    const Signature query = testing::RandomSignature(rng, 150, 0.07);
    EXPECT_DOUBLE_EQ(table.Nearest(query).distance,
                     scan.Nearest(query).distance);
  }
}

TEST(SgTableTest, EmptyDataset) {
  Dataset dataset;
  dataset.num_items = 50;
  SgTable table(dataset, SmallTableOptions());
  EXPECT_EQ(table.size(), 0u);
  const Signature q = Signature::FromItems(std::vector<uint32_t>{1}, 50);
  EXPECT_TRUE(table.KNearest(q, 3).empty());
  EXPECT_TRUE(table.Range(q, 5).empty());
}

}  // namespace
}  // namespace sgtree
