// Cross-cutting property tests: invariances that must hold regardless of
// insertion order, query, or configuration — the "metamorphic" checks that
// catch bugs the example-based tests cannot.

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/linear_scan.h"
#include "common/rng.h"
#include "sgtable/sg_table.h"
#include "sgtree/invariant_auditor.h"
#include "sgtree/search.h"
#include "sgtree/sg_tree.h"
#include "tests/test_util.h"

namespace sgtree {
namespace {

using ::sgtree::testing::ClusteredDataset;
using ::sgtree::testing::RandomSignature;

SgTreeOptions SmallOptions(uint32_t num_bits = 150) {
  SgTreeOptions options;
  options.num_bits = num_bits;
  options.max_entries = 9;
  return options;
}

std::vector<Transaction> Shuffled(const std::vector<Transaction>& input,
                                  uint64_t seed) {
  std::vector<Transaction> shuffled = input;
  Rng rng(seed);
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.UniformInt(i)]);
  }
  return shuffled;
}

// ---------------------------------------------------------------------------
// Insertion-order invariance of query ANSWERS (the tree shape may differ,
// the returned distances may not).
// ---------------------------------------------------------------------------

class OrderInvarianceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OrderInvarianceTest, QueryAnswersIndependentOfInsertionOrder) {
  const Dataset dataset = ClusteredDataset(GetParam(), 700, 150, 8, 10, 2);
  SgTree in_order(SmallOptions());
  SgTree shuffled(SmallOptions());
  for (const Transaction& txn : dataset.transactions) in_order.Insert(txn);
  for (const Transaction& txn :
       Shuffled(dataset.transactions, GetParam() * 31 + 7)) {
    shuffled.Insert(txn);
  }
  ASSERT_TRUE(AuditTree(in_order).ok());
  ASSERT_TRUE(AuditTree(shuffled).ok());

  Rng rng(GetParam() ^ 0xbeef);
  for (int q = 0; q < 20; ++q) {
    Signature query = RandomSignature(rng, 150, 0.06);
    if (query.Empty()) query.Set(0);
    EXPECT_DOUBLE_EQ(DfsNearest(in_order, query).distance,
                     DfsNearest(shuffled, query).distance);
    const auto range_a = RangeSearch(in_order, query, 7.0);
    const auto range_b = RangeSearch(shuffled, query, 7.0);
    ASSERT_EQ(range_a.size(), range_b.size());
    for (size_t i = 0; i < range_a.size(); ++i) {
      EXPECT_EQ(range_a[i].tid, range_b[i].tid);
    }
    EXPECT_EQ(ContainmentSearch(in_order, query),
              ContainmentSearch(shuffled, query));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderInvarianceTest,
                         ::testing::Range<uint64_t>(600, 606));

// ---------------------------------------------------------------------------
// Delete/insert inverse: removing a batch leaves the index answering as if
// the batch never existed.
// ---------------------------------------------------------------------------

TEST(InverseUpdateTest, EraseUndoesInsert) {
  const Dataset base = ClusteredDataset(610, 500, 150, 8, 10, 2);
  const Dataset extra = ClusteredDataset(611, 200, 150, 4, 12, 3);

  SgTree with_extra(SmallOptions());
  SgTree without(SmallOptions());
  for (const Transaction& txn : base.transactions) {
    with_extra.Insert(txn);
    without.Insert(txn);
  }
  for (Transaction txn : extra.transactions) {
    txn.tid += 100000;
    with_extra.Insert(txn);
  }
  for (Transaction txn : extra.transactions) {
    txn.tid += 100000;
    ASSERT_TRUE(with_extra.Erase(txn));
  }
  ASSERT_TRUE(AuditTree(with_extra).ok());
  EXPECT_EQ(with_extra.size(), without.size());

  Rng rng(612);
  for (int q = 0; q < 20; ++q) {
    Signature query = RandomSignature(rng, 150, 0.06);
    if (query.Empty()) query.Set(0);
    EXPECT_DOUBLE_EQ(DfsNearest(with_extra, query).distance,
                     DfsNearest(without, query).distance);
    const auto a = DfsKNearest(with_extra, query, 10);
    const auto b = DfsKNearest(without, query, 10);
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_DOUBLE_EQ(a[i].distance, b[i].distance);
    }
  }
}

// ---------------------------------------------------------------------------
// Query-algebra consistencies.
// ---------------------------------------------------------------------------

struct AlgebraFixture {
  Dataset dataset;
  std::unique_ptr<SgTree> tree;
};

AlgebraFixture MakeAlgebra(uint64_t seed) {
  AlgebraFixture f;
  f.dataset = ClusteredDataset(seed, 600, 150, 8, 10, 2);
  f.tree = std::make_unique<SgTree>(SmallOptions());
  for (const Transaction& txn : f.dataset.transactions) f.tree->Insert(txn);
  return f;
}

TEST(QueryAlgebraTest, KnnOfFullSizeEqualsSortedRangeOfInfinity) {
  const AlgebraFixture f = MakeAlgebra(620);
  Rng rng(621);
  const Signature query = RandomSignature(rng, 150, 0.06);
  const auto knn = DfsKNearest(*f.tree, query, 600);
  const auto range = RangeSearch(*f.tree, query, 1e12);
  ASSERT_EQ(knn.size(), range.size());
  for (size_t i = 0; i < knn.size(); ++i) {
    EXPECT_DOUBLE_EQ(knn[i].distance, range[i].distance);
  }
}

TEST(QueryAlgebraTest, RangeIsMonotoneInEpsilon) {
  const AlgebraFixture f = MakeAlgebra(622);
  Rng rng(623);
  for (int q = 0; q < 10; ++q) {
    const Signature query = RandomSignature(rng, 150, 0.06);
    size_t previous = 0;
    for (double epsilon : {0.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
      const size_t count = RangeSearch(*f.tree, query, epsilon).size();
      EXPECT_GE(count, previous) << "epsilon=" << epsilon;
      previous = count;
    }
  }
}

TEST(QueryAlgebraTest, KnnDistancesAreMonotoneInK) {
  const AlgebraFixture f = MakeAlgebra(624);
  Rng rng(625);
  const Signature query = RandomSignature(rng, 150, 0.06);
  const auto k5 = DfsKNearest(*f.tree, query, 5);
  const auto k20 = DfsKNearest(*f.tree, query, 20);
  for (size_t i = 0; i < k5.size(); ++i) {
    EXPECT_DOUBLE_EQ(k5[i].distance, k20[i].distance);  // Prefix property.
  }
  for (size_t i = 1; i < k20.size(); ++i) {
    EXPECT_GE(k20[i].distance, k20[i - 1].distance);
  }
}

TEST(QueryAlgebraTest, ContainmentIsAntitoneInQuery) {
  // Adding items to a containment query can only shrink the result.
  const AlgebraFixture f = MakeAlgebra(626);
  Rng rng(627);
  for (int trial = 0; trial < 20; ++trial) {
    const auto& txn =
        f.dataset.transactions[rng.UniformInt(f.dataset.size())];
    std::vector<ItemId> probe;
    size_t previous = f.dataset.size() + 1;
    for (ItemId item : txn.items) {
      probe.push_back(item);
      const size_t count =
          ContainmentSearch(*f.tree, Signature::FromItems(probe, 150))
              .size();
      EXPECT_LE(count, previous);
      previous = count;
    }
    EXPECT_GE(previous, 1u);  // The transaction itself always qualifies.
  }
}

TEST(QueryAlgebraTest, NnDistanceZeroIffExactMatchExists) {
  const AlgebraFixture f = MakeAlgebra(628);
  Rng rng(629);
  for (int trial = 0; trial < 20; ++trial) {
    const Signature query = RandomSignature(rng, 150, 0.06);
    const bool has_exact = !ExactSearch(*f.tree, query).empty();
    const double nn = DfsNearest(*f.tree, query).distance;
    EXPECT_EQ(nn == 0.0, has_exact);
  }
}

// ---------------------------------------------------------------------------
// SG-table order invariance (hashing is per transaction, so any insertion
// order yields the same buckets for the same vertical signatures).
// ---------------------------------------------------------------------------

TEST(SgTableOrderTest, QueryAnswersIndependentOfBatchOrder) {
  const Dataset dataset = ClusteredDataset(630, 700, 150, 8, 10, 2);
  SgTableOptions options;
  options.clustering.num_signatures = 8;

  SgTable in_order(dataset, options);
  // Same co-occurrence input (the full dataset), different insert order for
  // the remainder: build from a dataset containing the first half, insert
  // the shuffled second half.
  Dataset head;
  head.num_items = dataset.num_items;
  head.transactions.assign(dataset.transactions.begin(),
                           dataset.transactions.begin() + 350);
  SgTable incremental(head, options);
  std::vector<Transaction> tail(dataset.transactions.begin() + 350,
                                dataset.transactions.end());
  for (const Transaction& txn : Shuffled(tail, 631)) {
    incremental.Insert(txn);
  }
  EXPECT_EQ(incremental.size(), in_order.size());

  // Same transactions hashed with different vertical signatures (derived
  // from half the data) still answer exactly.
  LinearScan scan(dataset);
  Rng rng(632);
  for (int q = 0; q < 20; ++q) {
    const Signature query = RandomSignature(rng, 150, 0.06);
    const double expected = scan.Nearest(query).distance;
    EXPECT_DOUBLE_EQ(in_order.Nearest(query).distance, expected);
    EXPECT_DOUBLE_EQ(incremental.Nearest(query).distance, expected);
  }
}

}  // namespace
}  // namespace sgtree
