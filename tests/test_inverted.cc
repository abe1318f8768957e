// Tests for the inverted-file index and the SG-tree's subset query,
// cross-checked against the linear scan and each other.

#include "inverted/inverted_index.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/linear_scan.h"
#include "common/rng.h"
#include "data/quest_generator.h"
#include "sgtree/search.h"
#include "sgtree/sg_tree.h"
#include "tests/test_util.h"

namespace sgtree {
namespace {

using ::sgtree::testing::ClusteredDataset;
using ::sgtree::testing::RandomItems;

struct Fixture {
  Dataset dataset;
  std::unique_ptr<InvertedIndex> inverted;
  std::unique_ptr<SgTree> tree;
  std::unique_ptr<LinearScan> scan;
};

Fixture MakeFixture(uint64_t seed, uint32_t n = 800) {
  Fixture f;
  f.dataset = ClusteredDataset(seed, n, 150, 8, 10, 2);
  f.inverted = std::make_unique<InvertedIndex>(f.dataset);
  SgTreeOptions options;
  options.num_bits = 150;
  options.max_entries = 10;
  f.tree = std::make_unique<SgTree>(options);
  for (const Transaction& txn : f.dataset.transactions) f.tree->Insert(txn);
  f.scan = std::make_unique<LinearScan>(f.dataset);
  return f;
}

TEST(InvertedIndexTest, BuildCountsEverything) {
  const Fixture f = MakeFixture(1);
  EXPECT_EQ(f.inverted->size(), f.dataset.size());
  EXPECT_EQ(f.inverted->num_items(), 150u);
}

TEST(InvertedIndexTest, ContainingMatchesScan) {
  const Fixture f = MakeFixture(2);
  Rng rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    // Probe with prefixes of real transactions (non-trivial results).
    const auto& txn = f.dataset.transactions[rng.UniformInt(f.dataset.size())];
    const size_t take = 1 + rng.UniformInt(txn.items.size());
    std::vector<ItemId> probe(txn.items.begin(), txn.items.begin() + take);
    const Signature probe_sig = Signature::FromItems(probe, 150);
    EXPECT_EQ(f.inverted->Containing(probe), f.scan->Containing(probe_sig));
  }
}

TEST(InvertedIndexTest, ContainingEmptyQueryReturnsAll) {
  const Fixture f = MakeFixture(4, 100);
  EXPECT_EQ(f.inverted->Containing({}).size(), 100u);
}

TEST(InvertedIndexTest, ContainedInMatchesScanAndTree) {
  const Fixture f = MakeFixture(5);
  Rng rng(6);
  for (int trial = 0; trial < 40; ++trial) {
    // Union of two transactions: plenty of subsets exist.
    const auto& a = f.dataset.transactions[rng.UniformInt(f.dataset.size())];
    const auto& b = f.dataset.transactions[rng.UniformInt(f.dataset.size())];
    Signature query_sig = Signature::FromItems(a.items, 150);
    query_sig.UnionWith(Signature::FromItems(b.items, 150));
    const auto query_items = query_sig.ToItems();

    const auto expected = f.scan->ContainedIn(query_sig);
    EXPECT_EQ(f.inverted->ContainedIn(query_items), expected);
    EXPECT_EQ(SubsetSearch(*f.tree, query_sig), expected);
    EXPECT_FALSE(expected.empty());  // a and b themselves qualify.
  }
}

TEST(InvertedIndexTest, KNearestMatchesScan) {
  const Fixture f = MakeFixture(7);
  Rng rng(8);
  for (uint32_t k : {1u, 5u, 20u}) {
    for (int trial = 0; trial < 15; ++trial) {
      const auto query = RandomItems(rng, 150, 1 + rng.UniformInt(15));
      const Signature query_sig = Signature::FromItems(query, 150);
      const auto expected = f.scan->KNearest(query_sig, k);
      const auto actual = f.inverted->KNearest(query, k);
      ASSERT_EQ(actual.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_DOUBLE_EQ(actual[i].distance, expected[i].distance)
            << "k=" << k << " i=" << i;
        EXPECT_EQ(actual[i].tid, expected[i].tid);
      }
    }
  }
}

TEST(InvertedIndexTest, KNearestFallbackCoversDisjointNeighbors) {
  // Dataset where the nearest neighbor shares NO item with the query: the
  // size-sorted fallback must find it.
  Dataset dataset;
  dataset.num_items = 100;
  dataset.transactions.push_back({0, {50}});                 // Size 1.
  dataset.transactions.push_back({1, {60, 61, 62, 63, 64}}); // Size 5.
  for (uint64_t i = 2; i < 20; ++i) {
    dataset.transactions.push_back(
        {i, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}});  // Share some items.
  }
  InvertedIndex index(dataset);
  // Query {20, 21}: disjoint from everything. NN = tid 0 at distance 3.
  const auto result = index.KNearest({20, 21}, 2);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].tid, 0u);
  EXPECT_DOUBLE_EQ(result[0].distance, 3.0);
  EXPECT_EQ(result[1].tid, 1u);
  EXPECT_DOUBLE_EQ(result[1].distance, 7.0);
}

TEST(InvertedIndexTest, RangeMatchesScan) {
  const Fixture f = MakeFixture(9);
  Rng rng(10);
  for (double epsilon : {2.0, 6.0, 14.0}) {
    for (int trial = 0; trial < 10; ++trial) {
      const auto query = RandomItems(rng, 150, 1 + rng.UniformInt(12));
      const Signature query_sig = Signature::FromItems(query, 150);
      const auto expected = f.scan->Range(query_sig, epsilon);
      const auto actual = f.inverted->Range(query, epsilon);
      ASSERT_EQ(actual.size(), expected.size()) << "eps=" << epsilon;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i].tid, expected[i].tid);
      }
    }
  }
}

TEST(InvertedIndexTest, InsertAppends) {
  Fixture f = MakeFixture(11, 200);
  Transaction extra;
  extra.tid = 9999;
  extra.items = {3, 4, 5};
  f.inverted->Insert(extra);
  EXPECT_EQ(f.inverted->size(), 201u);
  const auto found = f.inverted->Containing({3, 4, 5});
  EXPECT_NE(std::find(found.begin(), found.end(), 9999u), found.end());
  const auto nn = f.inverted->KNearest({3, 4, 5}, 1);
  EXPECT_DOUBLE_EQ(nn[0].distance, 0.0);
}

TEST(InvertedIndexTest, StatsChargePostingPages) {
  const Fixture f = MakeFixture(12);
  QueryTrace trace;
  f.inverted->Containing({1, 2, 3}, QueryContext{nullptr, &trace});
  EXPECT_EQ(trace.nodes_visited(), 3u);  // Three lists read.
  EXPECT_GE(trace.buffer_misses, 3u);    // At least a page each.
}

TEST(InvertedIndexTest, QuestWorkloadAgreement) {
  QuestOptions qopt;
  qopt.num_transactions = 2000;
  qopt.num_items = 300;
  qopt.num_patterns = 80;
  qopt.seed = 13;
  QuestGenerator gen(qopt);
  const Dataset dataset = gen.Generate();
  InvertedIndex index(dataset);
  LinearScan scan(dataset);
  for (const Transaction& q : gen.GenerateQueries(20)) {
    const Signature sig = Signature::FromItems(q.items, 300);
    const auto expected = scan.KNearest(sig, 5);
    const auto actual = index.KNearest(q.items, 5);
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_DOUBLE_EQ(actual[i].distance, expected[i].distance);
    }
  }
}

// ---------------------------------------------------------------------------
// SG-tree subset query.
// ---------------------------------------------------------------------------

TEST(SubsetSearchTest, MatchesScan) {
  const Fixture f = MakeFixture(14);
  Rng rng(15);
  for (int trial = 0; trial < 30; ++trial) {
    const Signature query = Signature::FromItems(
        RandomItems(rng, 150, 20 + rng.UniformInt(40)), 150);
    EXPECT_EQ(SubsetSearch(*f.tree, query), f.scan->ContainedIn(query));
  }
}

TEST(SubsetSearchTest, EmptyQueryMatchesNothing) {
  const Fixture f = MakeFixture(16, 100);
  EXPECT_TRUE(SubsetSearch(*f.tree, Signature(150)).empty());
}

TEST(SubsetSearchTest, FullQueryMatchesEverything) {
  const Fixture f = MakeFixture(17, 100);
  Signature full(150);
  for (uint32_t i = 0; i < 150; ++i) full.Set(i);
  EXPECT_EQ(SubsetSearch(*f.tree, full).size(), 100u);
}

}  // namespace
}  // namespace sgtree
