#include "sgtree/search.h"

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/linear_scan.h"
#include "common/rng.h"
#include "data/census_generator.h"
#include "data/quest_generator.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace sgtree {
namespace {

using ::sgtree::testing::ClusteredDataset;

struct Fixture {
  Dataset dataset;
  std::unique_ptr<SgTree> tree;
  std::unique_ptr<LinearScan> scan;
  std::vector<Signature> queries;
};

Fixture MakeFixture(uint64_t seed, Metric metric,
                    uint32_t fixed_dim = 0, uint32_t num_queries = 25) {
  Fixture f;
  f.dataset = ClusteredDataset(seed, 1200, 250, 10, 12, 3);
  SgTreeOptions options;
  options.num_bits = 250;
  options.max_entries = 12;
  options.metric = metric;
  options.fixed_dimensionality = fixed_dim;
  f.tree = std::make_unique<SgTree>(options);
  for (const Transaction& txn : f.dataset.transactions) f.tree->Insert(txn);
  f.scan = std::make_unique<LinearScan>(f.dataset);
  Rng rng(seed ^ 0xabcdef);
  for (uint32_t q = 0; q < num_queries; ++q) {
    Signature sig = testing::RandomSignature(rng, 250, 0.05);
    if (sig.Empty()) sig.Set(1);
    f.queries.push_back(std::move(sig));
  }
  return f;
}

// ---------------------------------------------------------------------------
// Exactness against the linear scan, across metrics.
// ---------------------------------------------------------------------------

class SearchExactnessTest : public ::testing::TestWithParam<Metric> {};

TEST_P(SearchExactnessTest, NearestMatchesLinearScan) {
  const Fixture f = MakeFixture(1, GetParam());
  for (const Signature& q : f.queries) {
    const Neighbor expected = f.scan->Nearest(q, GetParam());
    const Neighbor actual = DfsNearest(*f.tree, q);
    EXPECT_DOUBLE_EQ(actual.distance, expected.distance);
  }
}

TEST_P(SearchExactnessTest, KNearestDistancesMatchLinearScan) {
  const Fixture f = MakeFixture(2, GetParam());
  for (uint32_t k : {1u, 3u, 10u, 50u}) {
    for (const Signature& q : f.queries) {
      const auto expected = f.scan->KNearest(q, k, GetParam());
      const auto actual = DfsKNearest(*f.tree, q, k);
      ASSERT_EQ(actual.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_DOUBLE_EQ(actual[i].distance, expected[i].distance)
            << "k=" << k << " i=" << i;
      }
    }
  }
}

TEST_P(SearchExactnessTest, BestFirstMatchesDfs) {
  const Fixture f = MakeFixture(3, GetParam());
  for (const Signature& q : f.queries) {
    const auto dfs = DfsKNearest(*f.tree, q, 5);
    const auto bf = BestFirstKNearest(*f.tree, q, 5);
    ASSERT_EQ(dfs.size(), bf.size());
    for (size_t i = 0; i < dfs.size(); ++i) {
      EXPECT_DOUBLE_EQ(dfs[i].distance, bf[i].distance);
    }
  }
}

TEST_P(SearchExactnessTest, RangeMatchesLinearScan) {
  const Fixture f = MakeFixture(4, GetParam());
  const double epsilon = GetParam() == Metric::kHamming ? 8.0 : 0.5;
  for (const Signature& q : f.queries) {
    const auto expected = f.scan->Range(q, epsilon, GetParam());
    const auto actual = RangeSearch(*f.tree, q, epsilon);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].tid, expected[i].tid);
      EXPECT_DOUBLE_EQ(actual[i].distance, expected[i].distance);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, SearchExactnessTest,
                         ::testing::Values(Metric::kHamming, Metric::kJaccard,
                                           Metric::kDice, Metric::kCosine),
                         [](const auto& info) {
                           return MetricName(info.param);
                         });

// Seed sweep: NN exactness is the core claim; hammer it.
class SeedSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweepTest, NearestExactUnderHamming) {
  const Fixture f = MakeFixture(GetParam(), Metric::kHamming);
  for (const Signature& q : f.queries) {
    EXPECT_DOUBLE_EQ(DfsNearest(*f.tree, q).distance,
                     f.scan->Nearest(q).distance);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest,
                         ::testing::Range<uint64_t>(10, 20));

// ---------------------------------------------------------------------------
// Queries on data drawn from the real generators.
// ---------------------------------------------------------------------------

TEST(SearchGeneratorTest, QuestWorkloadExact) {
  QuestOptions qopt;
  qopt.num_transactions = 3000;
  qopt.num_items = 400;
  qopt.num_patterns = 150;
  qopt.avg_transaction_size = 10;
  qopt.avg_itemset_size = 6;
  qopt.seed = 21;
  QuestGenerator gen(qopt);
  const Dataset dataset = gen.Generate();
  SgTreeOptions options;
  options.num_bits = 400;
  SgTree tree(options);
  for (const Transaction& txn : dataset.transactions) tree.Insert(txn);
  LinearScan scan(dataset);
  for (const Transaction& q : gen.GenerateQueries(30)) {
    const Signature sig = Signature::FromItems(q.items, 400);
    EXPECT_DOUBLE_EQ(DfsNearest(tree, sig).distance,
                     scan.Nearest(sig).distance);
  }
}

TEST(SearchGeneratorTest, CensusWorkloadExactWithTightBound) {
  CensusOptions copt;
  copt.num_tuples = 2500;
  copt.seed = 22;
  CensusGenerator gen(copt);
  const Dataset dataset = gen.Generate();
  SgTreeOptions options;
  options.num_bits = dataset.num_items;
  options.fixed_dimensionality = dataset.fixed_dimensionality;
  SgTree tree(options);
  for (const Transaction& txn : dataset.transactions) tree.Insert(txn);
  LinearScan scan(dataset);
  for (const Transaction& q : gen.GenerateQueries(30)) {
    const Signature sig = Signature::FromItems(q.items, dataset.num_items);
    EXPECT_DOUBLE_EQ(DfsNearest(tree, sig).distance,
                     scan.Nearest(sig).distance);
    const auto k5 = DfsKNearest(tree, sig, 5);
    const auto expected = scan.KNearest(sig, 5);
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_DOUBLE_EQ(k5[i].distance, expected[i].distance);
    }
  }
}

TEST(SearchGeneratorTest, TightBoundPrunesMoreThanRelaxed) {
  CensusOptions copt;
  copt.num_tuples = 3000;
  copt.seed = 23;
  CensusGenerator gen(copt);
  const Dataset dataset = gen.Generate();

  SgTreeOptions relaxed;
  relaxed.num_bits = dataset.num_items;
  relaxed.use_area_stats = false;  // Truly generic bound.
  SgTreeOptions tight = relaxed;
  tight.fixed_dimensionality = dataset.fixed_dimensionality;

  SgTree tree_relaxed(relaxed);
  SgTree tree_tight(tight);
  for (const Transaction& txn : dataset.transactions) {
    tree_relaxed.Insert(txn);
    tree_tight.Insert(txn);
  }
  QueryTrace trace_relaxed;
  QueryTrace trace_tight;
  for (const Transaction& q : gen.GenerateQueries(40)) {
    const Signature sig = Signature::FromItems(q.items, dataset.num_items);
    const Neighbor a = DfsNearest(tree_relaxed, sig,
                                  QueryContext{nullptr, &trace_relaxed});
    const Neighbor b = DfsNearest(tree_tight, sig,
                                  QueryContext{nullptr, &trace_tight});
    EXPECT_DOUBLE_EQ(a.distance, b.distance);  // Same (exact) answer.
  }
  // Section 6 claim: the fixed-dimensionality bound prunes strictly better.
  EXPECT_LT(trace_tight.candidates_verified,
            trace_relaxed.candidates_verified);
}

// ---------------------------------------------------------------------------
// Containment and exact-match queries.
// ---------------------------------------------------------------------------

TEST(ContainmentTest, MatchesLinearScan) {
  const Fixture f = MakeFixture(30, Metric::kHamming);
  Rng rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    // Probe with subsets of actual transactions so results are non-trivial.
    const auto& txn =
        f.dataset.transactions[rng.UniformInt(f.dataset.size())];
    std::vector<ItemId> probe;
    for (ItemId item : txn.items) {
      if (rng.Bernoulli(0.5)) probe.push_back(item);
    }
    const Signature q = Signature::FromItems(probe, 250);
    EXPECT_EQ(ContainmentSearch(*f.tree, q), f.scan->Containing(q));
  }
}

TEST(ContainmentTest, PaperExampleItemsetQuery) {
  // Section 3: query {c, f} on the Figure 1 transactions; only T6 = {b,e,f}
  // lacks c, etc. Reproduce with the 9 signatures of Figure 2's leaves.
  SgTreeOptions options;
  options.num_bits = 6;
  options.max_entries = 4;
  SgTree tree(options);
  const std::vector<std::string> rows = {
      "100000", "100010", "001010", "001100", "001100",
      "100001", "010001", "110000", "011000"};
  for (size_t i = 0; i < rows.size(); ++i) {
    Signature sig(6);
    for (uint32_t b = 0; b < 6; ++b) {
      if (rows[i][b] == '1') sig.Set(b);
    }
    tree.Insert(sig, i + 1);
  }
  // Transactions containing items {2, 3} (0-based bits): only T4/T5
  // ("001100" twice).
  Signature q(6);
  q.Set(2);
  q.Set(3);
  EXPECT_EQ(ContainmentSearch(tree, q), (std::vector<uint64_t>{4, 5}));
}

TEST(ContainmentTest, EmptyQueryMatchesEverything) {
  const Fixture f = MakeFixture(32, Metric::kHamming);
  const Signature q(250);
  EXPECT_EQ(ContainmentSearch(*f.tree, q).size(), f.dataset.size());
}

TEST(ExactSearchTest, FindsAllDuplicates) {
  SgTreeOptions options;
  options.num_bits = 64;
  options.max_entries = 6;
  SgTree tree(options);
  const Signature dup = Signature::FromItems(std::vector<uint32_t>{3, 9}, 64);
  Rng rng(33);
  for (uint64_t i = 0; i < 100; ++i) {
    if (i % 10 == 0) {
      tree.Insert(dup, i);
    } else {
      Signature sig = testing::RandomSignature(rng, 64, 0.2);
      if (sig == dup) sig.Set(40);
      tree.Insert(sig, i);
    }
  }
  EXPECT_EQ(ExactSearch(tree, dup),
            (std::vector<uint64_t>{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}));
}

TEST(ExactSearchTest, AbsentSignatureReturnsEmpty) {
  const Fixture f = MakeFixture(34, Metric::kHamming);
  Signature q(250);
  for (uint32_t i = 0; i < 250; ++i) q.Set(i);  // Full set: surely absent.
  EXPECT_TRUE(ExactSearch(*f.tree, q).empty());
}

// ---------------------------------------------------------------------------
// Pruning efficiency and trace accounting.
// ---------------------------------------------------------------------------

TEST(SearchStatsTest, NnComparesFarFewerThanScan) {
  // Pruning is strong for queries with a close neighbor (paper Figure 12);
  // probe with lightly perturbed data transactions.
  const Fixture f = MakeFixture(40, Metric::kHamming);
  Rng rng(40);
  QueryTrace trace;
  const uint32_t num_queries = 25;
  for (uint32_t i = 0; i < num_queries; ++i) {
    const auto& txn =
        f.dataset.transactions[rng.UniformInt(f.dataset.size())];
    Signature q = Signature::FromItems(txn.items, 250);
    for (int flips = 0; flips < 2; ++flips) {
      const auto bit = static_cast<uint32_t>(rng.UniformInt(250));
      if (q.Test(bit)) {
        q.Reset(bit);
      } else {
        q.Set(bit);
      }
    }
    DfsNearest(*f.tree, q, QueryContext{nullptr, &trace});
  }
  const uint64_t scanned_all = num_queries * f.dataset.size();
  EXPECT_LT(trace.candidates_verified, scanned_all / 2);
  EXPECT_GT(trace.nodes_visited(), 0u);
}

TEST(SearchStatsTest, BestFirstAccessesNoMoreNodesThanDfsOverall) {
  // Best-first is optimal up to boundary ties: nodes whose bound equals the
  // final k-th distance may be read by either algorithm depending on
  // arbitrary tie order, so compare aggregates with a small tie allowance
  // rather than per query.
  const Fixture f = MakeFixture(41, Metric::kHamming);
  QueryTrace dfs_trace;
  QueryTrace bf_trace;
  for (const Signature& q : f.queries) {
    DfsKNearest(*f.tree, q, 3, QueryContext{nullptr, &dfs_trace});
    BestFirstKNearest(*f.tree, q, 3, QueryContext{nullptr, &bf_trace});
  }
  EXPECT_LE(bf_trace.nodes_visited(),
            dfs_trace.nodes_visited() + 2 * f.queries.size());
}

TEST(SearchStatsTest, RangeWithHugeEpsilonVisitsEverything) {
  const Fixture f = MakeFixture(42, Metric::kHamming);
  QueryTrace trace;
  const auto result = RangeSearch(*f.tree, f.queries[0], 1e9,
                                  QueryContext{nullptr, &trace});
  EXPECT_EQ(result.size(), f.dataset.size());
  EXPECT_EQ(trace.candidates_verified, f.dataset.size());
}

TEST(SearchStatsTest, RangeWithNegativeEpsilonFindsNothing) {
  const Fixture f = MakeFixture(43, Metric::kHamming);
  EXPECT_TRUE(RangeSearch(*f.tree, f.queries[0], -1.0).empty());
}

TEST(SearchStatsTest, IoDeltaRecordedPerQuery) {
  // Each query's trace holds its own reads: through one caller pool that
  // holds the whole tree, the first query misses on every read and the
  // repeated query hits on every read.
  const Fixture f = MakeFixture(44, Metric::kHamming);
  BufferPool pool(static_cast<uint32_t>(f.tree->node_count()));
  QueryTrace first;
  DfsNearest(*f.tree, f.queries[0], QueryContext{&pool, &first});
  EXPECT_GT(first.buffer_misses, 0u);
  EXPECT_EQ(first.buffer_misses, first.nodes_visited());
  QueryTrace second;
  DfsNearest(*f.tree, f.queries[0], QueryContext{&pool, &second});
  EXPECT_EQ(second.buffer_misses, 0u);
  EXPECT_EQ(second.buffer_hits, first.nodes_visited());
}

TEST(SearchEdgeTest, EmptyTreeQueries) {
  SgTreeOptions options;
  options.num_bits = 64;
  SgTree tree(options);
  const Signature q = Signature::FromItems(std::vector<uint32_t>{1}, 64);
  EXPECT_TRUE(std::isinf(DfsNearest(tree, q).distance));
  EXPECT_TRUE(DfsKNearest(tree, q, 5).empty());
  EXPECT_TRUE(BestFirstKNearest(tree, q, 5).empty());
  EXPECT_TRUE(RangeSearch(tree, q, 10).empty());
  EXPECT_TRUE(ContainmentSearch(tree, q).empty());
}

TEST(SearchEdgeTest, KZeroReturnsEmpty) {
  const Fixture f = MakeFixture(45, Metric::kHamming, 0, 1);
  EXPECT_TRUE(DfsKNearest(*f.tree, f.queries[0], 0).empty());
  EXPECT_TRUE(BestFirstKNearest(*f.tree, f.queries[0], 0).empty());
}

TEST(SearchEdgeTest, KLargerThanDatasetReturnsAll) {
  const Fixture f = MakeFixture(46, Metric::kHamming, 0, 1);
  const auto result = DfsKNearest(*f.tree, f.queries[0], 100000);
  EXPECT_EQ(result.size(), f.dataset.size());
}

TEST(SearchEdgeTest, QueryEqualToDataPointHasDistanceZero) {
  const Fixture f = MakeFixture(47, Metric::kHamming, 0, 1);
  const auto& txn = f.dataset.transactions[123];
  const Signature q = Signature::FromItems(txn.items, 250);
  const Neighbor nn = DfsNearest(*f.tree, q);
  EXPECT_DOUBLE_EQ(nn.distance, 0.0);
}

}  // namespace
}  // namespace sgtree
