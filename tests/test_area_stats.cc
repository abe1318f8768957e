// Tests for the transaction-size-statistics bound (the Section 6
// "statistics from the indexed data" generalization) and its integration
// into the tree.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/linear_scan.h"
#include "common/distance.h"
#include "common/rng.h"
#include "data/census_generator.h"
#include "sgtree/search.h"
#include "sgtree/sg_tree.h"
#include "tests/test_util.h"

namespace sgtree {
namespace {

using ::sgtree::testing::RandomItems;
using ::sgtree::testing::RandomSignature;

class AreaStatsBoundTest : public ::testing::TestWithParam<Metric> {};

TEST_P(AreaStatsBoundTest, SoundForSizeConstrainedGroups) {
  Rng rng(401);
  const uint32_t bits = 200;
  for (int trial = 0; trial < 200; ++trial) {
    const uint32_t lo = 2 + static_cast<uint32_t>(rng.UniformInt(6));
    const uint32_t hi = lo + static_cast<uint32_t>(rng.UniformInt(8));
    Signature cover(bits);
    std::vector<Signature> members;
    for (int g = 0; g < 5; ++g) {
      const auto size =
          lo + static_cast<uint32_t>(rng.UniformInt(hi - lo + 1));
      const Signature t =
          Signature::FromItems(RandomItems(rng, bits, size), bits);
      cover.UnionWith(t);
      members.push_back(t);
    }
    const Signature query = RandomSignature(rng, bits, 0.05);
    const double bound =
        MinDistBoundAreaStats(query, cover, GetParam(), lo, hi);
    for (const Signature& t : members) {
      EXPECT_LE(bound, Distance(query, t, GetParam()) + 1e-12)
          << MetricName(GetParam()) << " lo=" << lo << " hi=" << hi;
    }
  }
}

TEST_P(AreaStatsBoundTest, TrivialWindowEqualsGenericBound) {
  Rng rng(402);
  for (int trial = 0; trial < 100; ++trial) {
    const Signature query = RandomSignature(rng, 150, 0.08);
    const Signature cover = RandomSignature(rng, 150, 0.3);
    EXPECT_DOUBLE_EQ(
        MinDistBoundAreaStats(query, cover, GetParam(), 0, 150),
        MinDistBound(query, cover, GetParam()));
  }
}

TEST_P(AreaStatsBoundTest, NeverLooserThanGeneric) {
  Rng rng(403);
  for (int trial = 0; trial < 100; ++trial) {
    const Signature query = RandomSignature(rng, 150, 0.08);
    const Signature cover = RandomSignature(rng, 150, 0.3);
    const uint32_t lo = static_cast<uint32_t>(rng.UniformInt(20));
    const uint32_t hi = lo + static_cast<uint32_t>(rng.UniformInt(130));
    EXPECT_GE(MinDistBoundAreaStats(query, cover, GetParam(), lo, hi) + 1e-12,
              MinDistBound(query, cover, GetParam()));
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, AreaStatsBoundTest,
                         ::testing::Values(Metric::kHamming, Metric::kJaccard,
                                           Metric::kDice, Metric::kCosine),
                         [](const auto& info) {
                           return MetricName(info.param);
                         });

TEST(AreaStatsBoundTest, DegenerateWindowEqualsFixedDimForHamming) {
  Rng rng(404);
  for (int trial = 0; trial < 100; ++trial) {
    const Signature query =
        Signature::FromItems(RandomItems(rng, 100, 8), 100);
    const Signature cover = RandomSignature(rng, 100, 0.3);
    EXPECT_DOUBLE_EQ(
        MinDistBoundAreaStats(query, cover, Metric::kHamming, 8, 8),
        MinDistBound(query, cover, Metric::kHamming, 8));
  }
}

TEST(AreaStatsBoundTest, EmptyQueryBoundIsMinArea) {
  // dist(empty, t) = |t| >= min_area.
  const Signature query(64);
  Signature cover(64);
  cover.Set(3);
  cover.Set(9);
  EXPECT_DOUBLE_EQ(
      MinDistBoundAreaStats(query, cover, Metric::kHamming, 5, 20), 5.0);
}

// ---------------------------------------------------------------------------
// Tree integration.
// ---------------------------------------------------------------------------

TEST(TreeAreaStatsTest, TracksObservedWindow) {
  SgTreeOptions options;
  options.num_bits = 64;
  options.max_entries = 6;
  SgTree tree(options);
  EXPECT_EQ(tree.TransactionAreaBounds(), (std::pair<uint32_t, uint32_t>{
                                              0, 64}));  // Nothing seen.
  tree.Insert(Signature::FromItems(std::vector<uint32_t>{1, 2, 3}, 64), 1);
  tree.Insert(
      Signature::FromItems(std::vector<uint32_t>{4, 5, 6, 7, 8}, 64), 2);
  EXPECT_EQ(tree.TransactionAreaBounds(),
            (std::pair<uint32_t, uint32_t>{3, 5}));
}

TEST(TreeAreaStatsTest, FixedDimOverridesObservation) {
  SgTreeOptions options;
  options.num_bits = 64;
  options.fixed_dimensionality = 4;
  SgTree tree(options);
  tree.Insert(Signature::FromItems(std::vector<uint32_t>{1, 2, 3, 4}, 64),
              1);
  EXPECT_EQ(tree.TransactionAreaBounds(),
            (std::pair<uint32_t, uint32_t>{4, 4}));
}

TEST(TreeAreaStatsTest, DisabledFallsBackToTrivialWindow) {
  SgTreeOptions options;
  options.num_bits = 64;
  options.use_area_stats = false;
  SgTree tree(options);
  tree.Insert(Signature::FromItems(std::vector<uint32_t>{1, 2}, 64), 1);
  EXPECT_EQ(tree.TransactionAreaBounds(),
            (std::pair<uint32_t, uint32_t>{0, 64}));
}

TEST(TreeAreaStatsTest, StatsLearnFixedDimensionalityOnCensus) {
  CensusOptions copt;
  copt.num_tuples = 2000;
  copt.seed = 41;
  CensusGenerator gen(copt);
  const Dataset census = gen.Generate();

  SgTreeOptions learned;
  learned.num_bits = census.num_items;  // fixed_dimensionality NOT set.
  SgTree tree_learned(learned);
  SgTreeOptions configured = learned;
  configured.fixed_dimensionality = census.fixed_dimensionality;
  SgTree tree_configured(configured);
  for (const Transaction& txn : census.transactions) {
    tree_learned.Insert(txn);
    tree_configured.Insert(txn);
  }
  EXPECT_EQ(tree_learned.TransactionAreaBounds(),
            (std::pair<uint32_t, uint32_t>{36, 36}));

  // Identical structure + identical effective bound => identical pruning.
  QueryTrace learned_trace;
  QueryTrace configured_trace;
  for (const Transaction& q : gen.GenerateQueries(25)) {
    const Signature sig = Signature::FromItems(q.items, census.num_items);
    const Neighbor a = DfsNearest(
        tree_learned, sig, tree_learned.OwnPoolContext(&learned_trace));
    const Neighbor b = DfsNearest(
        tree_configured, sig,
        tree_configured.OwnPoolContext(&configured_trace));
    EXPECT_DOUBLE_EQ(a.distance, b.distance);
  }
  EXPECT_EQ(learned_trace.candidates_verified,
            configured_trace.candidates_verified);
}

TEST(TreeAreaStatsTest, ExactnessWithMixedSizes) {
  // Wildly varying transaction sizes: bounds must stay sound.
  Rng rng(42);
  Dataset dataset;
  dataset.num_items = 150;
  for (uint64_t i = 0; i < 600; ++i) {
    Transaction txn;
    txn.tid = i;
    const auto size = 1 + static_cast<uint32_t>(rng.UniformInt(40));
    txn.items = RandomItems(rng, 150, size);
    dataset.transactions.push_back(std::move(txn));
  }
  SgTreeOptions options;
  options.num_bits = 150;
  options.max_entries = 10;
  SgTree tree(options);
  for (const Transaction& txn : dataset.transactions) tree.Insert(txn);
  LinearScan scan(dataset);
  for (int q = 0; q < 25; ++q) {
    Signature query = RandomSignature(rng, 150, 0.05);
    if (query.Empty()) query.Set(0);
    EXPECT_DOUBLE_EQ(
        DfsNearest(tree, query, tree.OwnPoolContext()).distance,
                     scan.Nearest(query).distance);
    EXPECT_EQ(RangeSearch(tree, query, 10.0, tree.OwnPoolContext()).size(),
              scan.Range(query, 10.0).size());
  }
}

}  // namespace
}  // namespace sgtree
