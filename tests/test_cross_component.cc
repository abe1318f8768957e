// Cross-component coverage: the newer components (incremental iterator,
// static image, joins) under the non-default metrics and the categorical
// fixed-dimensionality configuration — combinations the per-component
// suites do not reach.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/linear_scan.h"
#include "common/rng.h"
#include "data/census_generator.h"
#include "exec/query_api.h"
#include "sgtree/bulk_load.h"
#include "sgtree/incremental.h"
#include "sgtree/join.h"
#include "sgtree/search.h"
#include "static/static_tree_backend.h"
#include "static/static_tree_builder.h"
#include "static/static_tree_view.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace sgtree {
namespace {

using ::sgtree::testing::ClusteredDataset;
using ::sgtree::testing::RandomSignature;

// The tree's static image, reopened from its bytes with `open_options`.
std::unique_ptr<StaticTreeView> StaticImageOf(
    const SgTree& tree, const StaticOpenOptions& open_options = {}) {
  const std::vector<uint8_t> image = BuildStaticImage(tree);
  std::string error;
  auto view = StaticTreeView::OpenFromBytes(image.data(), image.size(),
                                            open_options, &error);
  if (view == nullptr) ADD_FAILURE() << error;
  return view;
}

// 1-NN through the unified API over a static image.
Neighbor StaticNearest(const StaticTreeView& view, const Signature& query,
                       BufferPool* pool = nullptr) {
  QueryRequest request;
  request.query = query;
  const QueryResult result = Execute(StaticTreeBackend(view), request, pool);
  EXPECT_EQ(result.neighbors.size(), 1u);
  return result.neighbors.empty() ? Neighbor{} : result.neighbors.front();
}

class MetricVariantTest : public ::testing::TestWithParam<Metric> {};

TEST_P(MetricVariantTest, IncrementalIteratorExact) {
  const Dataset dataset = ClusteredDataset(700, 600, 180, 8, 10, 2);
  SgTreeOptions options;
  options.num_bits = 180;
  options.max_entries = 10;
  options.metric = GetParam();
  SgTree tree(options);
  for (const Transaction& txn : dataset.transactions) tree.Insert(txn);
  LinearScan scan(dataset);
  Rng rng(701);
  for (int q = 0; q < 8; ++q) {
    Signature query = RandomSignature(rng, 180, 0.05);
    if (query.Empty()) query.Set(0);
    const auto expected = scan.KNearest(query, 12, GetParam());
    NearestIterator it(tree, query);
    for (size_t i = 0; i < expected.size(); ++i) {
      const auto n = it.Next();
      ASSERT_TRUE(n.has_value());
      EXPECT_DOUBLE_EQ(n->distance, expected[i].distance)
          << MetricName(GetParam()) << " i=" << i;
    }
  }
}

TEST_P(MetricVariantTest, StaticViewExact) {
  const Dataset dataset = ClusteredDataset(702, 700, 180, 8, 10, 2);
  SgTreeOptions options;
  options.num_bits = 180;
  SgTree tree(options);
  for (const Transaction& txn : dataset.transactions) tree.Insert(txn);
  // The metric is a runtime option of the view, not part of the image.
  StaticOpenOptions open_options;
  open_options.tree.metric = GetParam();
  const auto view = StaticImageOf(tree, open_options);
  ASSERT_NE(view, nullptr);
  BufferPool pool(8);
  LinearScan scan(dataset);
  Rng rng(703);
  for (int q = 0; q < 10; ++q) {
    Signature query = RandomSignature(rng, 180, 0.05);
    if (query.Empty()) query.Set(0);
    EXPECT_DOUBLE_EQ(StaticNearest(*view, query, &pool).distance,
                     scan.Nearest(query, GetParam()).distance)
        << MetricName(GetParam());
  }
}

TEST_P(MetricVariantTest, SimilarityJoinExact) {
  const Dataset da = ClusteredDataset(704, 120, 120, 5, 9, 2);
  const Dataset db = ClusteredDataset(705, 100, 120, 5, 9, 2);
  SgTreeOptions options;
  options.num_bits = 120;
  options.max_entries = 8;
  options.metric = GetParam();
  auto ta = BulkLoad(da, options);
  auto tb = BulkLoad(db, options);
  const double epsilon = GetParam() == Metric::kHamming ? 6.0 : 0.6;
  const auto pairs = SimilarityJoin(*ta, *tb, epsilon);
  // Brute force.
  uint64_t expected = 0;
  for (const auto& x : da.transactions) {
    const Signature sx = Signature::FromItems(x.items, 120);
    for (const auto& y : db.transactions) {
      const Signature sy = Signature::FromItems(y.items, 120);
      if (Distance(sx, sy, GetParam()) <= epsilon) ++expected;
    }
  }
  EXPECT_EQ(pairs.size(), expected) << MetricName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, MetricVariantTest,
                         ::testing::Values(Metric::kHamming, Metric::kJaccard,
                                           Metric::kDice, Metric::kCosine),
                         [](const auto& info) {
                           return MetricName(info.param);
                         });

// ---------------------------------------------------------------------------
// Categorical (fixed-dim) configuration through the newer components.
// ---------------------------------------------------------------------------

struct CensusFixture {
  Dataset dataset;
  std::unique_ptr<SgTree> tree;
  std::unique_ptr<LinearScan> scan;
  std::vector<Signature> queries;
};

CensusFixture MakeCensus(uint64_t seed) {
  CensusFixture f;
  CensusOptions copt;
  copt.num_tuples = 1500;
  copt.seed = seed;
  CensusGenerator gen(copt);
  f.dataset = gen.Generate();
  SgTreeOptions options;
  options.num_bits = f.dataset.num_items;
  options.fixed_dimensionality = f.dataset.fixed_dimensionality;
  options.max_entries = 12;  // Fine-grained leaves at this small scale.
  f.tree = std::make_unique<SgTree>(options);
  for (const Transaction& txn : f.dataset.transactions) f.tree->Insert(txn);
  f.scan = std::make_unique<LinearScan>(f.dataset);
  for (const Transaction& q : gen.GenerateQueries(10)) {
    f.queries.push_back(Signature::FromItems(q.items, f.dataset.num_items));
  }
  return f;
}

TEST(CensusCrossTest, IncrementalIteratorUsesTightBound) {
  const CensusFixture f = MakeCensus(710);
  for (const Signature& q : f.queries) {
    const auto expected = f.scan->KNearest(q, 8);
    NearestIterator it(*f.tree, q);
    for (size_t i = 0; i < expected.size(); ++i) {
      const auto n = it.Next();
      ASSERT_TRUE(n.has_value());
      EXPECT_DOUBLE_EQ(n->distance, expected[i].distance);
    }
  }
  // Pruning assertion on a near query (one attribute flipped from a real
  // tuple): the first neighbor must surface without a full traversal.
  Signature near = Signature::FromItems(f.dataset.transactions[17].items,
                                        f.dataset.num_items);
  const auto items = near.ToItems();
  near.Reset(items[0]);
  near.Set(items[0] == 0 ? 1 : items[0] - 1);
  QueryTrace trace;
  NearestIterator it(*f.tree, near, QueryContext{nullptr, &trace});
  ASSERT_TRUE(it.Next().has_value());
  EXPECT_LT(trace.candidates_verified, f.dataset.size() / 2);
}

TEST(CensusCrossTest, StaticImageCarriesAreaStats) {
  const CensusFixture f = MakeCensus(711);
  const auto view = StaticImageOf(*f.tree);
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->TransactionAreaBounds(),
            (std::pair<uint32_t, uint32_t>{36, 36}));
  for (const Signature& q : f.queries) {
    EXPECT_DOUBLE_EQ(StaticNearest(*view, q).distance,
                     f.scan->Nearest(q).distance);
  }
}

TEST(CensusCrossTest, AllNearestOnCategoricalData) {
  const CensusFixture f = MakeCensus(712);
  for (const Signature& q : f.queries) {
    const auto ties = AllNearest(*f.tree, q);
    ASSERT_FALSE(ties.empty());
    const double best = f.scan->Nearest(q).distance;
    for (const Neighbor& n : ties) EXPECT_DOUBLE_EQ(n.distance, best);
    // Census distances are even; ties respect that.
    EXPECT_EQ(static_cast<long long>(best) % 2, 0);
  }
}

TEST(CensusCrossTest, ClosestPairsUseFixedDimBound) {
  CensusFixture a = MakeCensus(713);
  CensusFixture b = MakeCensus(714);
  const auto pairs = ClosestPairs(*a.tree, *b.tree, 3);
  ASSERT_EQ(pairs.size(), 3u);
  // Verify the best pair against a (sampled) brute force: the reported
  // distance must be achievable and minimal over the full cross product.
  double best = 1e18;
  for (const auto& x : a.dataset.transactions) {
    const Signature sx = Signature::FromItems(x.items, a.dataset.num_items);
    for (const auto& y : b.dataset.transactions) {
      const Signature sy =
          Signature::FromItems(y.items, b.dataset.num_items);
      best = std::min(best, Distance(sx, sy, Metric::kHamming));
    }
  }
  EXPECT_DOUBLE_EQ(pairs.front().distance, best);
}

}  // namespace
}  // namespace sgtree
