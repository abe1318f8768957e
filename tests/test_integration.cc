// End-to-end scenarios exercising both indexes, the generators and the
// search algorithms together — miniature versions of the paper's
// experiments, asserting agreement rather than performance.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/linear_scan.h"
#include "common/rng.h"
#include "data/census_generator.h"
#include "data/quest_generator.h"
#include "sgtable/sg_table.h"
#include "sgtree/bulk_load.h"
#include "sgtree/invariant_auditor.h"
#include "sgtree/search.h"
#include "sgtree/sg_tree.h"
#include "storage/buffer_pool.h"

namespace sgtree {
namespace {

struct Workbench {
  Dataset dataset;
  std::vector<Transaction> queries;
  std::unique_ptr<SgTree> tree;
  std::unique_ptr<SgTable> table;
  std::unique_ptr<LinearScan> scan;
};

Workbench QuestBench(uint64_t seed, uint32_t d = 2500) {
  Workbench w;
  QuestOptions qopt;
  qopt.num_transactions = d;
  qopt.num_items = 400;
  qopt.num_patterns = 60;
  qopt.avg_transaction_size = 12;
  qopt.avg_itemset_size = 6;
  qopt.seed = seed;
  QuestGenerator gen(qopt);
  w.dataset = gen.Generate();
  w.queries = gen.GenerateQueries(20);

  SgTreeOptions topt;
  topt.num_bits = 400;
  topt.max_entries = 16;
  w.tree = std::make_unique<SgTree>(topt);
  for (const Transaction& txn : w.dataset.transactions) w.tree->Insert(txn);

  SgTableOptions sopt;
  sopt.clustering.num_signatures = 10;
  w.table = std::make_unique<SgTable>(w.dataset, sopt);
  w.scan = std::make_unique<LinearScan>(w.dataset);
  return w;
}

TEST(IntegrationTest, AllThreeIndexesAgreeOnQuestNn) {
  const Workbench w = QuestBench(100);
  for (const Transaction& q : w.queries) {
    const Signature sig = Signature::FromItems(q.items, 400);
    const double expected = w.scan->Nearest(sig).distance;
    EXPECT_DOUBLE_EQ(DfsNearest(*w.tree, sig).distance, expected);
    EXPECT_DOUBLE_EQ(w.table->Nearest(sig).distance, expected);
  }
}

TEST(IntegrationTest, AllThreeIndexesAgreeOnQuestKnnAndRange) {
  const Workbench w = QuestBench(101);
  for (const Transaction& q : w.queries) {
    const Signature sig = Signature::FromItems(q.items, 400);
    const auto knn_scan = w.scan->KNearest(sig, 10);
    const auto knn_tree = DfsKNearest(*w.tree, sig, 10);
    const auto knn_table = w.table->KNearest(sig, 10);
    for (size_t i = 0; i < 10; ++i) {
      EXPECT_DOUBLE_EQ(knn_tree[i].distance, knn_scan[i].distance);
      EXPECT_DOUBLE_EQ(knn_table[i].distance, knn_scan[i].distance);
    }
    const auto range_scan = w.scan->Range(sig, 8.0);
    EXPECT_EQ(RangeSearch(*w.tree, sig, 8.0).size(), range_scan.size());
    EXPECT_EQ(w.table->Range(sig, 8.0).size(), range_scan.size());
  }
}

TEST(IntegrationTest, CensusPipelineEndToEnd) {
  CensusOptions copt;
  copt.num_tuples = 3000;
  copt.seed = 102;
  CensusGenerator gen(copt);
  const Dataset dataset = gen.Generate();

  SgTreeOptions topt;
  topt.num_bits = dataset.num_items;
  topt.fixed_dimensionality = dataset.fixed_dimensionality;
  auto tree = BulkLoad(dataset, topt);
  ASSERT_TRUE(AuditTree(*tree).ok());

  SgTableOptions sopt;
  sopt.clustering.num_signatures = 12;
  SgTable table(dataset, sopt);
  LinearScan scan(dataset);

  for (const Transaction& q : gen.GenerateQueries(20)) {
    const Signature sig = Signature::FromItems(q.items, dataset.num_items);
    const double expected = scan.Nearest(sig).distance;
    EXPECT_DOUBLE_EQ(DfsNearest(*tree, sig).distance, expected);
    EXPECT_DOUBLE_EQ(table.Nearest(sig).distance, expected);
    // Census distances are even (fixed dimensionality 36).
    EXPECT_EQ(static_cast<long long>(expected) % 2, 0);
  }
}

TEST(IntegrationTest, DynamicBatchesStayExact) {
  // Figure 17 scenario in miniature: insert batches with different seeds
  // into both structures; both must stay exact (the SG-table only loses
  // efficiency, never correctness).
  QuestOptions base;
  base.num_transactions = 800;
  base.num_items = 300;
  base.num_patterns = 100;
  base.seed = 103;
  QuestGenerator first(base);
  Dataset all = first.Generate();

  SgTreeOptions topt;
  topt.num_bits = 300;
  SgTree tree(topt);
  for (const Transaction& txn : all.transactions) tree.Insert(txn);
  SgTableOptions sopt;
  sopt.clustering.num_signatures = 10;
  SgTable table(all, sopt);

  for (uint64_t batch = 1; batch <= 3; ++batch) {
    QuestOptions bopt = base;
    bopt.seed = base.seed + batch * 17;
    QuestGenerator gen(bopt);
    Dataset extra = gen.Generate();
    for (Transaction& txn : extra.transactions) {
      txn.tid += batch * 10000;
      tree.Insert(txn);
      table.Insert(txn);
      all.transactions.push_back(txn);
    }
  }
  ASSERT_TRUE(AuditTree(tree).ok());
  LinearScan scan(all);
  QuestGenerator query_gen(base);
  for (const Transaction& q : query_gen.GenerateQueries(15)) {
    const Signature sig = Signature::FromItems(q.items, 300);
    const double expected = scan.Nearest(sig).distance;
    EXPECT_DOUBLE_EQ(DfsNearest(tree, sig).distance, expected);
    EXPECT_DOUBLE_EQ(table.Nearest(sig).distance, expected);
  }
}

TEST(IntegrationTest, TreePrunesBetterThanScanOnClusteredData) {
  const Workbench w = QuestBench(104, 4000);
  QueryTrace tree_trace;
  for (const Transaction& q : w.queries) {
    const Signature sig = Signature::FromItems(q.items, 400);
    DfsNearest(*w.tree, sig, QueryContext{nullptr, &tree_trace});
  }
  const uint64_t full = w.queries.size() * w.dataset.size();
  // The headline property: the index avoids a large share of the data even
  // at this miniature scale (pruning improves with cardinality, Figure 11).
  EXPECT_LT(tree_trace.candidates_verified, full * 0.75);
}

TEST(IntegrationTest, BulkAndIncrementalTreesAgreeEverywhere) {
  const Workbench w = QuestBench(105, 1500);
  SgTreeOptions topt;
  topt.num_bits = 400;
  auto bulk = BulkLoad(w.dataset, topt);
  for (const Transaction& q : w.queries) {
    const Signature sig = Signature::FromItems(q.items, 400);
    EXPECT_DOUBLE_EQ(DfsNearest(*bulk, sig).distance,
                     DfsNearest(*w.tree, sig).distance);
  }
}

TEST(IntegrationTest, MixedWorkloadSurvivesEverything) {
  // Insert, query, delete, bulk-compare, re-insert: a downstream user's
  // session in one test.
  const Workbench w = QuestBench(106, 1200);
  ASSERT_TRUE(AuditTree(*w.tree).ok());

  // Delete a third.
  for (size_t i = 0; i < w.dataset.size(); i += 3) {
    ASSERT_TRUE(w.tree->Erase(w.dataset.transactions[i]));
  }
  ASSERT_TRUE(AuditTree(*w.tree).ok());

  // Remaining data as ground truth.
  Dataset remaining;
  remaining.num_items = 400;
  for (size_t i = 0; i < w.dataset.size(); ++i) {
    if (i % 3 != 0) remaining.transactions.push_back(w.dataset.transactions[i]);
  }
  LinearScan scan(remaining);
  for (const Transaction& q : w.queries) {
    const Signature sig = Signature::FromItems(q.items, 400);
    EXPECT_DOUBLE_EQ(DfsNearest(*w.tree, sig).distance,
                     scan.Nearest(sig).distance);
  }

  // Re-insert the deleted third; results must match the full scan again.
  for (size_t i = 0; i < w.dataset.size(); i += 3) {
    w.tree->Insert(w.dataset.transactions[i]);
  }
  ASSERT_TRUE(AuditTree(*w.tree).ok());
  for (const Transaction& q : w.queries) {
    const Signature sig = Signature::FromItems(q.items, 400);
    EXPECT_DOUBLE_EQ(DfsNearest(*w.tree, sig).distance,
                     w.scan->Nearest(sig).distance);
  }
}

TEST(IntegrationTest, BufferPoolReducesIosOnRepeatedQueries) {
  const Workbench w = QuestBench(107, 2000);
  const Signature sig =
      Signature::FromItems(w.queries[0].items, 400);
  BufferPool pool(64);  // The caller's buffer, warm for the second query.
  QueryTrace cold;
  DfsNearest(*w.tree, sig, QueryContext{&pool, &cold});
  QueryTrace warm;
  DfsNearest(*w.tree, sig, QueryContext{&pool, &warm});
  EXPECT_LT(warm.buffer_misses, cold.buffer_misses + 1);  // Warm <= cold.
  EXPECT_GT(warm.buffer_hits, 0u);
  EXPECT_EQ(warm.nodes_visited(), cold.nodes_visited());
}

}  // namespace
}  // namespace sgtree
