#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/linear_scan.h"
#include "common/rng.h"
#include "sgtree/invariant_auditor.h"
#include "sgtree/search.h"
#include "sgtree/sg_tree.h"
#include "tests/test_util.h"

namespace sgtree {
namespace {

using ::sgtree::testing::ClusteredDataset;
using ::sgtree::testing::RandomSignature;

SgTreeOptions SmallOptions(uint32_t num_bits = 120) {
  SgTreeOptions options;
  options.num_bits = num_bits;
  options.max_entries = 8;
  return options;
}

Signature SigOf(const Transaction& txn, uint32_t bits) {
  return Signature::FromItems(txn.items, bits);
}

// ---------------------------------------------------------------------------
// Deletion.
// ---------------------------------------------------------------------------

TEST(EraseTest, EraseFromSingleLeaf) {
  SgTree tree(SmallOptions());
  const Signature sig =
      Signature::FromItems(std::vector<uint32_t>{1, 2}, 120);
  tree.Insert(sig, 7);
  EXPECT_TRUE(tree.Erase(sig, 7));
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.height(), 0u);
  EXPECT_EQ(tree.node_count(), 0u);
}

TEST(EraseTest, EraseMissingReturnsFalse) {
  SgTree tree(SmallOptions());
  const Signature sig =
      Signature::FromItems(std::vector<uint32_t>{1, 2}, 120);
  tree.Insert(sig, 7);
  EXPECT_FALSE(tree.Erase(sig, 8));  // Wrong tid.
  const Signature other =
      Signature::FromItems(std::vector<uint32_t>{1, 3}, 120);
  EXPECT_FALSE(tree.Erase(other, 7));  // Wrong signature.
  EXPECT_EQ(tree.size(), 1u);
}

TEST(EraseTest, EraseHalfTheTreeKeepsInvariants) {
  const Dataset dataset = ClusteredDataset(5, 600, 120, 8, 10, 2);
  SgTree tree(SmallOptions());
  for (const Transaction& txn : dataset.transactions) tree.Insert(txn);

  for (size_t i = 0; i < dataset.size(); i += 2) {
    ASSERT_TRUE(tree.Erase(dataset.transactions[i]))
        << "tid " << dataset.transactions[i].tid;
  }
  EXPECT_EQ(tree.size(), dataset.size() / 2);
  const AuditReport report = AuditTree(tree);
  EXPECT_TRUE(report.ok()) << report.FirstMessage();

  // Remaining transactions must still be findable; deleted ones must not.
  for (size_t i = 0; i < dataset.size(); ++i) {
    const Signature sig = SigOf(dataset.transactions[i], 120);
    const auto found = ExactSearch(tree, sig);
    const bool deleted = i % 2 == 0;
    const bool present =
        std::find(found.begin(), found.end(), dataset.transactions[i].tid) !=
        found.end();
    EXPECT_EQ(present, !deleted) << "tid " << i;
  }
}

TEST(EraseTest, EraseEverythingEmptiesTree) {
  const Dataset dataset = ClusteredDataset(6, 300, 120, 6, 10, 2);
  SgTree tree(SmallOptions());
  for (const Transaction& txn : dataset.transactions) tree.Insert(txn);
  for (const Transaction& txn : dataset.transactions) {
    ASSERT_TRUE(tree.Erase(txn));
  }
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.node_count(), 0u);
  EXPECT_TRUE(AuditTree(tree).ok());
}

TEST(EraseTest, SignaturesShrinkAfterDeletes) {
  // Deleting the only transaction holding a rare item must remove that item
  // from every ancestor signature (signatures are recomputed, not just
  // grown).
  SgTree tree(SmallOptions());
  Rng rng(7);
  for (uint64_t i = 0; i < 200; ++i) {
    Signature sig = RandomSignature(rng, 120, 0.05);
    sig.Reset(119);  // Bit 119 reserved.
    if (sig.Empty()) sig.Set(0);
    tree.Insert(sig, i);
  }
  Signature rare = Signature::FromItems(std::vector<uint32_t>{0, 119}, 120);
  tree.Insert(rare, 999);
  EXPECT_TRUE(tree.GetNodeNoCharge(tree.root()).Cover().Test(119));
  ASSERT_TRUE(tree.Erase(rare, 999));
  EXPECT_FALSE(tree.GetNodeNoCharge(tree.root()).Cover().Test(119));
  EXPECT_TRUE(AuditTree(tree).ok());
}

TEST(EraseTest, RandomInsertEraseChurnKeepsInvariantsAndExactness) {
  SgTree tree(SmallOptions(150));
  Rng rng(8);
  std::vector<std::pair<Signature, uint64_t>> live;
  uint64_t next_tid = 0;
  for (int step = 0; step < 1500; ++step) {
    const bool insert = live.empty() || rng.Bernoulli(0.6);
    if (insert) {
      Signature sig = RandomSignature(rng, 150, 0.07);
      if (sig.Empty()) sig.Set(3);
      tree.Insert(sig, next_tid);
      live.emplace_back(std::move(sig), next_tid);
      ++next_tid;
    } else {
      const size_t victim = rng.UniformInt(live.size());
      ASSERT_TRUE(tree.Erase(live[victim].first, live[victim].second));
      live.erase(live.begin() + victim);
    }
  }
  EXPECT_EQ(tree.size(), live.size());
  const AuditReport report = AuditTree(tree);
  ASSERT_TRUE(report.ok()) << report.FirstMessage();

  // NN results must match a scan over the live set.
  Dataset live_dataset;
  live_dataset.num_items = 150;
  for (const auto& [sig, tid] : live) {
    Transaction txn;
    txn.tid = tid;
    txn.items = sig.ToItems();
    live_dataset.transactions.push_back(std::move(txn));
  }
  LinearScan scan(live_dataset);
  for (int q = 0; q < 15; ++q) {
    const Signature query = RandomSignature(rng, 150, 0.07);
    EXPECT_DOUBLE_EQ(DfsNearest(tree, query).distance,
                     scan.Nearest(query).distance);
  }
}

TEST(EraseTest, HeightShrinksWhenTreeDrains) {
  SgTree tree(SmallOptions());
  Rng rng(9);
  std::vector<std::pair<Signature, uint64_t>> entries;
  for (uint64_t i = 0; i < 500; ++i) {
    Signature sig = RandomSignature(rng, 120, 0.08);
    if (sig.Empty()) sig.Set(0);
    tree.Insert(sig, i);
    entries.emplace_back(std::move(sig), i);
  }
  const uint32_t tall = tree.height();
  ASSERT_GE(tall, 3u);
  for (size_t i = 0; i < 490; ++i) {
    ASSERT_TRUE(tree.Erase(entries[i].first, entries[i].second));
  }
  EXPECT_LT(tree.height(), tall);
  EXPECT_TRUE(AuditTree(tree).ok());
}

}  // namespace
}  // namespace sgtree
