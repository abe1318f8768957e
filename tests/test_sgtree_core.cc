#include "sgtree/sg_tree.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sgtree/choose_subtree.h"
#include "sgtree/invariant_auditor.h"
#include "sgtree/search.h"
#include "sgtree/split.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace sgtree {
namespace {

using ::sgtree::testing::ClusteredDataset;
using ::sgtree::testing::RandomSignature;

SgTreeOptions SmallOptions(uint32_t num_bits = 100) {
  SgTreeOptions options;
  options.num_bits = num_bits;
  options.max_entries = 8;
  return options;
}

// ---------------------------------------------------------------------------
// Options / capacity derivation.
// ---------------------------------------------------------------------------

TEST(SgTreeOptionsTest, CapacityDerivedFromPageSize) {
  SgTreeOptions options;
  options.num_bits = 1000;  // 126 dense bytes + tag + 8-byte ref = 134.
  options.page_size = 4096;
  const uint32_t capacity = options.ResolvedMaxEntries();
  // "In practice C is in the order of several tens" — 4K pages, 1000-bit
  // signatures: around 30 entries.
  EXPECT_GE(capacity, 20u);
  EXPECT_LE(capacity, 40u);
  EXPECT_EQ(capacity, (4096u - 4) / (8 + 1 + 125));
}

TEST(SgTreeOptionsTest, ExplicitCapacityWins) {
  SgTreeOptions options;
  options.num_bits = 1000;
  options.max_entries = 12;
  EXPECT_EQ(options.ResolvedMaxEntries(), 12u);
  EXPECT_EQ(options.ResolvedMinEntries(), 4u);  // 40% of 12, <= M/2.
}

TEST(SgTreeOptionsTest, MinEntriesClampedToHalf) {
  SgTreeOptions options;
  options.num_bits = 64;
  options.max_entries = 4;
  options.min_fill_fraction = 0.9;
  EXPECT_EQ(options.ResolvedMinEntries(), 2u);
}

// ---------------------------------------------------------------------------
// ChooseSubtree (Section 3.1 cases).
// ---------------------------------------------------------------------------

Entry MakeEntry(std::initializer_list<uint32_t> items, uint64_t ref,
                uint32_t bits = 32) {
  return Entry{Signature::FromItems(std::vector<uint32_t>(items), bits), ref};
}

// A standalone node record at `level` holding `entries`, `bits` wide.
std::vector<uint64_t> MakeRecord(uint16_t level,
                                 const std::vector<Entry>& entries,
                                 uint32_t bits = 32) {
  std::vector<uint64_t> record(
      NodeRecordWords(entries.size(), WordsForBits(bits)));
  MutableNodeView node(record.data(), bits);
  node.Reset(level);
  for (const Entry& entry : entries) node.Append(entry.sig.words(), entry.ref);
  return record;
}

TEST(ChooseSubtreeTest, SingleContainingEntryWins) {
  const std::vector<uint64_t> record =
      MakeRecord(1, {MakeEntry({0, 1, 2, 3, 4, 5, 6, 7}, 0),
                     MakeEntry({10, 11, 12}, 1)});
  const NodeView node(record.data(), 32);
  const Signature sig = Signature::FromItems(std::vector<uint32_t>{10, 12}, 32);
  EXPECT_EQ(ChooseSubtree(node, sig, ChooseSubtreePolicy::kMinEnlargement),
            1u);
}

TEST(ChooseSubtreeTest, MultipleContainingPicksMinArea) {
  const std::vector<uint64_t> record =
      MakeRecord(1, {MakeEntry({0, 1, 2, 3, 4, 5, 6, 7}, 0),
                     MakeEntry({0, 1, 2}, 1),  // Smaller area.
                     MakeEntry({0, 1, 2, 3, 4}, 2)});
  const NodeView node(record.data(), 32);
  const Signature sig = Signature::FromItems(std::vector<uint32_t>{0, 2}, 32);
  EXPECT_EQ(ChooseSubtree(node, sig, ChooseSubtreePolicy::kMinEnlargement),
            1u);
  // Containment beats enlargement under both policies.
  EXPECT_EQ(ChooseSubtree(node, sig, ChooseSubtreePolicy::kMinOverlap), 1u);
}

TEST(ChooseSubtreeTest, NoContainingPicksMinEnlargement) {
  const std::vector<uint64_t> record =
      MakeRecord(1, {MakeEntry({0, 1, 2, 3}, 0),       // Needs 2 new bits.
                     MakeEntry({8, 9, 10, 20}, 1)});  // Needs 1 new bit.
  const NodeView node(record.data(), 32);
  const Signature sig =
      Signature::FromItems(std::vector<uint32_t>{8, 9, 21}, 32);
  EXPECT_EQ(ChooseSubtree(node, sig, ChooseSubtreePolicy::kMinEnlargement),
            1u);
}

TEST(ChooseSubtreeTest, EnlargementTieBrokenByArea) {
  const std::vector<uint64_t> record =
      MakeRecord(1, {MakeEntry({0, 1, 2, 3, 4}, 0),  // Area 5.
                     MakeEntry({10, 11}, 1)});       // Area 2.
  const NodeView node(record.data(), 32);
  // One new bit for either entry.
  const Signature sig = Signature::FromItems(std::vector<uint32_t>{20}, 32);
  EXPECT_EQ(ChooseSubtree(node, sig, ChooseSubtreePolicy::kMinEnlargement),
            1u);
}

TEST(ChooseSubtreeTest, MinOverlapAvoidsSharedGrowth) {
  // Entry 0 overlaps entry 2 heavily if enlarged towards {4,5}; entry 1
  // grows the same amount without new overlap.
  const std::vector<uint64_t> record =
      MakeRecord(1, {MakeEntry({0, 1, 2, 3}, 0),
                     MakeEntry({20, 21, 22, 23}, 1),
                     MakeEntry({4, 5, 6, 7}, 2)});
  const NodeView node(record.data(), 32);
  const Signature sig = Signature::FromItems(std::vector<uint32_t>{4, 5}, 32);
  // {4,5} is contained in entry 2 — containment wins. Use {5, 30} instead:
  const Signature sig2 =
      Signature::FromItems(std::vector<uint32_t>{5, 30}, 32);
  // Enlargement: e0 += 2, e1 += 2, e2 += 1 -> min-enlargement picks e2.
  EXPECT_EQ(ChooseSubtree(node, sig2, ChooseSubtreePolicy::kMinEnlargement),
            2u);
  (void)sig;
}

// ---------------------------------------------------------------------------
// Split policies.
// ---------------------------------------------------------------------------

class SplitPolicyTest : public ::testing::TestWithParam<SplitPolicy> {};

TEST_P(SplitPolicyTest, PreservesEntriesAndRespectsMinFill) {
  Rng rng(55);
  for (int trial = 0; trial < 30; ++trial) {
    const uint32_t n = 9;
    const uint32_t min_entries = 3;
    std::vector<Entry> input;
    std::set<uint64_t> refs;
    for (uint32_t i = 0; i < n; ++i) {
      input.push_back(Entry{RandomSignature(rng, 64, 0.2), i});
      refs.insert(i);
    }
    const std::vector<uint64_t> record = MakeRecord(0, input, 64);
    const NodeView node(record.data(), 64);
    const SplitResult result = SplitEntries(node, GetParam(), min_entries);
    EXPECT_GE(result.first.size(), min_entries);
    EXPECT_GE(result.second.size(), min_entries);
    EXPECT_EQ(result.first.size() + result.second.size(), n);
    std::set<uint64_t> seen;
    for (const size_t i : result.first) seen.insert(node.EntryAt(i).ref);
    for (const size_t i : result.second) seen.insert(node.EntryAt(i).ref);
    EXPECT_EQ(seen, refs);  // No entry lost or duplicated.
  }
}

TEST_P(SplitPolicyTest, SeparatesTwoObviousClusters) {
  // Two tight disjoint item blocks (intra-cluster distance 2, inter 6) must
  // end up in different groups under every policy.
  std::vector<Entry> input;
  input.push_back(MakeEntry({0, 1, 2}, 0, 64));
  input.push_back(MakeEntry({0, 1, 3}, 1, 64));
  input.push_back(MakeEntry({0, 2, 3}, 2, 64));
  input.push_back(MakeEntry({1, 2, 3}, 3, 64));
  input.push_back(MakeEntry({40, 41, 42}, 100, 64));
  input.push_back(MakeEntry({40, 41, 43}, 101, 64));
  input.push_back(MakeEntry({40, 42, 43}, 102, 64));
  input.push_back(MakeEntry({41, 42, 43}, 103, 64));
  const std::vector<uint64_t> record = MakeRecord(0, input, 64);
  const NodeView node(record.data(), 64);
  const SplitResult result = SplitEntries(node, GetParam(), 3);
  auto side = [&](size_t i) { return node.EntryAt(i).ref < 100 ? 0 : 1; };
  for (const auto& group : {result.first, result.second}) {
    ASSERT_FALSE(group.empty());
    const int expected = side(group.front());
    for (const size_t i : group) EXPECT_EQ(side(i), expected);
  }
}

TEST_P(SplitPolicyTest, MinimumInputOfTwo) {
  std::vector<Entry> input;
  input.push_back(MakeEntry({1, 2}, 0, 64));
  input.push_back(MakeEntry({5, 6}, 1, 64));
  const std::vector<uint64_t> record = MakeRecord(0, input, 64);
  const SplitResult result =
      SplitEntries(NodeView(record.data(), 64), GetParam(), 1);
  EXPECT_EQ(result.first.size(), 1u);
  EXPECT_EQ(result.second.size(), 1u);
}

TEST_P(SplitPolicyTest, IdenticalSignaturesStillBalance) {
  std::vector<Entry> input;
  for (uint32_t i = 0; i < 10; ++i) {
    input.push_back(MakeEntry({3, 4, 5}, i, 64));
  }
  const std::vector<uint64_t> record = MakeRecord(0, input, 64);
  const SplitResult result =
      SplitEntries(NodeView(record.data(), 64), GetParam(), 4);
  EXPECT_GE(result.first.size(), 4u);
  EXPECT_GE(result.second.size(), 4u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SplitPolicyTest,
                         ::testing::Values(SplitPolicy::kLinear,
                                           SplitPolicy::kQuadratic,
                                           SplitPolicy::kAverage,
                                           SplitPolicy::kMinimum),
                         [](const auto& info) {
                           return SplitPolicyName(info.param);
                         });

// ---------------------------------------------------------------------------
// Tree construction invariants.
// ---------------------------------------------------------------------------

TEST(SgTreeTest, EmptyTree) {
  SgTree tree(SmallOptions());
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.height(), 0u);
  EXPECT_EQ(tree.node_count(), 0u);
  const AuditReport report = AuditTree(tree);
  EXPECT_TRUE(report.ok()) << report.FirstMessage();
}

TEST(SgTreeTest, SingleInsert) {
  SgTree tree(SmallOptions());
  tree.Insert(Signature::FromItems(std::vector<uint32_t>{1, 5, 7}, 100), 42);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.height(), 1u);
  const NodeView root = tree.GetNodeNoCharge(tree.root());
  EXPECT_TRUE(root.IsLeaf());
  ASSERT_EQ(root.Count(), 1u);
  EXPECT_EQ(root.EntryAt(0).ref, 42u);
}

TEST(SgTreeTest, RootSplitsGrowHeight) {
  SgTree tree(SmallOptions());
  Rng rng(66);
  for (uint64_t i = 0; i < 9; ++i) {  // Capacity 8: the 9th forces a split.
    tree.Insert(RandomSignature(rng, 100, 0.1), i);
  }
  EXPECT_EQ(tree.height(), 2u);
  const AuditReport report = AuditTree(tree);
  EXPECT_TRUE(report.ok()) << report.FirstMessage();
}

class TreeInvariantTest
    : public ::testing::TestWithParam<std::tuple<SplitPolicy,
                                                 ChooseSubtreePolicy>> {};

TEST_P(TreeInvariantTest, ThousandInsertsKeepInvariants) {
  SgTreeOptions options = SmallOptions(200);
  options.split_policy = std::get<0>(GetParam());
  options.choose_policy = std::get<1>(GetParam());
  SgTree tree(options);
  const Dataset dataset = ClusteredDataset(77, 1000, 200, 12, 10, 3);
  for (const Transaction& txn : dataset.transactions) {
    tree.Insert(txn);
  }
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_GE(tree.height(), 3u);
  const AuditReport report = AuditTree(tree);
  EXPECT_TRUE(report.ok()) << report.FirstMessage();
  EXPECT_EQ(report.stats.leaf_entries, 1000u);
  // 40% minimum fill must hold on average with margin.
  EXPECT_GE(report.stats.avg_utilization, 0.4);
}

INSTANTIATE_TEST_SUITE_P(
    PolicyMatrix, TreeInvariantTest,
    ::testing::Combine(::testing::Values(SplitPolicy::kLinear,
                                         SplitPolicy::kQuadratic,
                                         SplitPolicy::kAverage,
                                         SplitPolicy::kMinimum),
                       ::testing::Values(ChooseSubtreePolicy::kMinEnlargement,
                                         ChooseSubtreePolicy::kMinOverlap)),
    [](const auto& info) {
      return SplitPolicyName(std::get<0>(info.param)) + "_" +
             ChooseSubtreePolicyName(std::get<1>(info.param));
    });

TEST(SgTreeTest, DirectorySignaturesCoverEveryInsertedTransaction) {
  SgTree tree(SmallOptions(150));
  Rng rng(88);
  std::vector<Signature> inserted;
  for (uint64_t i = 0; i < 300; ++i) {
    Signature sig = RandomSignature(rng, 150, 0.08);
    if (sig.Empty()) sig.Set(0);
    tree.Insert(sig, i);
    inserted.push_back(std::move(sig));
  }
  const Signature root_cover = tree.GetNodeNoCharge(tree.root()).Cover();
  for (const Signature& sig : inserted) {
    EXPECT_TRUE(root_cover.Contains(sig));
  }
}

TEST(SgTreeTest, ClusteredDataProducesSmallerAreasThanShuffledClusters) {
  // Sanity of the quality goal: with the clustering split, leaf-level
  // directory areas on clustered data stay far below the dictionary size.
  SgTreeOptions options = SmallOptions(300);
  options.max_entries = 16;
  SgTree tree(options);
  const Dataset dataset = ClusteredDataset(99, 800, 300, 8, 12, 2);
  for (const Transaction& txn : dataset.transactions) tree.Insert(txn);
  const AuditReport report = AuditTree(tree);
  ASSERT_TRUE(report.ok()) << report.FirstMessage();
  ASSERT_GE(report.stats.avg_entry_area.size(), 2u);
  // Level-1 entries cover whole leaves; on well-clustered data their area
  // stays near the cluster footprint (~12-25 bits), not the full 300.
  EXPECT_LT(report.stats.avg_entry_area[1], 150.0);
}

TEST(SgTreeTest, NodeCountTracksAllocations) {
  SgTree tree(SmallOptions());
  Rng rng(111);
  for (uint64_t i = 0; i < 200; ++i) {
    tree.Insert(RandomSignature(rng, 100, 0.1), i);
  }
  const AuditReport report = AuditTree(tree);
  ASSERT_TRUE(report.ok()) << report.FirstMessage();
  EXPECT_EQ(report.stats.node_count, tree.node_count());
  EXPECT_EQ(tree.LiveNodes().size(), tree.node_count());
}

TEST(SgTreeTest, InsertsChargeBufferPool) {
  // Inserts simulate no I/O; a query charges its reads to the pool its
  // caller brings, so a repeated query through one pool hits where the
  // first read missed.
  SgTree tree(SmallOptions());
  Rng rng(112);
  for (uint64_t i = 0; i < 100; ++i) {
    tree.Insert(RandomSignature(rng, 100, 0.1), i);
  }
  const Signature query = RandomSignature(rng, 100, 0.1);
  BufferPool pool(static_cast<uint32_t>(tree.node_count()));
  QueryTrace cold;
  DfsNearest(tree, query, QueryContext{&pool, &cold});
  QueryTrace warm;
  DfsNearest(tree, query, QueryContext{&pool, &warm});
  EXPECT_GT(cold.buffer_misses, 0u);
  EXPECT_EQ(cold.buffer_hits, 0u);
  EXPECT_EQ(warm.buffer_misses, 0u);
  EXPECT_EQ(warm.buffer_hits, cold.buffer_misses);
}

TEST(SgTreeTest, DuplicateSignaturesSupported) {
  SgTree tree(SmallOptions());
  const Signature sig =
      Signature::FromItems(std::vector<uint32_t>{1, 2, 3}, 100);
  for (uint64_t i = 0; i < 50; ++i) tree.Insert(sig, i);
  EXPECT_EQ(tree.size(), 50u);
  const AuditReport report = AuditTree(tree);
  EXPECT_TRUE(report.ok()) << report.FirstMessage();
}

}  // namespace
}  // namespace sgtree
