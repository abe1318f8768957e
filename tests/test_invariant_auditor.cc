#include "sgtree/invariant_auditor.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bit_ops.h"
#include "common/signature_ops.h"
#include "sgtree/sg_tree.h"
#include "static/static_format.h"
#include "static/static_tree_builder.h"
#include "static/static_tree_view.h"
#include "tests/test_util.h"

namespace sgtree {
namespace {

using ::sgtree::testing::ClusteredDataset;

SgTreeOptions SmallOptions(uint32_t num_bits = 100) {
  SgTreeOptions options;
  options.num_bits = num_bits;
  options.max_entries = 8;
  return options;
}

std::unique_ptr<SgTree> BuildTree(uint32_t num_transactions = 300) {
  auto tree = std::make_unique<SgTree>(SmallOptions());
  const Dataset dataset = ClusteredDataset(/*seed=*/42, num_transactions,
                                           /*num_items=*/100,
                                           /*num_clusters=*/6,
                                           /*center_size=*/12, /*noise=*/3);
  for (const Transaction& txn : dataset.transactions) tree->Insert(txn);
  EXPECT_GE(tree->height(), 2u) << "corruption tests need a directory level";
  return tree;
}

/// A non-root directory node id (child of the root), for corruption targets.
PageId SomeDirectoryChild(SgTree& tree) {
  const NodeView root = tree.GetNodeNoCharge(tree.root());
  EXPECT_GT(root.level(), 0);
  return static_cast<PageId>(root.EntryAt(0).ref);
}

/// The leftmost leaf's id.
PageId SomeLeaf(const SgTree& tree) {
  PageId leaf_id = tree.root();
  while (!tree.GetNodeNoCharge(leaf_id).IsLeaf()) {
    leaf_id =
        static_cast<PageId>(tree.GetNodeNoCharge(leaf_id).EntryAt(0).ref);
  }
  return leaf_id;
}

/// Clears the lowest set bit of entry `i`'s signature in place.
void ClearFirstBit(MutableNodeView& node, size_t i) {
  const std::vector<uint32_t> bits = sig::Items(node.EntryAt(i).sig);
  ASSERT_FALSE(bits.empty());
  node.MutableSigWords(i)[bits[0] / kBitsPerWord] &=
      ~(uint64_t{1} << (bits[0] % kBitsPerWord));
}

bool AnyDetailContains(const AuditReport& report, const std::string& needle) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [&](const AuditViolation& v) {
                       return v.detail.find(needle) != std::string::npos;
                     });
}

// ---------------------------------------------------------------------------
// Clean trees.
// ---------------------------------------------------------------------------

TEST(InvariantAuditorTest, CleanTreePasses) {
  auto tree = BuildTree();
  const AuditReport report = AuditTree(*tree);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.stats.height, tree->height());
  EXPECT_EQ(report.stats.node_count, tree->node_count());
  EXPECT_EQ(report.stats.leaf_entries, tree->size());
  EXPECT_GT(report.stats.avg_utilization, 0.0);
  EXPECT_EQ(report.stats.avg_entry_area.size(), tree->height());
}

TEST(InvariantAuditorTest, EmptyTreePasses) {
  SgTree tree(SmallOptions());
  const AuditReport report = AuditTree(tree);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.stats.node_count, 0u);
}

// ---------------------------------------------------------------------------
// In-memory corruption: each injected fault must be detected with the right
// check id and a diagnostic naming the offending page.
// ---------------------------------------------------------------------------

TEST(InvariantAuditorTest, DetectsCoverageLossFromFlippedSignatureBit) {
  auto tree = BuildTree();
  const PageId victim = SomeDirectoryChild(*tree);
  MutableNodeView node = tree->MutableNode(victim);
  ASSERT_GT(node.level(), 0);
  // Drop one covered bit from a directory entry: the entry no longer covers
  // its child's union (Definition 5).
  ClearFirstBit(node, 0);

  const AuditReport report = AuditTree(*tree);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(AuditCheck::kCoverage)) << report.Summary();
  EXPECT_TRUE(AnyDetailContains(report, "bit")) << report.Summary();
  // The diagnostic names the page holding the broken entry.
  bool named = false;
  for (const AuditViolation& v : report.violations) {
    if (v.check == AuditCheck::kCoverage && v.page == victim) named = true;
  }
  EXPECT_TRUE(named) << report.Summary();
}

TEST(InvariantAuditorTest, DetectsOrphanNode) {
  auto tree = BuildTree();
  const PageId orphan = tree->AllocateNode(/*level=*/0);
  const AuditReport report = AuditTree(*tree);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(AuditCheck::kUnreachablePage)) << report.Summary();
  bool named = false;
  for (const AuditViolation& v : report.violations) {
    if (v.check == AuditCheck::kUnreachablePage && v.page == orphan) {
      named = true;
    }
  }
  EXPECT_TRUE(named) << report.Summary();
}

TEST(InvariantAuditorTest, DetectsFillFactorViolation) {
  auto tree = BuildTree();
  ASSERT_GT(tree->min_entries(), 1u);
  // Find a leaf and strip it below the minimum fill.
  const PageId leaf_id = SomeLeaf(*tree);
  MutableNodeView leaf = tree->MutableNode(leaf_id);
  while (leaf.Count() > 1) leaf.Erase(leaf.Count() - 1);

  const AuditReport report = AuditTree(*tree);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(AuditCheck::kFill)) << report.Summary();
  bool named = false;
  for (const AuditViolation& v : report.violations) {
    if (v.check == AuditCheck::kFill && v.page == leaf_id) named = true;
  }
  EXPECT_TRUE(named) << report.Summary();
}

TEST(InvariantAuditorTest, DetectsDuplicateTid) {
  auto tree = BuildTree();
  MutableNodeView leaf = tree->MutableNode(SomeLeaf(*tree));
  ASSERT_GE(leaf.Count(), 2u);
  leaf.SetRef(1, leaf.EntryAt(0).ref);

  const AuditReport report = AuditTree(*tree);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(AuditCheck::kDuplicateTid)) << report.Summary();
  // Uniqueness checking can be disabled (e.g. multiset workloads).
  AuditOptions options;
  options.check_tid_uniqueness = false;
  EXPECT_FALSE(AuditTree(*tree, options).Has(AuditCheck::kDuplicateTid));
}

TEST(InvariantAuditorTest, DetectsSignatureWidthMismatch) {
  auto tree = BuildTree();
  const PageId victim = SomeDirectoryChild(*tree);
  MutableNodeView node = tree->MutableNode(victim);
  // A record holds the tree-wide width (100 bits, two words), so a width
  // mismatch shows as a bit set beyond it: bit 124.
  node.MutableSigWords(0)[1] |= uint64_t{1} << 60;
  const AuditReport report = AuditTree(*tree);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(AuditCheck::kSignatureWidth)) << report.Summary();
  EXPECT_TRUE(AnyDetailContains(report, "beyond the signature width"));
}

TEST(InvariantAuditorTest, ViolationCapKeepsCounting) {
  auto tree = BuildTree();
  // Break every directory entry in the root's children.
  const NodeView root = tree->GetNodeNoCharge(tree->root());
  std::vector<PageId> children;
  for (const EntryView entry : root) {
    children.push_back(static_cast<PageId>(entry.ref));
  }
  for (const PageId child : children) {
    MutableNodeView node = tree->MutableNode(child);
    if (node.IsLeaf()) continue;
    for (size_t i = 0; i < node.Count(); ++i) ClearFirstBit(node, i);
  }
  AuditOptions options;
  options.max_violations = 2;
  const AuditReport report = AuditTree(*tree, options);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.violations.size(), 2u);
  EXPECT_GT(report.total_violations, 2u);
}

// ---------------------------------------------------------------------------
// Report plumbing.
// ---------------------------------------------------------------------------

TEST(InvariantAuditorTest, ViolationToStringNamesCheckAndPage) {
  AuditViolation violation;
  violation.check = AuditCheck::kCoverage;
  violation.page = 17;
  violation.detail = "entry 3 not covered";
  const std::string line = violation.ToString();
  EXPECT_NE(line.find("coverage"), std::string::npos);
  EXPECT_NE(line.find("17"), std::string::npos);
  EXPECT_NE(line.find("entry 3 not covered"), std::string::npos);
}

TEST(InvariantAuditorTest, SummaryOfCleanReportMentionsStats) {
  auto tree = BuildTree();
  const std::string summary = AuditTree(*tree).Summary();
  EXPECT_NE(summary.find("all invariants hold"), std::string::npos);
  EXPECT_NE(summary.find("height"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Static-image audits: the same semantic invariants, checked over the
// mmap'able image. Corruption is injected by patching raw image bytes and
// reopening with checksum verification off — the structurally-consistent
// damage a CRC would flag but a traversal would otherwise happily serve.
// ---------------------------------------------------------------------------

namespace sf = ::sgtree::static_format;

// Byte-level accessors over an image, mirroring the documented layout.
struct ImagePatcher {
  std::vector<uint8_t> bytes;

  uint64_t NodeOffset(uint64_t i) const {
    return sf::LoadU64(bytes.data() + sf::kHeaderSize + i * 8);
  }
  uint16_t LevelOf(uint64_t i) const {
    return sf::LoadU16(bytes.data() + NodeOffset(i));
  }
  uint16_t CountOf(uint64_t i) const {
    return sf::LoadU16(bytes.data() + NodeOffset(i) + 2);
  }
  // Byte offset of entry `e` of node `i` (the u64 ref; sig words follow).
  uint64_t EntryOffset(uint64_t i, uint64_t e, uint32_t words) const {
    return NodeOffset(i) + 8 + e * (8 + uint64_t{words} * 8);
  }
  // First leaf node holding at least two entries.
  uint64_t SomeLeaf(uint64_t node_count) const {
    for (uint64_t i = 0; i < node_count; ++i) {
      if (LevelOf(i) == 0 && CountOf(i) >= 2) return i;
    }
    ADD_FAILURE() << "no leaf with 2+ entries";
    return 0;
  }
};

ImagePatcher BuildStaticImageOf(const SgTree& tree) {
  ImagePatcher patcher;
  patcher.bytes = BuildStaticImage(tree);
  return patcher;
}

// Loads the patched image as a tree that reads it in place.
std::unique_ptr<SgTree> OpenPatched(const ImagePatcher& patcher) {
  StaticOpenOptions options;
  options.tree = SmallOptions();
  options.verify_checksums = false;  // Admit the CRC-stale patched image.
  std::string error;
  auto view = StaticTreeView::OpenFromBytes(
      patcher.bytes.data(), patcher.bytes.size(), options, &error);
  EXPECT_NE(view, nullptr) << error;
  return view == nullptr ? nullptr : ThawStatic(std::move(view));
}

TEST(StaticAuditTest, CleanImagePasses) {
  auto tree = BuildTree();
  const ImagePatcher patcher = BuildStaticImageOf(*tree);
  auto loaded = OpenPatched(patcher);
  const AuditReport report = AuditTree(*loaded);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.stats.node_count, tree->node_count());
  EXPECT_EQ(report.stats.leaf_entries, tree->size());
  // The per-level area profile matches the dynamic auditor's.
  const AuditReport dynamic_report = AuditTree(*tree);
  EXPECT_EQ(report.stats.avg_entry_area, dynamic_report.stats.avg_entry_area);
  EXPECT_EQ(report.stats.avg_utilization, dynamic_report.stats.avg_utilization);
}

TEST(StaticAuditTest, EmptyImagePasses) {
  const SgTree empty(SmallOptions());
  auto loaded = OpenPatched(BuildStaticImageOf(empty));
  const AuditReport report = AuditTree(*loaded);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.stats.node_count, 0u);
}

TEST(StaticAuditTest, DetectsFlippedDirectorySignatureBit) {
  auto tree = BuildTree();
  ImagePatcher patcher = BuildStaticImageOf(*tree);
  const uint32_t words = WordsForBits(tree->num_bits());
  // Node 0 is the root — a directory (BuildTree guarantees height >= 2).
  ASSERT_GT(patcher.LevelOf(0), 0u);
  // Flip one in-width bit of the root's first entry signature: the entry
  // no longer equals the OR of its child's entries.
  patcher.bytes[patcher.EntryOffset(0, 0, words) + 8 + 3] ^= 0x10;  // Bit 28.
  auto loaded = OpenPatched(patcher);
  const AuditReport report = AuditTree(*loaded);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(AuditCheck::kCoverage)) << report.Summary();
  EXPECT_TRUE(AnyDetailContains(report, "not the OR of child node"));
}

TEST(StaticAuditTest, DetectsDuplicateTid) {
  auto tree = BuildTree();
  ImagePatcher patcher = BuildStaticImageOf(*tree);
  const uint32_t words = WordsForBits(tree->num_bits());
  const uint64_t leaf = patcher.SomeLeaf(tree->node_count());
  // Rewrite leaf entry 0's tid to collide with entry 1's. Signatures are
  // untouched, so coverage still holds — only the tid index is corrupt.
  const uint64_t tid1 =
      sf::LoadU64(patcher.bytes.data() + patcher.EntryOffset(leaf, 1, words));
  sf::StoreU64(patcher.bytes.data() + patcher.EntryOffset(leaf, 0, words),
               tid1);
  auto loaded = OpenPatched(patcher);
  const AuditReport report = AuditTree(*loaded);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(AuditCheck::kDuplicateTid)) << report.Summary();
  EXPECT_TRUE(AnyDetailContains(report, "already indexed by node"));
}

TEST(StaticAuditTest, DetectsLeafSignatureDrift) {
  auto tree = BuildTree();
  ImagePatcher patcher = BuildStaticImageOf(*tree);
  const uint32_t words = WordsForBits(tree->num_bits());
  const uint64_t leaf = patcher.SomeLeaf(tree->node_count());
  // Set an in-width bit that is clear in the leaf entry's signature: the
  // child union gains a bit its parent entry never covered.
  uint8_t* word0 =
      patcher.bytes.data() + patcher.EntryOffset(leaf, 0, words) + 8;
  uint64_t value = sf::LoadU64(word0);
  int clear_bit = -1;
  for (int b = 0; b < 64; ++b) {
    if ((value & (uint64_t{1} << b)) == 0) {
      clear_bit = b;
      break;
    }
  }
  ASSERT_GE(clear_bit, 0);
  sf::StoreU64(word0, value | (uint64_t{1} << clear_bit));
  auto loaded = OpenPatched(patcher);
  const AuditReport report = AuditTree(*loaded);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(AuditCheck::kCoverage)) << report.Summary();
  EXPECT_TRUE(AnyDetailContains(report, "lost bit"));
}

TEST(StaticAuditTest, DetectsBitsBeyondSignatureWidth) {
  auto tree = BuildTree();  // 100 bits: word 1 has 28 tail bits.
  ImagePatcher patcher = BuildStaticImageOf(*tree);
  const uint32_t words = WordsForBits(tree->num_bits());
  ASSERT_EQ(words, 2u);
  const uint64_t leaf = patcher.SomeLeaf(tree->node_count());
  uint8_t* word1 =
      patcher.bytes.data() + patcher.EntryOffset(leaf, 0, words) + 8 + 8;
  sf::StoreU64(word1, sf::LoadU64(word1) | (uint64_t{1} << 60));  // Bit 124.
  auto loaded = OpenPatched(patcher);
  const AuditReport report = AuditTree(*loaded);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(AuditCheck::kSignatureWidth)) << report.Summary();
  EXPECT_TRUE(AnyDetailContains(report, "beyond the signature width"));
}

}  // namespace
}  // namespace sgtree
