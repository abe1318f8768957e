#include "sgtree/sg_tree.h"

#include <algorithm>

#include "common/check.h"
#include "sgtree/choose_subtree.h"
#include "sgtree/split.h"
#include "storage/node_format.h"

namespace sgtree {

std::string SplitPolicyName(SplitPolicy policy) {
  switch (policy) {
    case SplitPolicy::kLinear:
      return "LinearSplit";
    case SplitPolicy::kQuadratic:
      return "QuadraticSplit";
    case SplitPolicy::kAverage:
      return "AvgSplit";
    case SplitPolicy::kMinimum:
      return "MinSplit";
  }
  return "unknown";
}

std::string ChooseSubtreePolicyName(ChooseSubtreePolicy policy) {
  switch (policy) {
    case ChooseSubtreePolicy::kMinEnlargement:
      return "MinEnlargement";
    case ChooseSubtreePolicy::kMinOverlap:
      return "MinOverlap";
  }
  return "unknown";
}

uint32_t SgTreeOptions::ResolvedMaxEntries() const {
  if (max_entries != 0) return max_entries;
  // Node header is 4 bytes; each uncompressed entry needs a ref plus the
  // dense signature encoding.
  const size_t entry_size = UncompressedEntrySize(num_bits);
  const size_t capacity = (page_size - 4) / entry_size;
  return static_cast<uint32_t>(std::max<size_t>(capacity, 4));
}

uint32_t SgTreeOptions::ResolvedMinEntries() const {
  const uint32_t max = ResolvedMaxEntries();
  auto min = static_cast<uint32_t>(max * min_fill_fraction);
  min = std::max<uint32_t>(min, 1);
  return std::min(min, max / 2);
}

SgTree::SgTree(const SgTreeOptions& options)
    : options_(options),
      max_entries_(options.ResolvedMaxEntries()),
      min_entries_(options.ResolvedMinEntries()),
      pages_(options.page_size),
      pool_(std::make_unique<BufferPool>(options.buffer_pages)) {
  SGTREE_ASSERT(options_.num_bits > 0);
  SGTREE_ASSERT(min_entries_ >= 1 && min_entries_ <= max_entries_ / 2);
}

const Node& SgTree::GetNode(PageId id, const QueryContext& ctx) const {
  ctx.ChargeRead(id);
  auto it = nodes_.find(id);
  SGTREE_DCHECK(it != nodes_.end());
  return *it->second;
}

const Node& SgTree::GetNodeNoCharge(PageId id) const {
  auto it = nodes_.find(id);
  SGTREE_ASSERT_MSG(it != nodes_.end(), "dangling page reference");
  return *it->second;
}

void SgTree::ResetIo() {
  pool_->Clear();
  pool_->mutable_stats()->Reset();
}

PageId SgTree::AllocateNode(uint16_t level) {
  const PageId id = pages_.Allocate();
  auto node = std::make_unique<Node>();
  node->id = id;
  node->level = level;
  nodes_[id] = std::move(node);
  ++node_count_;
  pool_->TouchWrite(id);
  return id;
}

Node* SgTree::AdoptNode(PageId id, uint16_t level) {
  const bool reserved = pages_.Reserve(id);
  SGTREE_ASSERT_MSG(reserved, "AdoptNode on a live page id");
  SGTREE_ASSERT(nodes_.find(id) == nodes_.end());
  auto node = std::make_unique<Node>();
  node->id = id;
  node->level = level;
  Node* raw = node.get();
  nodes_[id] = std::move(node);
  ++node_count_;
  pool_->TouchWrite(id);
  return raw;
}

Node* SgTree::MutableNode(PageId id) {
  pool_->Touch(id);
  pool_->TouchWrite(id);
  auto it = nodes_.find(id);
  SGTREE_ASSERT_MSG(it != nodes_.end(), "dangling page reference");
  return it->second.get();
}

void SgTree::FreeNode(PageId id) {
  pool_->Evict(id);
  nodes_.erase(id);
  pages_.Free(id);
  --node_count_;
}

void SgTree::SetRoot(PageId root, uint32_t height, size_t size) {
  root_ = root;
  height_ = height;
  size_ = size;
}

std::vector<PageId> SgTree::LiveNodes() const {
  std::vector<PageId> ids;
  ids.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// ---------------------------------------------------------------------------
// Insertion (Figure 3 of the paper).
// ---------------------------------------------------------------------------

void SgTree::Insert(const Transaction& txn) {
  Insert(Signature::FromItems(txn.items, options_.num_bits), txn.tid);
}

void SgTree::Insert(const Signature& sig, uint64_t tid) {
  SGTREE_ASSERT(sig.num_bits() == options_.num_bits);
  NoteTransactionArea(sig.Area());
  InsertEntryAtLevel(Entry{sig, tid}, 0);
  ++size_;
}

void SgTree::NoteTransactionArea(uint32_t area) {
  min_tx_area_ = std::min(min_tx_area_, area);
  max_tx_area_ = std::max(max_tx_area_, area);
}

std::pair<uint32_t, uint32_t> SgTree::TransactionAreaBounds() const {
  if (options_.fixed_dimensionality != 0) {
    return {options_.fixed_dimensionality, options_.fixed_dimensionality};
  }
  if (options_.use_area_stats && min_tx_area_ <= max_tx_area_) {
    return {min_tx_area_, max_tx_area_};
  }
  return {0, options_.num_bits};
}

void SgTree::InsertEntryAtLevel(Entry entry, uint16_t level) {
  if (root_ == kInvalidPageId) {
    SGTREE_ASSERT(level == 0);
    root_ = AllocateNode(0);
    height_ = 1;
  }
  const PageId sibling = InsertRecursive(root_, std::move(entry), level);
  if (sibling == kInvalidPageId) return;

  // Root split: grow the tree by one level.
  const Node& old_root = GetNodeNoCharge(root_);
  const Node& new_sibling = GetNodeNoCharge(sibling);
  const PageId new_root_id =
      AllocateNode(static_cast<uint16_t>(old_root.level + 1));
  Node* new_root = MutableNode(new_root_id);
  new_root->entries.push_back(
      Entry{old_root.UnionSignature(options_.num_bits), root_});
  new_root->entries.push_back(
      Entry{new_sibling.UnionSignature(options_.num_bits), sibling});
  root_ = new_root_id;
  ++height_;
}

PageId SgTree::InsertRecursive(PageId node_id, Entry entry,
                               uint16_t target_level) {
  Node* node = MutableNode(node_id);
  if (node->level == target_level) {
    node->entries.push_back(std::move(entry));
    if (node->Count() > max_entries_) return SplitNode(node_id);
    return kInvalidPageId;
  }

  SGTREE_ASSERT(node->level > target_level);
  const size_t index = ChooseSubtree(*node, entry.sig, options_.choose_policy);
  const auto child_id = static_cast<PageId>(node->entries[index].ref);
  // Enlarge the chosen entry's signature to cover the new one; exact
  // recomputation is unnecessary on insert (signatures only grow).
  node->entries[index].sig.UnionWith(entry.sig);

  const PageId split_child =
      InsertRecursive(child_id, std::move(entry), target_level);
  if (split_child == kInvalidPageId) return kInvalidPageId;

  // The child split: its coverage changed, so recompute the entry signature
  // exactly and add an entry for the new sibling.
  node->entries[index].sig =
      GetNodeNoCharge(child_id).UnionSignature(options_.num_bits);
  node->entries.push_back(
      Entry{GetNodeNoCharge(split_child).UnionSignature(options_.num_bits),
            split_child});
  if (node->Count() > max_entries_) return SplitNode(node_id);
  return kInvalidPageId;
}

PageId SgTree::SplitNode(PageId node_id) {
  Node* node = MutableNode(node_id);
  SplitResult split =
      SplitEntries(std::move(node->entries), options_.split_policy,
                   min_entries_, options_.num_bits);
  node->entries = std::move(split.first);
  const PageId sibling_id = AllocateNode(node->level);
  Node* sibling = MutableNode(sibling_id);
  sibling->entries = std::move(split.second);
  return sibling_id;
}

// ---------------------------------------------------------------------------
// Deletion (R-tree condense, Section 3.1 last paragraph).
// ---------------------------------------------------------------------------

bool SgTree::Erase(const Transaction& txn) {
  return Erase(Signature::FromItems(txn.items, options_.num_bits), txn.tid);
}

bool SgTree::Erase(const Signature& sig, uint64_t tid) {
  if (empty()) return false;
  std::vector<std::pair<Entry, uint16_t>> pending;
  if (EraseRecursive(root_, sig, tid, &pending) == EraseResult::kNotFound) {
    return false;
  }
  --size_;

  // Reinsert orphaned entries, higher levels first so subtree entries are
  // placed while the tree is still tall enough.
  std::stable_sort(pending.begin(), pending.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  for (auto& [entry, level] : pending) {
    InsertEntryAtLevel(std::move(entry), level);
  }
  ShrinkRoot();
  return true;
}

SgTree::EraseResult SgTree::EraseRecursive(
    PageId node_id, const Signature& sig, uint64_t tid,
    std::vector<std::pair<Entry, uint16_t>>* pending) {
  Node* node = MutableNode(node_id);
  if (node->IsLeaf()) {
    for (size_t i = 0; i < node->entries.size(); ++i) {
      if (node->entries[i].ref == tid && node->entries[i].sig == sig) {
        node->entries.erase(node->entries.begin() + i);
        return EraseResult::kRemoved;
      }
    }
    return EraseResult::kNotFound;
  }

  for (size_t i = 0; i < node->entries.size(); ++i) {
    if (!node->entries[i].sig.Contains(sig)) continue;
    const auto child_id = static_cast<PageId>(node->entries[i].ref);
    if (EraseRecursive(child_id, sig, tid, pending) ==
        EraseResult::kNotFound) {
      continue;
    }
    const Node& child = GetNodeNoCharge(child_id);
    // Dissolve an underflowing child unless it is the only child of the
    // root (then the child will simply become the new root).
    const bool can_dissolve = node_id != root_ || node->Count() > 1;
    if (child.Count() < min_entries_ && can_dissolve) {
      const uint16_t child_level = child.level;
      for (const Entry& orphan : child.entries) {
        pending->emplace_back(orphan, child_level);
      }
      FreeNode(child_id);
      node->entries.erase(node->entries.begin() + i);
    } else {
      node->entries[i].sig = child.UnionSignature(options_.num_bits);
    }
    return EraseResult::kRemoved;
  }
  return EraseResult::kNotFound;
}

void SgTree::ShrinkRoot() {
  while (root_ != kInvalidPageId) {
    const Node& root = GetNodeNoCharge(root_);
    if (root.IsLeaf() || root.Count() != 1) break;
    const auto child = static_cast<PageId>(root.entries[0].ref);
    FreeNode(root_);
    root_ = child;
    --height_;
  }
  if (size_ == 0 && root_ != kInvalidPageId) {
    const Node& root = GetNodeNoCharge(root_);
    if (root.IsLeaf() && root.Count() == 0) {
      FreeNode(root_);
      root_ = kInvalidPageId;
      height_ = 0;
    }
  }
}

}  // namespace sgtree
