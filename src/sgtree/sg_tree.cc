#include "sgtree/sg_tree.h"

#include <algorithm>

#include "common/check.h"
#include "common/signature_ops.h"
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
  // dense signature encoding. A page below the header gets the floor too.
  const size_t entry_size = UncompressedEntrySize(num_bits);
  const size_t capacity = page_size > 4 ? (page_size - 4) / entry_size : 0;
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
      min_entries_(options.ResolvedMinEntries()) {
  SGTREE_ASSERT(options_.num_bits > 0);
  SGTREE_ASSERT(min_entries_ >= 1 && min_entries_ <= max_entries_ / 2);
  SGTREE_ASSERT_MSG(max_entries_ <= kMaxNodeEntries,
                    "node capacity above kMaxNodeEntries");
}

MutableNodeView SgTree::NewRecord(PageId id, uint16_t level,
                                  uint32_t room) {
  if (id >= records_.size()) records_.resize(static_cast<size_t>(id) + 1);
  records_[id] = {std::make_unique<uint64_t[]>(
                      NodeRecordWords(room, WordsForBits(options_.num_bits))),
                  room};
  ++node_count_;
  MutableNodeView node(records_[id].words.get(), options_.num_bits);
  node.Reset(level);
  return node;
}

PageId SgTree::AllocateNode(uint16_t level) {
  auto id = static_cast<PageId>(records_.size());
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  }
  NewRecord(id, level, max_entries_ + 1);
  return id;
}

MutableNodeView SgTree::AdoptNode(PageId id, uint16_t level, uint32_t room) {
  SGTREE_ASSERT_MSG(!IsLive(id), "AdoptNode on a live page id");
  SGTREE_ASSERT(room <= max_entries_ + 1);
  if (id < records_.size()) {
    free_ids_.erase(std::remove(free_ids_.begin(), free_ids_.end(), id),
                    free_ids_.end());
  } else {
    // The ids skipped to reach `id` become free, in ascending order.
    for (auto hole = static_cast<PageId>(records_.size()); hole < id;
         ++hole) {
      free_ids_.push_back(hole);
    }
  }
  return NewRecord(id, level, room);
}

MutableNodeView SgTree::MutableNode(PageId id) {
  SGTREE_ASSERT_MSG(IsLive(id), "dangling page reference");
  Record& record = records_[id];
  if (record.room <= max_entries_) {
    // An adopted record: widen it so an insert can overflow it.
    const NodeView narrow(record.words.get(), options_.num_bits);
    const uint32_t room = max_entries_ + 1;
    auto wide = std::make_unique<uint64_t[]>(
        NodeRecordWords(room, WordsForBits(options_.num_bits)));
    std::copy(narrow.words().begin(), narrow.words().end(), wide.get());
    record = {std::move(wide), room};
  }
  return {record.words.get(), options_.num_bits};
}

void SgTree::FreeNode(PageId id) {
  SGTREE_DCHECK(IsLive(id));
  records_[id] = {};
  free_ids_.push_back(id);
  --node_count_;
}

void SgTree::SetRoot(PageId root, uint32_t height, size_t size) {
  root_ = root;
  height_ = height;
  size_ = size;
}

std::vector<PageId> SgTree::LiveNodes() const {
  std::vector<PageId> ids;
  ids.reserve(node_count_);
  for (PageId id = 0; id < records_.size(); ++id) {
    if (IsLive(id)) ids.push_back(id);
  }
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
  InsertEntryAtLevel(sig, tid, 0);
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

void SgTree::InsertEntryAtLevel(const Signature& sig, uint64_t ref,
                                uint16_t level) {
  if (root_ == kInvalidPageId) {
    SGTREE_ASSERT(level == 0);
    root_ = AllocateNode(0);
    height_ = 1;
  }
  const PageId sibling = InsertRecursive(root_, sig, ref, level);
  if (sibling == kInvalidPageId) return;

  // Root split: grow the tree by one level.
  const PageId new_root_id = AllocateNode(
      static_cast<uint16_t>(GetNodeNoCharge(root_).level() + 1));
  MutableNodeView new_root = MutableNode(new_root_id);
  new_root.AppendCover(GetNodeNoCharge(root_), root_);
  new_root.AppendCover(GetNodeNoCharge(sibling), sibling);
  root_ = new_root_id;
  ++height_;
}

PageId SgTree::InsertRecursive(PageId node_id, const Signature& sig,
                               uint64_t ref, uint16_t target_level) {
  MutableNodeView node = MutableNode(node_id);
  if (node.level() == target_level) {
    node.Append(sig.words(), ref);
    if (node.Count() > max_entries_) return SplitNode(node_id);
    return kInvalidPageId;
  }

  SGTREE_ASSERT(node.level() > target_level);
  const size_t index = ChooseSubtree(node, sig, options_.choose_policy);
  const auto child_id = static_cast<PageId>(node.EntryAt(index).ref);
  // Enlarge the chosen entry's signature to cover the new one; exact
  // recomputation is unnecessary on insert (signatures only grow).
  node.UnionInto(index, sig.words());

  const PageId split_child =
      InsertRecursive(child_id, sig, ref, target_level);
  if (split_child == kInvalidPageId) return kInvalidPageId;

  // The child split: its coverage changed, so recompute the entry signature
  // exactly and add an entry for the new sibling.
  node.SetCover(index, GetNodeNoCharge(child_id));
  node.AppendCover(GetNodeNoCharge(split_child), split_child);
  if (node.Count() > max_entries_) return SplitNode(node_id);
  return kInvalidPageId;
}

PageId SgTree::SplitNode(PageId node_id) {
  MutableNodeView node = MutableNode(node_id);
  const SplitResult split =
      SplitEntries(node, options_.split_policy, min_entries_);
  // Rewrite the node from a copy of its overflowing record.
  const std::vector<uint64_t> overflow(node.words().begin(),
                                       node.words().end());
  const NodeView before(overflow.data(), options_.num_bits);
  const uint16_t level = before.level();
  node.Reset(level);
  for (const size_t i : split.first) {
    node.Append(before.EntryAt(i).sig.words(), before.EntryAt(i).ref);
  }
  const PageId sibling_id = AllocateNode(level);
  MutableNodeView sibling = MutableNode(sibling_id);
  for (const size_t i : split.second) {
    sibling.Append(before.EntryAt(i).sig.words(), before.EntryAt(i).ref);
  }
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
  for (const auto& [entry, level] : pending) {
    InsertEntryAtLevel(entry.sig, entry.ref, level);
  }
  ShrinkRoot();
  return true;
}

SgTree::EraseResult SgTree::EraseRecursive(
    PageId node_id, const Signature& sig, uint64_t tid,
    std::vector<std::pair<Entry, uint16_t>>* pending) {
  MutableNodeView node = MutableNode(node_id);
  if (node.IsLeaf()) {
    for (size_t i = 0; i < node.Count(); ++i) {
      const EntryView entry = node.EntryAt(i);
      if (entry.ref == tid && sig::Equal(entry.sig, sig)) {
        node.Erase(i);
        return EraseResult::kRemoved;
      }
    }
    return EraseResult::kNotFound;
  }

  for (size_t i = 0; i < node.Count(); ++i) {
    if (!sig::Contains(node.EntryAt(i).sig, sig)) continue;
    const auto child_id = static_cast<PageId>(node.EntryAt(i).ref);
    if (EraseRecursive(child_id, sig, tid, pending) ==
        EraseResult::kNotFound) {
      continue;
    }
    const NodeView child = GetNodeNoCharge(child_id);
    // Dissolve an underflowing child unless it is the only child of the
    // root (then the child will simply become the new root).
    const bool can_dissolve = node_id != root_ || node.Count() > 1;
    if (child.Count() < min_entries_ && can_dissolve) {
      for (const EntryView orphan : child) {
        pending->emplace_back(Entry{orphan.sig.ToSignature(), orphan.ref},
                              child.level());
      }
      FreeNode(child_id);
      node.Erase(i);
    } else {
      node.SetCover(i, child);
    }
    return EraseResult::kRemoved;
  }
  return EraseResult::kNotFound;
}

void SgTree::ShrinkRoot() {
  while (root_ != kInvalidPageId) {
    const NodeView root = GetNodeNoCharge(root_);
    if (root.IsLeaf() || root.Count() != 1) break;
    const auto child = static_cast<PageId>(root.EntryAt(0).ref);
    FreeNode(root_);
    root_ = child;
    --height_;
  }
  if (size_ == 0 && root_ != kInvalidPageId) {
    const NodeView root = GetNodeNoCharge(root_);
    if (root.IsLeaf() && root.Count() == 0) {
      FreeNode(root_);
      root_ = kInvalidPageId;
      height_ = 0;
    }
  }
}

}  // namespace sgtree
