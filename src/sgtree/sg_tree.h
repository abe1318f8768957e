#ifndef SGTREE_SGTREE_SG_TREE_H_
#define SGTREE_SGTREE_SG_TREE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/signature.h"
#include "data/transaction.h"
#include "sgtree/node.h"
#include "sgtree/options.h"
#include "storage/page.h"
#include "storage/query_context.h"

namespace sgtree {

/// The signature tree (Section 3): a dynamic height-balanced paginated tree
/// over fixed-length bit signatures, structured like an R-tree with bitmap
/// containment/union taking the role of MBR containment/enlargement.
///
/// Nodes hold between m and M entries (except the root). Leaf entries carry
/// `(signature, transaction id)`; directory entries carry the OR of all
/// signatures in the child node. Inserts descend by ChooseSubtree and split
/// overflowing nodes with the configured policy; deletes dissolve
/// underflowing nodes and reinsert their entries (R-tree condense).
///
/// Every node is one word record in the static image's node layout
/// (sgtree/node.h), reserved for M+1 entries and indexed by its PageId;
/// updates edit the records in place, and readers see them through
/// NodeView, the node type the static tree returns too. A thawed record is
/// copied at its stored size and widened to M+1 entries at its first edit,
/// so a thawed tree holds no more than its image, whatever M the image
/// claims.
///
/// A query charges each node read to its QueryContext, the one place a
/// random I/O is counted; a caller that wants a warm buffer brings its own
/// BufferPool in the context. Updates simulate no I/O.
class SgTree {
 public:
  explicit SgTree(const SgTreeOptions& options);

  SgTree(const SgTree&) = delete;
  SgTree& operator=(const SgTree&) = delete;
  SgTree(SgTree&&) = default;
  SgTree& operator=(SgTree&&) = default;

  // -- Updates ---------------------------------------------------------

  /// Inserts a transaction (signature built from its items).
  void Insert(const Transaction& txn);
  /// Inserts a pre-built signature with the given transaction id.
  void Insert(const Signature& sig, uint64_t tid);

  /// Removes the entry with this exact signature and id. Returns false if
  /// not present.
  bool Erase(const Transaction& txn);
  bool Erase(const Signature& sig, uint64_t tid);

  // -- Introspection ---------------------------------------------------

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Number of levels (0 for an empty tree, 1 for a root-only leaf).
  uint32_t height() const { return height_; }
  uint64_t node_count() const { return node_count_; }

  const SgTreeOptions& options() const { return options_; }
  uint32_t max_entries() const { return max_entries_; }
  uint32_t min_entries() const { return min_entries_; }
  uint32_t num_bits() const { return options_.num_bits; }

  PageId root() const { return root_; }

  /// [min, max] transaction size window used for bound tightening: the
  /// fixed dimensionality when configured; otherwise the observed range
  /// when area-stats tracking is on and data has been seen; otherwise the
  /// trivial window [0, num_bits].
  std::pair<uint32_t, uint32_t> TransactionAreaBounds() const;

  /// Records one indexed transaction's size (called by Insert; exposed for
  /// the bulk loader and the thaw, which bypass Insert).
  void NoteTransactionArea(uint32_t area);

  /// Fetches a node for a query, charging one read to the context. The
  /// tree itself is not mutated, so any number of threads may call this
  /// concurrently (each with its own context) as long as no thread is
  /// updating the tree.
  NodeView GetNode(PageId id, const QueryContext& ctx) const {
    ctx.ChargeRead(id);
    SGTREE_DCHECK(IsLive(id));
    return {records_[id].words.get(), options_.num_bits};
  }
  /// Fetches a node without I/O accounting (auditor, image builder, tests).
  NodeView GetNodeNoCharge(PageId id) const {
    SGTREE_ASSERT_MSG(IsLive(id), "dangling page reference");
    return {records_[id].words.get(), options_.num_bits};
  }

  // -- Low-level node management (bulk loading and thaw) ----------------

  /// Allocates an empty node at `level` and returns its id.
  PageId AllocateNode(uint16_t level);
  /// Materializes an empty node at a specific page id (ThawStatic — the
  /// rebuilt tree's page ids are the image's node indexes) with room for
  /// `room` entries; MutableNode widens it to max_entries + 1 at its first
  /// edit. The id must not be live.
  MutableNodeView AdoptNode(PageId id, uint16_t level, uint32_t room);
  /// Mutable access. A view stays valid until its node is freed: every
  /// record is its own allocation, so growing the node table does not move
  /// it. The one exception is an adopted record's first MutableNode, which
  /// moves it to a record with room for max_entries + 1 entries.
  MutableNodeView MutableNode(PageId id);
  /// Frees a node page.
  void FreeNode(PageId id);
  /// Installs a new root (bulk loader / thaw). `size` is the number of
  /// indexed transactions, `height` the number of levels.
  void SetRoot(PageId root, uint32_t height, size_t size);

  /// Ids of all live nodes, ascending (auditor, ablation bench).
  std::vector<PageId> LiveNodes() const;

 private:
  bool IsLive(PageId id) const {
    return id < records_.size() && records_[id].words != nullptr;
  }

  /// Gives page `id` an empty record at `level` with room for `room`
  /// entries.
  MutableNodeView NewRecord(PageId id, uint16_t level, uint32_t room);

  /// Inserts the entry (sig, ref) into a node at exactly `target_level` in
  /// the subtree rooted at `node_id`. Returns the id of a new sibling if the
  /// node split, kInvalidPageId otherwise.
  PageId InsertRecursive(PageId node_id, const Signature& sig, uint64_t ref,
                         uint16_t target_level);

  /// Splits an overflowed node in place; returns the new sibling's id.
  PageId SplitNode(PageId node_id);

  /// Inserts the entry (sig, ref) at a level, growing the tree if the root
  /// splits.
  void InsertEntryAtLevel(const Signature& sig, uint64_t ref,
                          uint16_t level);

  enum class EraseResult { kNotFound, kRemoved };
  EraseResult EraseRecursive(PageId node_id, const Signature& sig,
                             uint64_t tid,
                             std::vector<std::pair<Entry, uint16_t>>* pending);

  /// Collapses single-entry directory roots after a delete.
  void ShrinkRoot();

  SgTreeOptions options_;
  uint32_t max_entries_ = 0;
  uint32_t min_entries_ = 0;

  // One record per node, indexed by PageId; null words for a free id.
  struct Record {
    std::unique_ptr<uint64_t[]> words;
    uint32_t room = 0;  // Entries the record has room for.
  };
  std::vector<Record> records_;
  // Every free id below records_.size(), each once; AllocateNode takes the
  // last (the most recently freed).
  std::vector<PageId> free_ids_;

  PageId root_ = kInvalidPageId;
  uint32_t height_ = 0;
  size_t size_ = 0;
  uint64_t node_count_ = 0;

  // Observed transaction-size window (never shrinks on delete; a stale
  // window only loosens, never unsounds, the bounds).
  uint32_t min_tx_area_ = std::numeric_limits<uint32_t>::max();
  uint32_t max_tx_area_ = 0;
};

}  // namespace sgtree

#endif  // SGTREE_SGTREE_SG_TREE_H_
