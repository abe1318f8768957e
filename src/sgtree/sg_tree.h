#ifndef SGTREE_SGTREE_SG_TREE_H_
#define SGTREE_SGTREE_SG_TREE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/signature.h"
#include "data/transaction.h"
#include "sgtree/node.h"
#include "sgtree/options.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "storage/query_context.h"

namespace sgtree {

/// Observer of page-level changes made by the tree's update paths. The
/// durability layer registers one to learn which pages an operation
/// touched: the union of allocated + dirtied pages (minus freed ones) is
/// exactly the redo set the write-ahead log must carry for that operation.
/// Callbacks fire synchronously inside the mutation; implementations must
/// not reenter the tree.
class PageChangeListener {
 public:
  virtual ~PageChangeListener() = default;
  virtual void OnAlloc(PageId id) = 0;
  virtual void OnDirty(PageId id) = 0;
  virtual void OnFree(PageId id) = 0;
};

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
/// Every node access is charged, so the exact random-I/O cost of the
/// access pattern is measured: a query charges one I/O per node read to its
/// QueryContext, and the update path charges the tree's own LRU BufferPool.
class SgTree {
 public:
  explicit SgTree(const SgTreeOptions& options);
  /// Runs the tree over an injected page store (file-backed or
  /// fault-injecting). The store's page size must match the options'.
  SgTree(const SgTreeOptions& options,
         std::unique_ptr<PageStoreInterface> pages);

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
  /// the bulk loader, the thaw and recovery, which bypass Insert).
  void NoteTransactionArea(uint32_t area);

  /// Fetches a node for a query, charging one read to the context. The
  /// tree itself is not mutated, so any number of threads may call this
  /// concurrently (each with its own context) as long as no thread is
  /// updating the tree.
  const Node& GetNode(PageId id, const QueryContext& ctx) const;
  /// Fetches a node without I/O accounting (checker, image builder, tests).
  const Node& GetNodeNoCharge(PageId id) const;

  /// The tree's own buffer pool: charged by the update path and by serial
  /// queries that pass OwnPoolContext(). It stays for callers that read
  /// pages again — the warm-buffer experiment and the tree joins.
  /// Mutating the pool requires a non-const tree — a const SgTree& is
  /// genuinely read-only and therefore safe to share across threads.
  BufferPool& buffer_pool() { return *pool_; }
  const BufferPool& buffer_pool() const { return *pool_; }

  /// Query context charging this tree's own pool (serial use only), for
  /// reads that should hit a buffer kept warm across queries or join
  /// steps. The optional trace receives the per-query counters.
  QueryContext OwnPoolContext(QueryTrace* trace = nullptr) {
    return QueryContext{pool_.get(), trace};
  }

  const IoStats& io_stats() const { return pool_->stats(); }
  /// Clears the buffer contents and counters (cold-cache measurements).
  void ResetIo();

  // -- Low-level node management (bulk loading, thaw and recovery) ------

  /// Allocates an empty node at `level` and returns its id.
  PageId AllocateNode(uint16_t level);
  /// Materializes an empty node at a specific page id (crash recovery and
  /// ThawStatic — the rebuilt tree keeps the page ids its log or image
  /// records). The id must not be live.
  Node* AdoptNode(PageId id, uint16_t level);
  /// Mutable access; charges a read and a write against the buffer pool.
  Node* MutableNode(PageId id);
  /// Frees a node page.
  void FreeNode(PageId id);
  /// Installs a new root (bulk loader / thaw / recovery). `size` is the
  /// number of indexed transactions, `height` the number of levels.
  void SetRoot(PageId root, uint32_t height, size_t size);

  /// Ids of all live nodes (checkpoint, checker).
  std::vector<PageId> LiveNodes() const;

  /// Registers (or clears, with nullptr) the page-change observer. At most
  /// one listener; the durability layer owns it.
  void SetChangeListener(PageChangeListener* listener) {
    listener_ = listener;
  }
  PageChangeListener* change_listener() const { return listener_; }

  /// The tree's page-id allocator / persistence target.
  PageStoreInterface& page_store() { return *pages_; }
  const PageStoreInterface& page_store() const { return *pages_; }

 private:
  /// Inserts `entry` into a node at exactly `target_level` in the subtree
  /// rooted at `node_id`. Returns the id of a new sibling if the node split,
  /// kInvalidPageId otherwise.
  PageId InsertRecursive(PageId node_id, Entry entry, uint16_t target_level);

  /// Splits an overflowed node in place; returns the new sibling's id.
  PageId SplitNode(PageId node_id);

  /// Inserts an entry at a level, growing the tree if the root splits.
  void InsertEntryAtLevel(Entry entry, uint16_t level);

  enum class EraseResult { kNotFound, kRemoved };
  EraseResult EraseRecursive(PageId node_id, const Signature& sig,
                             uint64_t tid,
                             std::vector<std::pair<Entry, uint16_t>>* pending);

  /// Collapses single-entry directory roots after a delete.
  void ShrinkRoot();

  SgTreeOptions options_;
  uint32_t max_entries_ = 0;
  uint32_t min_entries_ = 0;

  std::unordered_map<PageId, std::unique_ptr<Node>> nodes_;
  std::unique_ptr<PageStoreInterface> pages_;  // Page-id allocator.
  std::unique_ptr<BufferPool> pool_;
  PageChangeListener* listener_ = nullptr;

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
