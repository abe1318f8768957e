#ifndef SGTREE_SHARD_SHARDED_INDEX_H_
#define SGTREE_SHARD_SHARDED_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/transaction.h"
#include "durability/durable_tree.h"
#include "durability/env.h"
#include "obs/metrics.h"
#include "sgtree/bulk_load.h"
#include "sgtree/options.h"
#include "sgtree/sg_tree.h"
#include "static/static_tree_view.h"

namespace sgtree {

/// Options of a ShardedIndex. `tree` configures every per-shard SG-tree
/// identically (each shard still owns its private buffer pool).
struct ShardedIndexOptions {
  uint32_t num_shards = 1;
  SgTreeOptions tree;
  /// Durable mode only: fsync each shard's WAL after every operation.
  /// InsertBatch group-commits per shard regardless.
  bool sync_each_op = true;
  /// Optional registry for shard.* build/update metrics (the QueryRouter
  /// takes its own registry for the read path).
  obs::MetricsRegistry* metrics = nullptr;
};

/// A horizontally partitioned SG-tree index: transactions are routed to one
/// of N shards by a stable hash of their tid, and each shard is a complete,
/// independent SG-tree. Because the shards partition the data, any query
/// can be answered by running it unchanged on every shard and merging — the
/// QueryRouter does exactly that, and the merged answer is byte-identical
/// to a single tree over the same data (see query_router.h for why).
///
/// Shards come in three flavors, mirroring the single-tree story:
///  - In-memory (constructor / BulkLoad), saved via Save() as a small v1
///    manifest at `path` plus one static image per shard at
///    `path.shard<i>`; Load() thaws every image back into a mutable tree.
///  - Durable (OpenDurable): each shard is a DurableTree in its own
///    subdirectory `<dir>/shard-<i>` with a private checkpoint image + WAL,
///    so a crash is recovered shard by shard at the next OpenDurable and a
///    fault in one shard's log never contaminates the others.
///  - Static (SaveStatic / Load of a v2 manifest): each shard is an
///    immutable mmap'ed StaticTreeView (static/static_tree_view.h). The
///    index is read-only — updates return failure — and serves the same
///    byte-identical merged answers through the QueryRouter.
///
/// Thread-safety matches SgTree: concurrent reads of const shards are safe
/// (the router fans out on that basis); mutations must be externally
/// serialized per index. Bulk loads and batch inserts parallelize
/// internally ACROSS shards — the shards are independent structures, so
/// one builder thread per shard is race-free by construction. In durable
/// mode each shard's DurableTree additionally serializes its own write
/// path under an annotated Mutex (see durable_tree.h): the per-shard
/// builder threads each hold exactly one shard's lock, locks of different
/// shards never nest, and the compile-time analysis checks the per-shard
/// protocol the fan-out relies on.
class ShardedIndex {
 public:
  /// The shard owning `tid` under an N-way partition: a splitmix64 finalizer
  /// mod N. Stable across runs, platforms, and shard-local state — the
  /// partition is a pure function of (tid, num_shards), which is what makes
  /// snapshots, WAL recovery, and the byte-identical merge line up.
  static uint32_t ShardOf(uint64_t tid, uint32_t num_shards);

  /// In-memory index with `options.num_shards` empty shards.
  explicit ShardedIndex(const ShardedIndexOptions& options);

  ShardedIndex(const ShardedIndex&) = delete;
  ShardedIndex& operator=(const ShardedIndex&) = delete;
  ~ShardedIndex();

  /// Opens (or creates) a durable index: one DurableTree per shard under
  /// `dir`, each crash-recovered independently at open. A directory that
  /// already holds `shard-0` .. `shard-<n-1>` opens as exactly those n
  /// shards when `options.num_shards` is n or less (Load likewise takes the
  /// count from its manifest), and is refused when it is more;
  /// `options.num_shards` sizes a new directory. Returns nullptr with
  /// `*error` set if the counts disagree or any shard fails to open.
  static std::unique_ptr<ShardedIndex> OpenDurable(
      Env* env, const std::string& dir, const ShardedIndexOptions& options,
      std::string* error);

  /// Builds an in-memory index by partitioning `dataset` and bottom-up
  /// bulk-loading every shard in parallel (one thread per shard).
  static std::unique_ptr<ShardedIndex> BulkLoad(
      const Dataset& dataset, const ShardedIndexOptions& options,
      const BulkLoadOptions& bulk = {});

  /// Bulk-loads `dataset` into this (required-empty) index: partitions,
  /// builds the per-shard trees in parallel, then installs them — through
  /// DurableTree::AdoptBulkLoaded in durable mode (each shard's load is
  /// logged and checkpointed), or directly in-memory. Returns false with
  /// `*error` set on failure.
  bool AdoptBulkLoaded(const Dataset& dataset, const BulkLoadOptions& bulk,
                       std::string* error);

  /// Routed updates. In durable mode these are logged per shard
  /// (log-before-acknowledge; false = the owning shard could not make the
  /// operation durable). In-memory inserts always succeed; Erase returns
  /// whether the key existed. In static mode the index is immutable:
  /// Insert/Erase return false and InsertBatch acknowledges 0.
  bool Insert(const Transaction& txn);
  bool Erase(const Transaction& txn);

  /// Partitions `txns` and inserts each partition into its shard in
  /// parallel (durable mode: one group commit per shard). All or nothing,
  /// like DurableTree::InsertBatch: returns txns.size() when every shard's
  /// part committed and 0 otherwise. After a 0, any shard's part may or may
  /// not be durable; treat the index as crashed and reopen it.
  size_t InsertBatch(const std::vector<Transaction>& txns);

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.empty() ? static_shards_.size()
                                                 : shards_.size());
  }
  /// Signature width of every shard (Load and OpenDurable refuse shards of
  /// mixed width).
  uint32_t num_bits() const {
    return static_mode() ? static_shards_[0]->num_bits()
                         : shards_[0]->num_bits();
  }
  bool durable() const { return !durable_shards_.empty(); }
  /// True when the shards are immutable static images (v2 manifest).
  bool static_mode() const { return !static_shards_.empty(); }

  /// Sum of the shards' sizes / node counts.
  size_t size() const;
  uint64_t node_count() const;

  /// Shard `i`'s tree. The const form is the router's read path.
  const SgTree& shard(uint32_t i) const { return *shards_[i]; }
  SgTree& shard(uint32_t i) { return *shards_[i]; }

  /// Shard `i`'s DurableTree, or null when in-memory.
  DurableTree* durable_shard(uint32_t i) {
    return durable_shards_.empty() ? nullptr : durable_shards_[i].get();
  }

  /// Shard `i`'s static view (static_mode() only).
  const StaticTreeView& static_shard(uint32_t i) const {
    return *static_shards_[i];
  }

  /// Durable mode: fsyncs / checkpoints every shard. No-ops in-memory.
  bool Sync();
  bool Checkpoint(std::string* error = nullptr);

  /// Saves this (dynamic) index: one crash-atomic static image per shard
  /// at ShardSnapshotPath(path, i), then a manifest at `path` naming the
  /// shard count. Save() writes a v1 manifest ("sgshard 1"), which Load()
  /// thaws into mutable trees; SaveStatic() writes a v2 manifest
  /// ("sgshard 2" + "format static"), which Load() serves read-only from
  /// the mapped images. The shard images are the same bytes either way.
  bool Save(const std::string& path, std::string* error = nullptr) const;
  bool SaveStatic(const std::string& path, std::string* error = nullptr) const;

  /// Rebuilds a Save()d or SaveStatic()d index, dispatching on the manifest
  /// version (v1 = mutable trees via LoadTree, v2 static = mmap'ed views).
  /// `options.num_shards` is taken from the manifest, not the caller;
  /// `options.tree` supplies the runtime (metric, buffer pages) exactly
  /// like LoadTree.
  static std::unique_ptr<ShardedIndex> Load(const std::string& path,
                                            const ShardedIndexOptions& options,
                                            std::string* error = nullptr);

  /// `path.shard<i>` — the per-shard image of Save/SaveStatic/Load.
  static std::string ShardSnapshotPath(const std::string& path, uint32_t i);
  /// `<dir>/shard-<i>` — the per-shard directory of OpenDurable.
  static std::string ShardDirFor(const std::string& dir, uint32_t i);

 private:
  ShardedIndex() = default;

  /// The one shard writer behind Save and SaveStatic: shard images first,
  /// then the manifest, which starts with `manifest_head`.
  bool WriteShards(const std::string& path, const std::string& manifest_head,
                   std::string* error) const;

  /// Splits `txns` into per-shard transaction lists.
  std::vector<std::vector<Transaction>> Partition(
      const std::vector<Transaction>& txns) const;

  void CountInserts(uint32_t shard, uint64_t n);

  ShardedIndexOptions options_;
  /// Views of the shard trees: owned by trees_ in-memory, or by the
  /// DurableTrees in durable mode. num_shards entries — except in static
  /// mode, where static_shards_ holds the index instead and these stay
  /// empty.
  std::vector<SgTree*> shards_;
  std::vector<std::unique_ptr<SgTree>> trees_;
  std::vector<std::unique_ptr<DurableTree>> durable_shards_;
  std::vector<std::unique_ptr<StaticTreeView>> static_shards_;
};

}  // namespace sgtree

#endif  // SGTREE_SHARD_SHARDED_INDEX_H_
