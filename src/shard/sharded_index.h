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

namespace sgtree {

/// Options of a ShardedIndex. `tree` configures every per-shard SG-tree
/// identically.
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
/// Every shard is an SgTree; an index is one of three kinds:
///  - In-memory (constructor / BulkLoad), saved via Save() as a small v1
///    manifest at `path` plus one static image per shard at
///    `path.shard<i>`; Load() makes every image a tree that reads its
///    nodes in place (LoadTree) and copies a node at its first edit.
///  - Durable (OpenDurable): each shard is a DurableTree in its own
///    subdirectory `<dir>/shard-<i>` with a private checkpoint image + WAL,
///    so a crash is recovered shard by shard at the next OpenDurable and a
///    fault in one shard's log never contaminates the others.
///  - Static (SaveStatic / Load of a v2 manifest): the same loaded trees,
///    but the index is read-only — updates return failure — so its shards
///    are never edited and every node is read from the mapped images.
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
  /// `options.num_shards` sizes a new directory, which also needs
  /// `options.tree.num_bits`: without a width, a directory holding no shard
  /// is refused before anything is created. Returns nullptr with `*error`
  /// set if the counts disagree or any shard fails to open.
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
  /// whether the key existed. A static-mode index is read-only:
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
    return static_cast<uint32_t>(shards_.size());
  }
  /// Signature width of every shard (Load and OpenDurable refuse shards of
  /// mixed width).
  uint32_t num_bits() const { return shards_[0]->num_bits(); }
  bool durable() const { return !durable_shards_.empty(); }
  /// True when the index is read-only (a v2 manifest).
  bool static_mode() const { return read_only_; }

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

  /// Shard `i`'s tree, under the name of the retired static shard type.
  const SgTree& static_shard(uint32_t i) const { return shard(i); }

  /// Durable mode: fsyncs / checkpoints every shard. No-ops in-memory.
  bool Sync();
  bool Checkpoint(std::string* error = nullptr);

  /// Saves this (writable) index: one crash-atomic static image per shard
  /// at ShardSnapshotPath(path, i), then a manifest at `path` naming the
  /// shard count. Save() writes a v1 manifest ("sgshard 1"), which Load()
  /// opens writable; SaveStatic() writes a v2 manifest ("sgshard 2" +
  /// "format static"), which Load() opens read-only. The shard images are
  /// the same bytes either way.
  bool Save(const std::string& path, std::string* error = nullptr) const;
  bool SaveStatic(const std::string& path, std::string* error = nullptr) const;

  /// Opens a Save()d or SaveStatic()d index: every shard image through
  /// LoadTree, read in place; a v2 manifest makes the index read-only.
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
  /// The shard trees, num_shards entries: owned by trees_, or by the
  /// DurableTrees in durable mode.
  std::vector<SgTree*> shards_;
  std::vector<std::unique_ptr<SgTree>> trees_;
  std::vector<std::unique_ptr<DurableTree>> durable_shards_;
  bool read_only_ = false;
};

}  // namespace sgtree

#endif  // SGTREE_SHARD_SHARDED_INDEX_H_
