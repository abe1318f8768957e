#ifndef SGTREE_DURABILITY_DURABLE_TREE_H_
#define SGTREE_DURABILITY_DURABLE_TREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "data/transaction.h"
#include "durability/env.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "obs/metrics.h"
#include "sgtree/sg_tree.h"

namespace sgtree {

/// Crash-safe SG-tree: an in-memory SgTree whose every update is logged
/// before it is acknowledged. A durable directory holds two files: the
/// static image of the last checkpoint, `<dir>/checkpoint-<c>.sgs`
/// (static/static_format.h, unchanged), and `<dir>/wal.sgw`, whose first
/// record is the checkpoint marker {c, op_seq} and whose every later record
/// is one acknowledged insert or erase.
///
/// Write path (log-before-acknowledge): Insert/Erase mutate the tree and
/// append one record, which commits itself, then (sync_each_op) fsync.
/// Recovery thaws the marker's image and replays the records through
/// SgTree::Insert/Erase, so a crash loses at most operations that were
/// never acknowledged.
///
/// Checkpoint c -> c+1: commit the log; publish `checkpoint-<c+1>.sgs`;
/// publish a new log holding only the marker {c+1, op_seq} over wal.sgw
/// (temp file, fsync, rename, directory fsync) and reopen it for
/// appending; only then delete `checkpoint-<c>.sgs`. The marker is the only
/// commit point: a crash before the rename leaves the old marker, whose
/// image still exists, and a crash after it leaves the new pair. A log
/// never pairs with a newer image, because replaying an operation twice
/// is not harmless. Every file write goes through the tree's Env.
///
/// Lock protocol (compile-checked; see common/sync.h): mu_ serializes the
/// entire write path. "WAL append before ack" is a single critical section
/// per operation — mutate tree, append the record, fsync, THEN release and
/// acknowledge — so a reader of op_seq() never observes a sequence number
/// whose record is still being appended, and a checkpoint never lands
/// between an operation and its record. Lock order: mu_ is always acquired
/// before the Wal's internal lock, never the reverse — the Wal never calls
/// back into DurableTree.
///
/// Reads are deliberately OUTSIDE the lock: tree() hands out the SgTree
/// for lock-free const queries (queries touch nothing durable). The tree_
/// pointer is only reseated under mu_ during AdoptBulkLoaded, which by
/// contract runs before any reader exists.
class DurableTree {
 public:
  struct Options {
    SgTreeOptions tree;
    /// Fsync the log after every operation (full durability). When false,
    /// operations are durable only at the next Sync()/Checkpoint() — the
    /// group-commit mode batch loads want.
    bool sync_each_op = true;
    /// Optional registry for wal.* / checkpoint.* / recovery.* metrics.
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// Opens (or creates) the durable tree in `dir`. An existing index is
  /// crash-recovered first — including truncating a torn log tail — and
  /// `recovery_report()` tells what replay did. Only a directory with no
  /// log (its creation never finished) opens as a fresh index; it needs
  /// options.tree.num_bits. Returns nullptr with `*error` set on failure
  /// (I/O trouble, an unreadable marker or image, a failed audit, options
  /// that contradict the image, or a retired page-file directory), and
  /// then leaves the directory's files as they were.
  static std::unique_ptr<DurableTree> Open(Env* env, const std::string& dir,
                                           const Options& options,
                                           std::string* error);

  DurableTree(const DurableTree&) = delete;
  DurableTree& operator=(const DurableTree&) = delete;

  /// Logged updates. Return false when the operation could not be made
  /// durable (the in-memory tree may have advanced; treat the instance as
  /// crashed). Erase of an absent key returns false without logging.
  bool Insert(const Transaction& txn);
  bool Insert(const Signature& sig, uint64_t tid) SGTREE_EXCLUDES(mu_);
  bool Erase(const Transaction& txn);
  bool Erase(const Signature& sig, uint64_t tid) SGTREE_EXCLUDES(mu_);

  /// Inserts a batch under one group commit: one record per insert, one
  /// fsync for the whole batch regardless of sync_each_op. Returns
  /// txns.size() when that fsync succeeded and 0 otherwise (then none of
  /// the batch is acknowledged). The whole batch is one critical section:
  /// concurrent writers wait, so their operations land before or after the
  /// batch, never inside it.
  size_t InsertBatch(const std::vector<Transaction>& txns)
      SGTREE_EXCLUDES(mu_);

  /// Replaces the (required-empty) tree with `loaded` (a BulkLoad /
  /// BulkLoadEntries result built with the same options) and checkpoints,
  /// so the load is crash-safe from the moment this returns true. The load
  /// counts as one operation.
  bool AdoptBulkLoaded(std::unique_ptr<SgTree> loaded,
                       std::string* error = nullptr) SGTREE_EXCLUDES(mu_);

  /// Fsyncs any unsynced log records (the group-commit point when
  /// sync_each_op is off).
  bool Sync() SGTREE_EXCLUDES(mu_);

  /// Publishes the tree as the next checkpoint image and restarts the log
  /// at its marker (see the class comment). Returns false with `*error`
  /// set on failure; a failure after the old log was retired leaves the
  /// instance without a log, so later updates fail until it is reopened.
  bool Checkpoint(std::string* error = nullptr) SGTREE_EXCLUDES(mu_);

  /// The underlying tree. Reads are free to use it directly (queries touch
  /// nothing durable); mutate only through DurableTree.
  SgTree& tree() { return *tree_; }
  const SgTree& tree() const { return *tree_; }

  /// Runs `fn` against the tree with the write path locked out, so `fn`
  /// observes a frozen, operation-consistent snapshot (no half-applied
  /// insert can be in flight). Used by ExportStatic. Keep `fn` short:
  /// writers block for its whole duration.
  bool WithFrozenTree(const std::function<bool(const SgTree&)>& fn) const
      SGTREE_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return fn(*tree_);
  }

  /// Number of committed (logged) operations over the index lifetime.
  uint64_t op_seq() const SGTREE_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return op_seq_;
  }
  uint64_t checkpoint_seq() const SGTREE_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return checkpoint_seq_;
  }

  /// What recovery did at Open (all-zero for a fresh index).
  const RecoveryReport& recovery_report() const { return recovery_report_; }

 private:
  DurableTree(const Options& options, Env* env, const std::string& dir);

  /// Appends the record of one operation; `sync` forces/suppresses the
  /// per-op fsync.
  bool LogOp(WalRecordType type, const Signature& sig, uint64_t tid,
             bool sync) SGTREE_REQUIRES(mu_);
  /// Checkpoint body for callers already in the critical section
  /// (AdoptBulkLoaded checkpoints as the tail of its own operation — the
  /// EXCLUDES/REQUIRES split is what lets the analysis prove the public
  /// Checkpoint() is never re-entered under mu_).
  bool CheckpointLocked(std::string* error) SGTREE_REQUIRES(mu_);
  /// Publishes image `checkpoint_seq`, then a log holding only its marker,
  /// and appends to that log from then on.
  bool PublishCheckpoint(uint64_t checkpoint_seq, std::string* error)
      SGTREE_REQUIRES(mu_);

  Options options_;
  Env* env_;
  const std::string dir_;

  /// Serializes the write path; see the class comment for the protocol.
  mutable Mutex mu_;

  /// Reseated only under mu_ (AdoptBulkLoaded); dereferenced lock-free by
  /// readers per the read-path contract above, so the pointer itself stays
  /// unannotated — the analysis cannot model single-writer/lock-free-reader
  /// fields, TSAN covers that axis.
  std::unique_ptr<SgTree> tree_;
  /// The open log; replaced at every checkpoint, null after a checkpoint
  /// that failed once the old log was retired.
  std::unique_ptr<Wal> wal_ SGTREE_GUARDED_BY(mu_);

  uint64_t op_seq_ SGTREE_GUARDED_BY(mu_) = 0;
  uint64_t checkpoint_seq_ SGTREE_GUARDED_BY(mu_) = 0;
  RecoveryReport recovery_report_;

  obs::Histogram* checkpoint_latency_us_ = nullptr;
  obs::Counter* checkpoint_count_ = nullptr;
};

/// Exports a live durable index as a static image at `path`, holding the
/// write path locked for the duration so the image is an
/// operation-consistent snapshot.
bool ExportStatic(const DurableTree& durable, const std::string& path,
                  std::string* error = nullptr);

}  // namespace sgtree

#endif  // SGTREE_DURABILITY_DURABLE_TREE_H_
