#include "durability/durable_tree.h"

#include <utility>

#include "common/stats.h"
#include "static/static_tree_builder.h"

namespace sgtree {

DurableTree::DurableTree(const Options& options, Env* env,
                         const std::string& dir)
    : options_(options), env_(env), dir_(dir) {}

std::unique_ptr<DurableTree> DurableTree::Open(Env* env,
                                               const std::string& dir,
                                               const Options& options,
                                               std::string* error) {
  auto fail = [error](const std::string& message)
      -> std::unique_ptr<DurableTree> {
    if (error != nullptr) *error = message;
    return nullptr;
  };

  std::unique_ptr<DurableTree> dt(new DurableTree(options, env, dir));
  // No other thread can reach dt yet, but the guarded state below is still
  // initialized under the lock so every access site type-checks against
  // the same protocol (and the hold is uncontended — it costs nothing).
  MutexLock lock(&dt->mu_);
  const std::string wal_path = WalPathFor(dir);
  if (env->FileExists(wal_path) || env->FileExists(dir + "/pages.sgp")) {
    // num_bits == 0 means "take the tree shape from the image" (the CLI's
    // mode); otherwise the caller's options must match it. RecoverTree
    // refuses the retired page-file layout.
    const SgTreeOptions* hint =
        options.tree.num_bits == 0 ? nullptr : &options.tree;
    auto recovered = RecoverTree(env, dir, error, hint, options.metrics);
    if (recovered == nullptr) return nullptr;
    dt->options_.tree = recovered->tree->options();
    dt->tree_ = std::move(recovered->tree);
    dt->recovery_report_ = recovered->report;
    dt->op_seq_ = recovered->report.op_seq;
    dt->checkpoint_seq_ = recovered->report.checkpoint_seq;
    // Keep the replayed records until the next checkpoint; truncate the
    // torn tail and append after the clean prefix.
    dt->wal_ = Wal::OpenForAppend(env, wal_path,
                                  recovered->report.wal_valid_end,
                                  options.metrics, error);
    if (dt->wal_ == nullptr) return nullptr;
    // A crash between a checkpoint's log rename and its deletion of the
    // previous image leaves that image behind; nothing reads it again.
    env->Delete(CheckpointPathFor(dir, dt->checkpoint_seq_ - 1));
  } else {
    // No log: the directory is new, or its creation never finished.
    if (options.tree.num_bits == 0) {
      return fail("a fresh durable tree needs options.tree.num_bits");
    }
    if (!env->CreateDir(dir)) return fail("cannot create directory " + dir);
    dt->tree_ = std::make_unique<SgTree>(options.tree);
    dt->checkpoint_seq_ = 1;
    if (!dt->PublishCheckpoint(dt->checkpoint_seq_, error)) return nullptr;
  }

  if (options.metrics != nullptr) {
    dt->checkpoint_latency_us_ =
        options.metrics->GetHistogram("checkpoint.latency_us");
    dt->checkpoint_count_ = options.metrics->GetCounter("checkpoint.count");
  }
  return dt;
}

bool DurableTree::LogOp(WalRecordType type, const Signature& sig,
                        uint64_t tid, bool sync) {
  ++op_seq_;
  WalRecord record;
  record.type = type;
  record.tid = tid;
  record.positions = sig.ToItems();
  if (wal_ == nullptr || !wal_->Append(record)) return false;
  return !sync || wal_->Commit();
}

bool DurableTree::Insert(const Transaction& txn) {
  return Insert(Signature::FromItems(txn.items, options_.tree.num_bits),
                txn.tid);
}

bool DurableTree::Insert(const Signature& sig, uint64_t tid) {
  // Mutate + log + fsync is one critical section: the operation is
  // acknowledged (lock released, true returned) only after its record is
  // on disk.
  MutexLock lock(&mu_);
  tree_->Insert(sig, tid);
  return LogOp(WalRecordType::kInsert, sig, tid, options_.sync_each_op);
}

bool DurableTree::Erase(const Transaction& txn) {
  return Erase(Signature::FromItems(txn.items, options_.tree.num_bits),
               txn.tid);
}

bool DurableTree::Erase(const Signature& sig, uint64_t tid) {
  MutexLock lock(&mu_);
  if (!tree_->Erase(sig, tid)) return false;  // Nothing changed; no record.
  return LogOp(WalRecordType::kErase, sig, tid, options_.sync_each_op);
}

size_t DurableTree::InsertBatch(const std::vector<Transaction>& txns) {
  MutexLock lock(&mu_);
  for (const Transaction& txn : txns) {
    const Signature sig =
        Signature::FromItems(txn.items, options_.tree.num_bits);
    tree_->Insert(sig, txn.tid);
    if (!LogOp(WalRecordType::kInsert, sig, txn.tid, /*sync=*/false)) {
      return 0;
    }
  }
  return wal_ != nullptr && wal_->Commit() ? txns.size() : 0;
}

bool DurableTree::AdoptBulkLoaded(std::unique_ptr<SgTree> loaded,
                                  std::string* error) {
  auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (loaded == nullptr) return fail("no tree to adopt");
  MutexLock lock(&mu_);
  if (!tree_->empty() || tree_->node_count() != 0) {
    return fail("bulk adoption requires an empty durable tree");
  }
  if (loaded->num_bits() != options_.tree.num_bits ||
      loaded->max_entries() != options_.tree.ResolvedMaxEntries()) {
    return fail("bulk-loaded tree was built with different options");
  }
  tree_ = std::move(loaded);
  ++op_seq_;
  // Not the public Checkpoint(): it would re-acquire mu_ and deadlock.
  return CheckpointLocked(error);
}

bool DurableTree::Sync() {
  MutexLock lock(&mu_);
  return wal_ != nullptr && wal_->Commit();
}

bool DurableTree::Checkpoint(std::string* error) {
  MutexLock lock(&mu_);
  return CheckpointLocked(error);
}

bool DurableTree::CheckpointLocked(std::string* error) {
  Timer timer;
  if (wal_ == nullptr || !wal_->Commit()) {
    if (error != nullptr) *error = "wal sync failed";
    return false;
  }
  const uint64_t next_seq = checkpoint_seq_ + 1;
  if (!PublishCheckpoint(next_seq, error)) return false;
  env_->Delete(CheckpointPathFor(dir_, checkpoint_seq_));
  checkpoint_seq_ = next_seq;
  if (checkpoint_count_ != nullptr) checkpoint_count_->Increment();
  if (checkpoint_latency_us_ != nullptr) {
    checkpoint_latency_us_->Observe(timer.ElapsedMs() * 1000.0);
  }
  return true;
}

bool DurableTree::PublishCheckpoint(uint64_t checkpoint_seq,
                                    std::string* error) {
  if (!AtomicWriteFile(env_, CheckpointPathFor(dir_, checkpoint_seq),
                       BuildStaticImage(*tree_), error)) {
    return false;
  }
  // The marker is the commit point. From here the old log may already be
  // replaced, so it must never receive another record.
  wal_.reset();
  WalRecord marker;
  marker.type = WalRecordType::kCheckpoint;
  marker.checkpoint_seq = checkpoint_seq;
  marker.op_seq = op_seq_;
  wal_ = Wal::Publish(env_, WalPathFor(dir_), marker, options_.metrics,
                      error);
  return wal_ != nullptr;
}

bool ExportStatic(const DurableTree& durable, const std::string& path,
                  std::string* error) {
  return durable.WithFrozenTree([&](const SgTree& tree) {
    return BuildStaticTree(tree, path, error);
  });
}

}  // namespace sgtree
