#ifndef SGTREE_DURABILITY_RECOVERY_H_
#define SGTREE_DURABILITY_RECOVERY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "durability/env.h"
#include "obs/metrics.h"
#include "sgtree/invariant_auditor.h"
#include "sgtree/sg_tree.h"

namespace sgtree {

/// The two files of a durable directory: the log, and the static image of
/// checkpoint `checkpoint_seq` (static/static_format.h, format v1).
std::string WalPathFor(const std::string& dir);
std::string CheckpointPathFor(const std::string& dir, uint64_t checkpoint_seq);

/// What crash recovery did: which checkpoint it loaded, how many logged
/// operations it replayed, and whether the log ended in a torn tail.
struct RecoveryReport {
  /// The checkpoint named by the log's marker.
  uint64_t checkpoint_seq = 0;
  /// Operation records replayed on the loaded checkpoint image.
  uint64_t records_replayed = 0;
  /// True when bytes past the clean prefix existed (torn tail / corruption).
  bool torn_tail = false;
  /// Bytes of the WAL record region accepted (the append point for the
  /// continuing log; everything past it is truncated away).
  uint64_t wal_valid_end = 0;
  /// op_seq of the recovered state: the marker's op_seq plus the records
  /// replayed.
  uint64_t op_seq = 0;

  /// One-line human-readable summary.
  std::string Summary() const;
};

/// A recovered index: the rebuilt in-memory tree, what recovery did, and
/// the post-recovery audit.
struct RecoveredTree {
  std::unique_ptr<SgTree> tree;
  RecoveryReport report;
  AuditReport audit;
};

/// Crash recovery of the durable directory `dir`. Reads nothing but the
/// directory and writes nothing:
///
///   1. read the log's first record, the checkpoint marker {c, op_seq}; a
///      log without a readable marker is refused, never taken for empty;
///   2. open `checkpoint-<c>.sgs` with checksums on and load it as a tree
///      that reads its nodes in place (ThawStatic);
///   3. replay the operation records in order through SgTree::Insert and
///      Erase, stopping at the first torn or corrupt frame;
///   4. gate the result through the InvariantAuditor — a tree that
///      recovers but fails the audit is an error, not a result.
///
/// A replayed erase that finds nothing, or a position at or beyond the
/// image's signature width, means the log does not belong to this image,
/// and recovery refuses it. A directory in the retired page-file layout
/// (`pages.sgp`) is refused with a reason that says to rebuild the index.
///
/// `options_hint`, when non-null, supplies the runtime tree options; its
/// signature width and node capacity must match the image. Otherwise both
/// are taken from the image. `metrics`, when non-null, receives
/// recovery.records_replayed. Returns nullptr with a one-line `*error` on
/// any failure.
std::unique_ptr<RecoveredTree> RecoverTree(
    Env* env, const std::string& dir, std::string* error,
    const SgTreeOptions* options_hint = nullptr,
    obs::MetricsRegistry* metrics = nullptr);

}  // namespace sgtree

#endif  // SGTREE_DURABILITY_RECOVERY_H_
