#ifndef SGTREE_SGTREE_INVARIANT_AUDITOR_H_
#define SGTREE_SGTREE_INVARIANT_AUDITOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sgtree/sg_tree.h"

namespace sgtree {

/// Deep structural verification of an SG-tree, whether its records live in
/// the tree's heap or are read in place from a static image. It keeps
/// walking past the first broken invariant and reports every violation,
/// each tagged with a machine-readable check id and a diagnostic naming the
/// offending node — the difference between "tree is broken" and "node 17,
/// entry 3 lost bit 412 of its signature".
///
/// Verified invariants:
///   - coverage (Definition 5): every directory entry's signature is exactly
///     the OR of its child node's entry signatures;
///   - height balance: child level == parent level - 1, all leaves at level
///     0, recorded height matches the root level;
///   - fill-factor bounds: non-root nodes hold between m and M entries, a
///     directory root at least 2;
///   - signature width: no entry sets a bit beyond the tree-wide width;
///   - leaf tid uniqueness: no transaction id is indexed twice;
///   - referential integrity: every entry reference resolves to a live
///     node, and every live node is reached exactly once from the root;
///   - bookkeeping: recorded size / height / node count match the walk.
enum class AuditCheck {
  kStructure,        // bookkeeping mismatch (size/height/count, cycles)
  kCoverage,         // directory signature != OR of child entries
  kLevel,            // child level != parent level - 1
  kFill,             // under minimum fill / over capacity / root fill
  kSignatureWidth,   // entry sets a bit beyond the signature width
  kDuplicateTid,     // transaction id indexed by two leaf entries
  kUnreachablePage,  // live node never reached from the root (orphan)
  kDanglingRef,      // entry referencing a freed or unknown node
};

/// Stable name for an AuditCheck ("coverage", "fill", ...), used by the CLI
/// and test diagnostics.
std::string_view AuditCheckName(AuditCheck check);

struct AuditViolation {
  AuditCheck check;
  /// Offending node (kInvalidPageId for tree-level bookkeeping violations).
  PageId page = kInvalidPageId;
  std::string detail;

  /// "coverage @page 17: ..." — the one-line form.
  std::string ToString() const;
};

/// Traversal statistics, gathered even when violations are found. The
/// per-level average entry area is the Table 1 split-quality metric.
struct AuditStats {
  uint32_t height = 0;
  uint64_t node_count = 0;
  uint64_t leaf_entries = 0;
  /// Average entry area per level; index 0 = leaf level.
  std::vector<double> avg_entry_area;
  /// Average node fill (entries / capacity) over all non-root nodes.
  double avg_utilization = 0;
  /// Smallest non-root fill fraction seen (1.0 for a root-only tree).
  double min_fill = 1.0;
};

struct AuditOptions {
  /// Recording stops after this many violations (the walk continues, and
  /// `total_violations` keeps counting).
  size_t max_violations = 64;
  bool check_tid_uniqueness = true;
};

struct AuditReport {
  std::vector<AuditViolation> violations;
  /// Total found, including any dropped past AuditOptions::max_violations.
  size_t total_violations = 0;
  AuditStats stats;

  bool ok() const { return total_violations == 0; }
  bool Has(AuditCheck check) const;
  /// First violation as a one-line string, or "" when ok.
  std::string FirstMessage() const;
  /// Multi-line report: one line per violation plus a stats footer.
  std::string Summary() const;
};

/// Audits the tree. Read-only and side-effect free: nodes are read without
/// a QueryContext, so no read is charged. On a loaded image, `page` in a
/// violation is the node index within the image; the image reader's
/// structural walk (static/static_tree_view.h) already enforces offsets,
/// levels and reachability, so those checks cannot fire there, and opening
/// with verify_checksums=false is how a corrupted but structurally sound
/// image reaches this audit.
AuditReport AuditTree(const SgTree& tree, const AuditOptions& options = {});

}  // namespace sgtree

#endif  // SGTREE_SGTREE_INVARIANT_AUDITOR_H_
