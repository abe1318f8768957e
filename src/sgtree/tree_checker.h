#ifndef SGTREE_SGTREE_TREE_CHECKER_H_
#define SGTREE_SGTREE_TREE_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sgtree/sg_tree.h"

namespace sgtree {

/// Compact structural report of an SG-tree; `ok == false` means an
/// invariant is broken and `message` names the first violation found.
/// Besides verification, the per-level average entry area is the quality
/// metric the paper's Table 1 reports for the split-policy comparison.
///
/// This is the historical single-verdict interface, now a thin wrapper over
/// the InvariantAuditor (sgtree/invariant_auditor.h), which reports every
/// violation with a machine-readable check id. New code that needs
/// diagnostics should call AuditTree directly.
struct TreeReport {
  bool ok = true;
  std::string message;

  uint32_t height = 0;
  uint64_t node_count = 0;
  uint64_t leaf_entries = 0;
  /// Average entry area per level; index 0 = leaf level.
  std::vector<double> avg_entry_area;
  /// Average node fill (entries / capacity) over all non-root nodes.
  double avg_utilization = 0;
};

/// Runs the full invariant audit (coverage, levels, fill bounds, tid
/// uniqueness, reachability, bookkeeping) by a complete traversal without
/// charging the buffer pool, and condenses the result into a TreeReport.
TreeReport CheckTree(const SgTree& tree);

}  // namespace sgtree

#endif  // SGTREE_SGTREE_TREE_CHECKER_H_
