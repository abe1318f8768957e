#include "sgtree/invariant_auditor.h"

#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace sgtree {

std::string_view AuditCheckName(AuditCheck check) {
  switch (check) {
    case AuditCheck::kStructure:
      return "structure";
    case AuditCheck::kCoverage:
      return "coverage";
    case AuditCheck::kLevel:
      return "level";
    case AuditCheck::kFill:
      return "fill";
    case AuditCheck::kSignatureWidth:
      return "signature-width";
    case AuditCheck::kDuplicateTid:
      return "duplicate-tid";
    case AuditCheck::kUnreachablePage:
      return "unreachable-page";
    case AuditCheck::kDanglingRef:
      return "dangling-ref";
  }
  return "unknown";
}

std::string AuditViolation::ToString() const {
  std::ostringstream out;
  out << AuditCheckName(check);
  if (page != kInvalidPageId) out << " @page " << page;
  out << ": " << detail;
  return out.str();
}

bool AuditReport::Has(AuditCheck check) const {
  for (const AuditViolation& v : violations) {
    if (v.check == check) return true;
  }
  return false;
}

std::string AuditReport::FirstMessage() const {
  return violations.empty() ? std::string() : violations.front().ToString();
}

std::string AuditReport::Summary() const {
  std::ostringstream out;
  if (ok()) {
    out << "all invariants hold\n";
  } else {
    out << total_violations << " violation(s)";
    if (total_violations > violations.size()) {
      out << " (showing first " << violations.size() << ")";
    }
    out << "\n";
    for (const AuditViolation& v : violations) {
      out << "  " << v.ToString() << "\n";
    }
  }
  out << "  height " << stats.height << ", " << stats.node_count
      << " nodes, " << stats.leaf_entries << " leaf entries, utilization "
      << stats.avg_utilization << " (min fill " << stats.min_fill << ")\n";
  return out.str();
}

namespace {

/// Violation recording, per-node checks and statistics for one audit.
struct Auditor {
  explicit Auditor(const AuditOptions& opts) : options(opts) {}

  AuditOptions options;
  AuditReport report;
  std::unordered_set<PageId> visited;
  std::unordered_map<uint64_t, PageId> tid_owner;  // tid -> first leaf page
  std::vector<uint64_t> area_sum;     // Per level.
  std::vector<uint64_t> entry_count;  // Per level.
  uint64_t non_root_nodes = 0;
  uint64_t non_root_entries = 0;

  uint32_t num_bits = 0;
  uint32_t max_entries = 0;  // 0 = unknown, capacity checks skipped.
  uint32_t min_entries = 0;

  void Violate(AuditCheck check, PageId page, std::string detail) {
    ++report.total_violations;
    if (report.violations.size() < options.max_violations) {
      report.violations.push_back({check, page, std::move(detail)});
    }
  }

  /// True the first time `id` is seen; records a structure violation (cycle
  /// or shared child) otherwise.
  bool MarkVisited(PageId id) {
    if (visited.insert(id).second) return true;
    Violate(AuditCheck::kStructure, id,
            "node reached twice (cycle or shared child)");
    return false;
  }

  /// Fill/width/tid checks plus statistics for one node; returns the OR of
  /// all well-formed entry signatures (the value the parent entry must
  /// carry).
  Signature CheckNode(const Node& node, PageId id, bool is_root) {
    ++report.stats.node_count;
    const uint32_t level = node.level;
    if (area_sum.size() <= level) {
      area_sum.resize(level + 1, 0);
      entry_count.resize(level + 1, 0);
    }

    if (max_entries > 0 && node.Count() > max_entries) {
      Violate(AuditCheck::kFill, id,
              "node has " + std::to_string(node.Count()) +
                  " entries, above capacity " + std::to_string(max_entries));
    }
    if (is_root) {
      if (!node.IsLeaf() && node.Count() < 2) {
        Violate(AuditCheck::kFill, id,
                "directory root has fewer than 2 entries");
      }
    } else {
      if (min_entries > 0 && node.Count() < min_entries) {
        Violate(AuditCheck::kFill, id,
                "node has " + std::to_string(node.Count()) +
                    " entries, below minimum fill " +
                    std::to_string(min_entries));
      }
      ++non_root_nodes;
      non_root_entries += node.Count();
      if (max_entries > 0) {
        const double fill = static_cast<double>(node.Count()) /
                            static_cast<double>(max_entries);
        if (fill < report.stats.min_fill) report.stats.min_fill = fill;
      }
    }

    Signature union_sig(num_bits);
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const Entry& entry = node.entries[i];
      if (entry.sig.num_bits() != num_bits) {
        Violate(AuditCheck::kSignatureWidth, id,
                "entry " + std::to_string(i) + " has width " +
                    std::to_string(entry.sig.num_bits()) +
                    ", tree width is " + std::to_string(num_bits));
        continue;  // Word counts differ; a union would read out of bounds.
      }
      union_sig.UnionWith(entry.sig);
      area_sum[level] += entry.sig.Area();
      ++entry_count[level];
      if (node.IsLeaf()) {
        ++report.stats.leaf_entries;
        if (options.check_tid_uniqueness) {
          const auto [it, inserted] = tid_owner.emplace(entry.ref, id);
          if (!inserted) {
            Violate(AuditCheck::kDuplicateTid, id,
                    "tid " + std::to_string(entry.ref) +
                        " already indexed by page " +
                        std::to_string(it->second));
          }
        }
      }
    }
    return union_sig;
  }

  /// Level and coverage checks for one directory entry against the child
  /// union returned by the recursive visit.
  void CheckParentEntry(PageId parent, size_t entry_index, const Entry& entry,
                        uint16_t parent_level, uint16_t child_level,
                        const Signature& child_union) {
    if (child_level + 1 != parent_level) {
      Violate(AuditCheck::kLevel, parent,
              "entry " + std::to_string(entry_index) + " child at level " +
                  std::to_string(child_level) + ", expected " +
                  std::to_string(parent_level - 1));
    }
    if (entry.sig.num_bits() == num_bits && !(entry.sig == child_union)) {
      // Name the first differing bit: "lost" bits break containment queries
      // (a covered transaction becomes unreachable), "excess" bits only cost
      // filtering precision. The distinction matters when triaging.
      std::string diff;
      for (uint32_t pos = 0; pos < num_bits; ++pos) {
        if (entry.sig.Test(pos) != child_union.Test(pos)) {
          diff = child_union.Test(pos) ? " (lost bit " + std::to_string(pos) +
                                             " of the child union)"
                                       : " (excess bit " +
                                             std::to_string(pos) +
                                             " not in the child union)";
          break;
        }
      }
      Violate(AuditCheck::kCoverage, parent,
              "entry " + std::to_string(entry_index) +
                  " signature is not the OR of child page " +
                  std::to_string(static_cast<PageId>(entry.ref)) +
                  "'s entries" + diff);
    }
  }

  void Finalize() {
    report.stats.avg_entry_area.assign(area_sum.size(), 0.0);
    for (size_t level = 0; level < area_sum.size(); ++level) {
      if (entry_count[level] > 0) {
        report.stats.avg_entry_area[level] =
            static_cast<double>(area_sum[level]) /
            static_cast<double>(entry_count[level]);
      }
    }
    if (non_root_nodes > 0 && max_entries > 0) {
      report.stats.avg_utilization =
          static_cast<double>(non_root_entries) /
          (static_cast<double>(non_root_nodes) *
           static_cast<double>(max_entries));
    }
  }
};

// ---------------------------------------------------------------------------
// In-memory tree walk.
// ---------------------------------------------------------------------------

Signature VisitTree(const SgTree& tree,
                    const std::unordered_set<PageId>& live, PageId id,
                    bool is_root, Auditor* a) {
  if (!a->MarkVisited(id)) return Signature(a->num_bits);
  const Node& node = tree.GetNodeNoCharge(id);
  const Signature union_sig = a->CheckNode(node, id, is_root);
  if (node.IsLeaf()) return union_sig;

  for (size_t i = 0; i < node.entries.size(); ++i) {
    const Entry& entry = node.entries[i];
    const auto child_id = static_cast<PageId>(entry.ref);
    if (live.count(child_id) == 0) {
      a->Violate(AuditCheck::kDanglingRef, id,
                 "entry " + std::to_string(i) + " references missing page " +
                     std::to_string(child_id));
      continue;
    }
    const Signature child_union =
        VisitTree(tree, live, child_id, /*is_root=*/false, a);
    a->CheckParentEntry(id, i, entry, node.level,
                        tree.GetNodeNoCharge(child_id).level, child_union);
  }
  return union_sig;
}

}  // namespace

AuditReport AuditTree(const SgTree& tree, const AuditOptions& options) {
  Auditor a(options);
  a.num_bits = tree.num_bits();
  a.max_entries = tree.max_entries();
  a.min_entries = tree.min_entries();
  a.report.stats.height = tree.height();

  const std::vector<PageId> live_ids = tree.LiveNodes();
  const std::unordered_set<PageId> live(live_ids.begin(), live_ids.end());

  if (tree.root() == kInvalidPageId) {
    if (tree.size() != 0) {
      a.Violate(AuditCheck::kStructure, kInvalidPageId,
                "empty tree with recorded size " +
                    std::to_string(tree.size()));
    }
    if (tree.height() != 0) {
      a.Violate(AuditCheck::kStructure, kInvalidPageId,
                "empty tree with recorded height " +
                    std::to_string(tree.height()));
    }
  } else if (live.count(tree.root()) == 0) {
    a.Violate(AuditCheck::kDanglingRef, tree.root(),
              "root references missing page");
  } else {
    const Node& root = tree.GetNodeNoCharge(tree.root());
    if (root.level + 1u != tree.height()) {
      a.Violate(AuditCheck::kStructure, tree.root(),
                "root at level " + std::to_string(root.level) +
                    ", recorded height is " + std::to_string(tree.height()));
    }
    VisitTree(tree, live, tree.root(), /*is_root=*/true, &a);
    if (a.report.stats.leaf_entries != tree.size()) {
      a.Violate(AuditCheck::kStructure, kInvalidPageId,
                "recorded size " + std::to_string(tree.size()) +
                    " != " + std::to_string(a.report.stats.leaf_entries) +
                    " leaf entries");
    }
    if (a.report.stats.node_count != tree.node_count()) {
      a.Violate(AuditCheck::kStructure, kInvalidPageId,
                "recorded node count " + std::to_string(tree.node_count()) +
                    " != " + std::to_string(a.report.stats.node_count) +
                    " reachable nodes");
    }
  }

  for (PageId id : live_ids) {
    if (a.visited.count(id) == 0) {
      a.Violate(AuditCheck::kUnreachablePage, id,
                "live page is not reachable from the root");
    }
  }

  a.Finalize();
  return a.report;
}

}  // namespace sgtree
