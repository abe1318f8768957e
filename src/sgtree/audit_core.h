#ifndef SGTREE_SGTREE_AUDIT_CORE_H_
#define SGTREE_SGTREE_AUDIT_CORE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bit_ops.h"
#include "common/signature.h"
#include "common/signature_ops.h"
#include "sgtree/invariant_auditor.h"
#include "sgtree/node.h"
#include "storage/page.h"

namespace sgtree {
namespace audit_internal {

/// The one audit walk, instantiated for the dynamic tree (AuditTree) and
/// the static image (AuditStaticImage), the way search_core.h serves both
/// trees' queries. A `Tree` exposes root(), height(), size(), node_count(),
/// num_bits(), max_entries(), min_entries(), GetNodeNoCharge(PageId)
/// returning a NodeView, and LiveNodes() (ascending ids; for an image,
/// every index below node_count()).
template <typename Tree>
class Auditor {
 public:
  Auditor(const Tree& tree, const AuditOptions& options)
      : tree_(tree),
        options_(options),
        num_bits_(tree.num_bits()),
        max_entries_(tree.max_entries()),
        min_entries_(tree.min_entries()) {}

  AuditReport Run() && {
    report_.stats.height = tree_.height();
    for (const PageId id : tree_.LiveNodes()) {
      if (id >= live_.size()) live_.resize(static_cast<size_t>(id) + 1);
      live_[id] = true;
    }
    visited_.assign(live_.size(), false);

    const PageId root = tree_.root();
    if (root == kInvalidPageId) {
      if (tree_.size() != 0) {
        Violate(AuditCheck::kStructure, kInvalidPageId,
                "empty tree with recorded size " +
                    std::to_string(tree_.size()));
      }
      if (tree_.height() != 0) {
        Violate(AuditCheck::kStructure, kInvalidPageId,
                "empty tree with recorded height " +
                    std::to_string(tree_.height()));
      }
    } else if (!IsLive(root)) {
      Violate(AuditCheck::kDanglingRef, root,
              "root references a missing node");
    } else {
      const uint16_t root_level = tree_.GetNodeNoCharge(root).level();
      if (root_level + 1u != tree_.height()) {
        Violate(AuditCheck::kStructure, root,
                "root at level " + std::to_string(root_level) +
                    ", recorded height is " + std::to_string(tree_.height()));
      }
      Visit(root, /*is_root=*/true);
      if (report_.stats.leaf_entries != tree_.size()) {
        Violate(AuditCheck::kStructure, kInvalidPageId,
                "recorded size " + std::to_string(tree_.size()) + " != " +
                    std::to_string(report_.stats.leaf_entries) +
                    " leaf entries");
      }
      if (report_.stats.node_count != tree_.node_count()) {
        Violate(AuditCheck::kStructure, kInvalidPageId,
                "recorded node count " + std::to_string(tree_.node_count()) +
                    " != " + std::to_string(report_.stats.node_count) +
                    " reachable nodes");
      }
    }
    for (PageId id = 0; id < live_.size(); ++id) {
      if (live_[id] && !visited_[id]) {
        Violate(AuditCheck::kUnreachablePage, id,
                "live node is not reachable from the root");
      }
    }
    Finalize();
    return std::move(report_);
  }

 private:
  bool IsLive(uint64_t id) const { return id < live_.size() && live_[id]; }

  void Violate(AuditCheck check, PageId page, std::string detail) {
    ++report_.total_violations;
    if (report_.violations.size() < options_.max_violations) {
      report_.violations.push_back({check, page, std::move(detail)});
    }
  }

  /// Checks node `id` and its subtree; returns the OR of the node's entry
  /// signatures, the value its parent entry must carry.
  Signature Visit(PageId id, bool is_root) {
    if (visited_[id]) {
      Violate(AuditCheck::kStructure, id,
              "node reached twice (cycle or shared child)");
      return Signature(num_bits_);
    }
    visited_[id] = true;
    const NodeView node = tree_.GetNodeNoCharge(id);
    ++report_.stats.node_count;
    const uint16_t level = node.level();
    if (area_sum_.size() <= level) {
      area_sum_.resize(level + 1u, 0);
      entry_count_.resize(level + 1u, 0);
    }
    CheckFill(node, id, is_root);

    Signature cover(num_bits_);
    const uint32_t words = WordsForBits(num_bits_);
    const uint64_t tail = TailMask(num_bits_);
    for (size_t i = 0; i < node.Count(); ++i) {
      const EntryView entry = node.EntryAt(i);
      // Bits past num_bits in the last word would be phantom items to
      // every word-level set operation.
      if ((entry.sig.words()[words - 1] & ~tail) != 0) {
        Violate(AuditCheck::kSignatureWidth, id,
                "entry " + std::to_string(i) +
                    " has bits set beyond the signature width");
      }
      cover.UnionWith(entry.sig);
      area_sum_[level] += sig::Area(entry.sig);
      ++entry_count_[level];
      if (node.IsLeaf()) {
        ++report_.stats.leaf_entries;
        if (options_.check_tid_uniqueness) {
          const auto [it, inserted] = tid_owner_.emplace(entry.ref, id);
          if (!inserted) {
            Violate(AuditCheck::kDuplicateTid, id,
                    "tid " + std::to_string(entry.ref) +
                        " already indexed by node " +
                        std::to_string(it->second));
          }
        }
        continue;
      }
      if (!IsLive(entry.ref)) {
        Violate(AuditCheck::kDanglingRef, id,
                "entry " + std::to_string(i) + " references missing node " +
                    std::to_string(entry.ref));
        continue;
      }
      const auto child = static_cast<PageId>(entry.ref);
      const Signature child_cover = Visit(child, /*is_root=*/false);
      const uint16_t child_level = tree_.GetNodeNoCharge(child).level();
      if (child_level + 1u != level) {
        Violate(AuditCheck::kLevel, id,
                "entry " + std::to_string(i) + " child at level " +
                    std::to_string(child_level) + ", expected " +
                    std::to_string(level - 1));
      }
      if (!sig::Equal(entry.sig, child_cover)) {
        Violate(AuditCheck::kCoverage, id,
                "entry " + std::to_string(i) +
                    " signature is not the OR of child node " +
                    std::to_string(child) + "'s entries" +
                    FirstDifference(entry.sig, child_cover));
      }
    }
    return cover;
  }

  void CheckFill(const NodeView& node, PageId id, bool is_root) {
    if (node.Count() > max_entries_) {
      Violate(AuditCheck::kFill, id,
              "node has " + std::to_string(node.Count()) +
                  " entries, above capacity " + std::to_string(max_entries_));
    }
    if (is_root) {
      if (!node.IsLeaf() && node.Count() < 2) {
        Violate(AuditCheck::kFill, id,
                "directory root has fewer than 2 entries");
      }
      return;
    }
    if (node.Count() < min_entries_) {
      Violate(AuditCheck::kFill, id,
              "node has " + std::to_string(node.Count()) +
                  " entries, below minimum fill " +
                  std::to_string(min_entries_));
    }
    ++non_root_nodes_;
    non_root_entries_ += node.Count();
    const double fill = static_cast<double>(node.Count()) /
                        static_cast<double>(max_entries_);
    if (fill < report_.stats.min_fill) report_.stats.min_fill = fill;
  }

  /// Names the first bit where a directory entry and its child's cover
  /// differ. "Lost" bits break containment queries (a covered transaction
  /// becomes unreachable); "excess" bits only cost filtering precision.
  std::string FirstDifference(const SignatureView& entry,
                              const Signature& child_cover) const {
    for (uint32_t pos = 0; pos < num_bits_; ++pos) {
      if (entry.Test(pos) != child_cover.Test(pos)) {
        return child_cover.Test(pos)
                   ? " (lost bit " + std::to_string(pos) +
                         " of the child union)"
                   : " (excess bit " + std::to_string(pos) +
                         " not in the child union)";
      }
    }
    return "";
  }

  void Finalize() {
    report_.stats.avg_entry_area.assign(area_sum_.size(), 0.0);
    for (size_t level = 0; level < area_sum_.size(); ++level) {
      if (entry_count_[level] > 0) {
        report_.stats.avg_entry_area[level] =
            static_cast<double>(area_sum_[level]) /
            static_cast<double>(entry_count_[level]);
      }
    }
    if (non_root_nodes_ > 0) {
      report_.stats.avg_utilization =
          static_cast<double>(non_root_entries_) /
          (static_cast<double>(non_root_nodes_) *
           static_cast<double>(max_entries_));
    }
  }

  const Tree& tree_;
  const AuditOptions options_;
  const uint32_t num_bits_;
  const uint32_t max_entries_;
  const uint32_t min_entries_;

  AuditReport report_;
  std::vector<bool> live_;     // Indexed by PageId.
  std::vector<bool> visited_;  // Indexed by PageId.
  std::unordered_map<uint64_t, PageId> tid_owner_;  // tid -> first leaf.
  std::vector<uint64_t> area_sum_;     // Per level.
  std::vector<uint64_t> entry_count_;  // Per level.
  uint64_t non_root_nodes_ = 0;
  uint64_t non_root_entries_ = 0;
};

}  // namespace audit_internal

/// Audits any tree that hands out NodeViews; see audit_internal::Auditor.
template <typename Tree>
AuditReport AuditTreeOf(const Tree& tree, const AuditOptions& options) {
  return audit_internal::Auditor<Tree>(tree, options).Run();
}

}  // namespace sgtree

#endif  // SGTREE_SGTREE_AUDIT_CORE_H_
