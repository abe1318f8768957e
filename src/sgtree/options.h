#ifndef SGTREE_SGTREE_OPTIONS_H_
#define SGTREE_SGTREE_OPTIONS_H_

#include <cstdint>
#include <string>

#include "common/distance.h"
#include "storage/page.h"

namespace sgtree {

/// Node-split policies (Section 3.1, plus kLinear for the [7] comparison).
enum class SplitPolicy {
  /// Linear-time seed pick (largest entry, then the entry farthest from
  /// it). Models the unoptimized split of Deppisch's S-tree ([7]), which
  /// the paper contrasts with its tuned policies. Fastest, worst quality.
  kLinear,
  /// R-tree quadratic split: seeds are the entry pair at maximum distance,
  /// remaining entries go to the group needing the least area enlargement.
  kQuadratic,
  /// Group-average hierarchical agglomerative clustering down to two
  /// clusters. The paper's pick: best quality at acceptable cost.
  kAverage,
  /// Single-linkage (minimum-spanning-tree) hierarchical clustering.
  kMinimum,
};

/// ChooseSubtree tie-breaking policies (Section 3.1).
enum class ChooseSubtreePolicy {
  /// Minimum area enlargement; ties broken by minimum area. The paper found
  /// this equal in quality to minimum overlap at much lower insertion cost.
  kMinEnlargement,
  /// Minimum overlap-increase with sibling entries; ties by enlargement,
  /// then area.
  kMinOverlap,
};

std::string SplitPolicyName(SplitPolicy policy);
std::string ChooseSubtreePolicyName(ChooseSubtreePolicy policy);

/// Construction-time parameters of an SG-tree.
struct SgTreeOptions {
  /// Signature width = item dictionary size. Required.
  uint32_t num_bits = 0;

  /// Page size the node capacity is derived from.
  uint32_t page_size = kDefaultPageSize;

  /// Maximum entries per node (M). 0 = derive from page_size and the
  /// uncompressed entry size, which matches the paper's "C in the order of
  /// several tens".
  uint32_t max_entries = 0;

  /// Minimum fill m as a fraction of M (the paper requires m <= M/2;
  /// R-tree-standard 40% by default).
  double min_fill_fraction = 0.4;

  SplitPolicy split_policy = SplitPolicy::kAverage;
  ChooseSubtreePolicy choose_policy = ChooseSubtreePolicy::kMinEnlargement;

  /// Distance metric served by the similarity searches.
  Metric metric = Metric::kHamming;

  /// For categorical data with exactly d values per tuple, set d to enable
  /// the Section 6 tightened lower bound; 0 otherwise.
  uint32_t fixed_dimensionality = 0;

  /// Track the minimum/maximum transaction size seen and use them to
  /// tighten the search bounds (the Section 6 "statistics from the indexed
  /// data" optimization, generalizing fixed dimensionality — on data whose
  /// transactions all have d items the statistic converges to exactly the
  /// fixed-dimensionality bound without being told d).
  bool use_area_stats = true;

  /// Frames of the tree's own LRU pool (SgTree::buffer_pool()), charged
  /// by the update path and by callers that keep a buffer warm across
  /// queries; queries run with no pool do not use it.
  uint32_t buffer_pages = 128;

  /// Resolved maximum node capacity.
  uint32_t ResolvedMaxEntries() const;
  /// Resolved minimum node fill (at least 1, at most M/2).
  uint32_t ResolvedMinEntries() const;
};

}  // namespace sgtree

#endif  // SGTREE_SGTREE_OPTIONS_H_
