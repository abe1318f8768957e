#ifndef SGTREE_SGTREE_SPLIT_H_
#define SGTREE_SGTREE_SPLIT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sgtree/node.h"
#include "sgtree/options.h"

namespace sgtree {

/// Result of splitting an overflowed node: the indexes of its entries in
/// each of the two groups, in the order the new records list them. Both
/// groups are non-empty and hold at least `min_entries` entries whenever
/// the node has at least `2 * min_entries`.
struct SplitResult {
  std::vector<size_t> first;
  std::vector<size_t> second;
};

/// Divides the entries of `node` (the M+1 entries of an overflowed node)
/// into two groups according to `policy` (Section 3.1). `min_entries` is
/// the underflow limit m of the resulting nodes.
SplitResult SplitEntries(const NodeView& node, SplitPolicy policy,
                         uint32_t min_entries);

}  // namespace sgtree

#endif  // SGTREE_SGTREE_SPLIT_H_
