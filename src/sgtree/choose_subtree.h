#ifndef SGTREE_SGTREE_CHOOSE_SUBTREE_H_
#define SGTREE_SGTREE_CHOOSE_SUBTREE_H_

#include <cstddef>

#include "sgtree/node.h"
#include "sgtree/options.h"

namespace sgtree {

/// Picks the entry of directory node `node` under which to insert a new
/// signature `sig` (Section 3.1):
///
///   1. Exactly one entry contains `sig`  -> that entry.
///   2. Several entries contain `sig`     -> the one with minimum area
///      (refines the structure, like choosing the smallest covering MBR).
///   3. No entry contains `sig`:
///      - kMinEnlargement: minimum |e OR sig| - |e|; ties by minimum area.
///      - kMinOverlap: minimum overlap increase with the sibling entries
///        after enlargement; ties by enlargement, then area.
///
/// Returns the index of the chosen entry. `node` must not be empty.
size_t ChooseSubtree(const NodeView& node, const Signature& sig,
                     ChooseSubtreePolicy policy);

}  // namespace sgtree

#endif  // SGTREE_SGTREE_CHOOSE_SUBTREE_H_
