#include "sgtree/choose_subtree.h"

#include <cstdint>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/signature_ops.h"

namespace sgtree {
namespace {

// Overlap increase with siblings if entries[index] is enlarged to cover sig.
uint64_t OverlapIncrease(const Node& node, size_t index,
                         const Signature& sig) {
  Signature enlarged = node.entries[index].sig;
  enlarged.UnionWith(sig);
  uint64_t increase = 0;
  for (size_t j = 0; j < node.entries.size(); ++j) {
    if (j == index) continue;
    const Signature& other = node.entries[j].sig;
    increase += Signature::IntersectCount(enlarged, other) -
                Signature::IntersectCount(node.entries[index].sig, other);
  }
  return increase;
}

}  // namespace

size_t ChooseSubtree(const Node& node, const Signature& sig,
                     ChooseSubtreePolicy policy) {
  SGTREE_ASSERT(!node.entries.empty());

  // Cases 1 and 2: prefer entries that already contain the signature; among
  // those, the one with minimum area.
  size_t best_containing = node.entries.size();
  uint32_t best_containing_area = std::numeric_limits<uint32_t>::max();
  for (size_t i = 0; i < node.entries.size(); ++i) {
    if (node.entries[i].sig.Contains(sig)) {
      const uint32_t area = node.entries[i].sig.Area();
      if (area < best_containing_area) {
        best_containing_area = area;
        best_containing = i;
      }
    }
  }
  if (best_containing != node.entries.size()) return best_containing;

  // Case 3: no entry contains the signature. Both ranking keys come from
  // one pass over the entry's words: the enlargement |sig AND NOT e| is
  // |sig| - |sig AND e|, and the same pass counts |e|.
  const uint32_t sig_area = sig.Area();
  auto enlargement_and_area = [&](size_t i) {
    const auto [inter, area] = sig::IntersectAndArea(sig, node.entries[i].sig);
    return std::pair<uint32_t, uint32_t>{sig_area - inter, area};
  };
  if (policy == ChooseSubtreePolicy::kMinEnlargement) {
    size_t best = 0;
    uint32_t best_enlargement = std::numeric_limits<uint32_t>::max();
    uint32_t best_area = std::numeric_limits<uint32_t>::max();
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const auto [enlargement, area] = enlargement_and_area(i);
      if (enlargement < best_enlargement ||
          (enlargement == best_enlargement && area < best_area)) {
        best = i;
        best_enlargement = enlargement;
        best_area = area;
      }
    }
    return best;
  }

  // kMinOverlap.
  size_t best = 0;
  uint64_t best_overlap = std::numeric_limits<uint64_t>::max();
  uint32_t best_enlargement = std::numeric_limits<uint32_t>::max();
  uint32_t best_area = std::numeric_limits<uint32_t>::max();
  for (size_t i = 0; i < node.entries.size(); ++i) {
    const uint64_t overlap = OverlapIncrease(node, i, sig);
    const auto [enlargement, area] = enlargement_and_area(i);
    const bool better =
        overlap < best_overlap ||
        (overlap == best_overlap &&
         (enlargement < best_enlargement ||
          (enlargement == best_enlargement && area < best_area)));
    if (better) {
      best = i;
      best_overlap = overlap;
      best_enlargement = enlargement;
      best_area = area;
    }
  }
  return best;
}

}  // namespace sgtree
