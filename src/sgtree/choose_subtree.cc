#include "sgtree/choose_subtree.h"

#include <cstdint>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/signature_ops.h"

namespace sgtree {
namespace {

// Overlap increase with siblings if entries[index] is enlarged to cover sig.
uint64_t OverlapIncrease(const NodeView& node, size_t index,
                         const Signature& sig) {
  const SignatureView entry = node.EntryAt(index).sig;
  Signature enlarged = entry.ToSignature();
  enlarged.UnionWith(sig);
  uint64_t increase = 0;
  for (size_t j = 0; j < node.Count(); ++j) {
    if (j == index) continue;
    const SignatureView other = node.EntryAt(j).sig;
    increase += sig::IntersectCount(enlarged, other) -
                sig::IntersectCount(entry, other);
  }
  return increase;
}

}  // namespace

size_t ChooseSubtree(const NodeView& node, const Signature& sig,
                     ChooseSubtreePolicy policy) {
  const size_t count = node.Count();
  SGTREE_ASSERT(count > 0);

  // Cases 1 and 2: prefer entries that already contain the signature; among
  // those, the one with minimum area.
  size_t best_containing = count;
  uint32_t best_containing_area = std::numeric_limits<uint32_t>::max();
  for (size_t i = 0; i < count; ++i) {
    const SignatureView entry = node.EntryAt(i).sig;
    if (sig::Contains(entry, sig)) {
      const uint32_t area = sig::Area(entry);
      if (area < best_containing_area) {
        best_containing_area = area;
        best_containing = i;
      }
    }
  }
  if (best_containing != count) return best_containing;

  // Case 3: no entry contains the signature. Both ranking keys come from
  // one pass over the entry's words: the enlargement |sig AND NOT e| is
  // |sig| - |sig AND e|, and the same pass counts |e|.
  const uint32_t sig_area = sig.Area();
  auto enlargement_and_area = [&](size_t i) {
    const auto [inter, area] = sig::IntersectAndArea(sig, node.EntryAt(i).sig);
    return std::pair<uint32_t, uint32_t>{sig_area - inter, area};
  };
  if (policy == ChooseSubtreePolicy::kMinEnlargement) {
    size_t best = 0;
    uint32_t best_enlargement = std::numeric_limits<uint32_t>::max();
    uint32_t best_area = std::numeric_limits<uint32_t>::max();
    for (size_t i = 0; i < count; ++i) {
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
  for (size_t i = 0; i < count; ++i) {
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
