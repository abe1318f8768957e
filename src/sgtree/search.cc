#include "sgtree/search.h"

#include <limits>

#include "sgtree/search_core.h"

namespace sgtree {

// The algorithm bodies live in sgtree/search_core.h as templates shared
// with the static mmap'ed tree (src/static); these functions instantiate
// them for the dynamic SgTree.

Neighbor DfsNearest(const SgTree& tree, const Signature& query,
                    const QueryContext& ctx) {
  auto result = DfsKNearest(tree, query, 1, ctx);
  if (result.empty()) {
    return {0, std::numeric_limits<double>::infinity()};
  }
  return result.front();
}

std::vector<Neighbor> DfsKNearest(const SgTree& tree, const Signature& query,
                                  uint32_t k, const QueryContext& ctx,
                                  SharedPruneBound* shared) {
  return DfsKNearestCore(tree, query, k, ctx, shared);
}

std::vector<Neighbor> BestFirstKNearest(const SgTree& tree,
                                        const Signature& query, uint32_t k,
                                        const QueryContext& ctx,
                                        SharedPruneBound* shared) {
  return BestFirstKNearestCore(tree, query, k, ctx, shared);
}

std::vector<Neighbor> RangeSearch(const SgTree& tree, const Signature& query,
                                  double epsilon, const QueryContext& ctx) {
  return RangeSearchCore(tree, query, epsilon, ctx);
}

std::vector<uint64_t> ContainmentSearch(const SgTree& tree,
                                        const Signature& query,
                                        const QueryContext& ctx) {
  return ContainmentSearchCore(tree, query, ctx);
}

std::vector<uint64_t> ExactSearch(const SgTree& tree, const Signature& query,
                                  const QueryContext& ctx) {
  return ExactSearchCore(tree, query, ctx);
}

std::vector<uint64_t> SubsetSearch(const SgTree& tree, const Signature& query,
                                   const QueryContext& ctx) {
  return SubsetSearchCore(tree, query, ctx);
}

}  // namespace sgtree
