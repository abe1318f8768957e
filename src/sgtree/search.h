#ifndef SGTREE_SGTREE_SEARCH_H_
#define SGTREE_SGTREE_SEARCH_H_

#include <cstdint>
#include <vector>

#include "baseline/linear_scan.h"
#include "common/signature.h"
#include "sgtree/search_core.h"
#include "sgtree/sg_tree.h"
#include "storage/query_context.h"

namespace sgtree {

/// Similarity search and related queries over the SG-tree (Section 4).
///
/// Every query takes `const SgTree&` plus a QueryContext. The tree is never
/// mutated; the per-query counters go to the context's trace, where each
/// node read is one random-I/O miss unless the context names a pool. This
/// is the thread-safe form the parallel QueryExecutor uses — any number of
/// these may run concurrently against one tree, each with its own context.
/// The default, empty context counts nothing; a caller that wants a
/// buffer kept warm across queries passes its own pool in the context.
/// Most callers should go through the unified query API instead
/// (exec/query_api.h): build a QueryRequest and call Execute() on an
/// SgTreeBackend, which adds parameter validation and works across every
/// backend and the sharded router.
///
/// k-NN tie semantics: both k-NN variants return the canonical k-minimum
/// under the total order (distance, tid). Subtrees whose optimistic bound
/// EQUALS the current k-th best distance are descended rather than pruned,
/// so boundary ties always resolve to the smallest tids — the answer set is
/// a pure function of the data, independent of tree shape, insertion order,
/// or partitioning. (The paper's Figure 4 prunes on "not below", which can
/// return either tied transaction; determinism is what lets the sharded
/// scatter-gather merge reproduce the single-tree answer byte for byte.)

// SharedPruneBound (the cross-partition k-NN pruning bound) and the
// algorithm bodies now live in sgtree/search_core.h as templates shared
// with the static mmap'ed tree; the functions below instantiate them for
// SgTree.

/// Depth-first branch-and-bound nearest-neighbor search (Figure 4): child
/// entries are visited in ascending order of the optimistic lower bound
/// MinDistBound(q, e), ties broken by minimum entry area; a subtree is
/// pruned when its bound strictly exceeds the best distance found so far
/// (see the tie-semantics note above).
Neighbor DfsNearest(const SgTree& tree, const Signature& query,
                    const QueryContext& ctx = {});

/// k-nearest-neighbor variant: the single best-so-far is replaced by a
/// size-k priority queue whose maximum is the pruning bound. Results are
/// ascending by (distance, tid). `shared`, when non-null, attaches the
/// cross-partition bound described on SharedPruneBound.
std::vector<Neighbor> DfsKNearest(const SgTree& tree, const Signature& query,
                                  uint32_t k, const QueryContext& ctx = {},
                                  SharedPruneBound* shared = nullptr);

/// Optimal best-first nearest neighbor (Hjaltason & Samet): a global
/// priority queue over (bound, node); never reads a node whose bound
/// strictly exceeds the final k-th distance (boundary-tied nodes are
/// visited for canonical tie resolution).
std::vector<Neighbor> BestFirstKNearest(const SgTree& tree,
                                        const Signature& query, uint32_t k,
                                        const QueryContext& ctx = {},
                                        SharedPruneBound* shared = nullptr);

/// Similarity range query: all transactions within distance `epsilon` of
/// the query, ascending by distance (ties by tid). Subtrees with
/// MinDistBound > epsilon are pruned.
std::vector<Neighbor> RangeSearch(const SgTree& tree, const Signature& query,
                                  double epsilon, const QueryContext& ctx = {});

/// Itemset containment query (Section 3 example): all transactions whose
/// item set is a superset of `query`. Follows only entries whose signature
/// contains the query signature.
std::vector<uint64_t> ContainmentSearch(const SgTree& tree,
                                        const Signature& query,
                                        const QueryContext& ctx = {});

/// Exact-match lookup: ids of transactions whose signature equals `query`.
std::vector<uint64_t> ExactSearch(const SgTree& tree, const Signature& query,
                                  const QueryContext& ctx = {});

/// Subset query: all non-empty transactions whose item set is a SUBSET of
/// `query`. The only available pruning is that a subtree is skipped when
/// its signature shares no item with the query — per the paper's related
/// work ([14], Helmer & Moerkotte), signature trees are a poor fit for this
/// query type (inverted files win); provided for completeness and measured
/// honestly in bench_containment_methods.
std::vector<uint64_t> SubsetSearch(const SgTree& tree, const Signature& query,
                                   const QueryContext& ctx = {});

}  // namespace sgtree

#endif  // SGTREE_SGTREE_SEARCH_H_
