#ifndef SGTREE_SGTREE_JOIN_H_
#define SGTREE_SGTREE_JOIN_H_

#include <cstdint>
#include <vector>

#include "sgtree/sg_tree.h"

namespace sgtree {

/// Multi-tree queries (reconstruction of the paper's Section 4.2, whose page
/// is missing from the available scan; see DESIGN.md). Both adapt the
/// corresponding R-tree algorithms the paper cites: synchronized-traversal
/// similarity joins (Brinkhoff et al.) and best-first closest pairs
/// (Corral et al.).
///
/// Pruning uses PairMinDist, a lower bound on the distance between ANY
/// transaction below entry A and ANY transaction below entry B. For sets
/// under Hamming distance the bound is inherently weak at directory level
/// (two subtrees sharing any item may hold identical transactions), but
/// disjoint subtree pairs and leaf-level entries prune effectively; with
/// fixed dimensionality d (categorical data) the bound
/// 2 * (d - |sigA AND sigB|) is strong everywhere.

struct JoinPair {
  uint64_t tid_a = 0;
  uint64_t tid_b = 0;
  double distance = 0;

  friend bool operator==(const JoinPair&, const JoinPair&) = default;
};

/// Streaming consumer of join pairs. The join algorithms call OnPair once
/// per matching pair in traversal order (no global sort — multi-million-pair
/// outputs never have to materialize); returning false cancels the join,
/// which then returns false to its caller. The collection-level join API
/// (exec/join_api.h) builds on this seam.
class JoinSink {
 public:
  virtual ~JoinSink() = default;
  virtual bool OnPair(const JoinPair& pair) = 0;
};

/// Lower bound on the distance between transactions drawn from two covering
/// signatures. `leaf_a` / `leaf_b` mark exact (leaf-entry) signatures, which
/// tighten the bound considerably.
double PairMinDist(SignatureView a, bool leaf_a, SignatureView b,
                   bool leaf_b, Metric metric, uint32_t fixed_dimensionality);

/// All pairs (ta, tb), ta indexed by `a`, tb by `b`, with distance <=
/// epsilon. Pairs are sorted by (distance, tid_a, tid_b). The trees must
/// share signature width and metric.
///
/// Thread-safe over const trees: each tree's node accesses are charged to
/// its own context (page ids are tree-local, so the two trees must not
/// share one pool; pass a.OwnPoolContext() / b.OwnPoolContext() to charge
/// each tree's own buffer pool); per-pair counters accumulate in the first
/// context whose trace pointer is set.
std::vector<JoinPair> SimilarityJoin(const SgTree& a, const SgTree& b,
                                     double epsilon,
                                     const QueryContext& ctx_a = {},
                                     const QueryContext& ctx_b = {});

/// Streaming form of SimilarityJoin: pairs reach `sink` in traversal order
/// (NOT distance-sorted). Returns false iff the sink cancelled the join.
bool SimilarityJoinInto(const SgTree& a, const SgTree& b, double epsilon,
                        const QueryContext& ctx_a, const QueryContext& ctx_b,
                        JoinSink* sink);

/// Set-containment join R ⋈⊆ S: all pairs (ta, tb), ta indexed by `a`, tb
/// by `b`, whose item sets satisfy items(ta) ⊆ items(tb). An empty ta is
/// contained in every tb. The pair distance is the containment gap
/// |tb| - |ta| (well-defined because leaf signatures are exact item sets),
/// so every join backend reports identical distances for identical pairs.
///
/// The traversal descends the R side to its leaves and prunes the S side
/// with directory containment: an S child whose covering signature does not
/// contain some R leaf signature cannot hold a superset of it. R-side
/// directory signatures admit no such prune (any subset of a covering
/// signature, including the empty set, may live below), which is what makes
/// this the naive tree-vs-tree baseline the dedicated join backends in
/// src/join/ are benched against. Pairs are sorted by (tid_a, tid_b).
std::vector<JoinPair> ContainmentJoin(const SgTree& a, const SgTree& b,
                                      const QueryContext& ctx_a = {},
                                      const QueryContext& ctx_b = {});

/// Streaming form: pairs in traversal order; false iff the sink cancelled.
bool ContainmentJoinInto(const SgTree& a, const SgTree& b,
                         const QueryContext& ctx_a, const QueryContext& ctx_b,
                         JoinSink* sink);

/// The k closest pairs between the two trees, ascending distance.
std::vector<JoinPair> ClosestPairs(const SgTree& a, const SgTree& b,
                                   uint32_t k, const QueryContext& ctx_a = {},
                                   const QueryContext& ctx_b = {});

}  // namespace sgtree

#endif  // SGTREE_SGTREE_JOIN_H_
