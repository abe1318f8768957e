#ifndef SGTREE_JOIN_TREE_JOIN_H_
#define SGTREE_JOIN_TREE_JOIN_H_

#include <cstdint>
#include <string>

#include "exec/join_api.h"
#include "sgtree/sg_tree.h"

namespace sgtree {

/// The baseline JoinBackend: wraps the synchronized tree-vs-tree traversals
/// in sgtree/join.h (SimilarityJoinInto / ContainmentJoinInto) behind the
/// collection-level join API. The only backend that serves kSimilarity, so
/// the predicate rule (CollectTreePairJoin) runs it for every similarity
/// join. Its kContainment path is the reference PRETTI is tested against
/// and the baseline row `bench_join` measures PRETTI against.
///
/// Each Run builds two private buffer pools — page ids are tree-local, so
/// the two trees must never share one pool — each of its tree's
/// `options().buffer_pages` frames, but never more frames than the tree has
/// nodes, and charges both trees' node reads plus the pair-level counters
/// into the caller's trace.
class TreeJoinBackend : public JoinBackend {
 public:
  /// `r` and `s` must share signature width and outlive the backend.
  TreeJoinBackend(const SgTree& r, const SgTree& s);

  const char* name() const override { return "tree"; }
  std::string SupportReason(const JoinRequest& request) const override;
  bool Run(const JoinRequest& request, const QueryContext& ctx,
           JoinSink* sink) const override;

 private:
  const SgTree* r_;
  const SgTree* s_;
};

}  // namespace sgtree

#endif  // SGTREE_JOIN_TREE_JOIN_H_
