#ifndef SGTREE_SHARD_JOIN_ROUTER_H_
#define SGTREE_SHARD_JOIN_ROUTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/join_api.h"
#include "exec/query_executor.h"
#include "join/pretti_join.h"
#include "join/set_collection.h"
#include "obs/metrics.h"
#include "shard/sharded_index.h"

namespace sgtree {

/// The one rule that picks a join algorithm, its predicate, applied to
/// one pair of trees: containment runs PRETTI over `r_sets` (the item sets
/// of `r`) against `s_postings` (the postings of `s`'s sets); similarity
/// runs the tree join over `r` and `s`, the only backend that serves it.
/// The router's tasks and the CLI's single-index join both call it. Fills
/// `*pairs` in canonical order, as CollectJoin does.
JoinResult CollectTreePairJoin(const JoinRequest& request, const SgTree& r,
                               const SgTree& s, const SetCollection& r_sets,
                               const InvertedPostings& s_postings,
                               uint32_t buffer_pages,
                               std::vector<JoinPair>* pairs);

struct JoinRouterOptions {
  /// Frames of each side's private pool in the tree-join tasks.
  uint32_t buffer_pages = 64;
  /// Optional registry: every Run feeds "join.requests", "join.rejected",
  /// "join.pairs", "join.fanout_tasks", the per-task "join.task_us"
  /// histogram and the per-request "join.latency_us" histogram, all from
  /// the calling thread after the fan-out.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Scatter-gather collection join over two ShardedIndexes, the sharded
/// sibling of ExecuteJoin: the R side's hash partition splits the pair set
/// disjointly (every pair's R row lives in exactly one R shard), the S side
/// is broadcast by crossing every R shard with every S shard, and the
/// |R shards| x |S shards| grid of independent shard-pair joins fans out
/// over the executor's lanes — the MapReduce partitioning of the
/// set-containment join literature mapped onto ShardedIndex. Each task
/// joins its pair of shard trees with CollectTreePairJoin, so one router
/// answers both predicates. The PRETTI inputs (each R shard's item sets,
/// each S shard's postings) are built once, at construction, and shared
/// read-only across tasks.
///
/// The merged result — concatenate, then sort in the canonical
/// (tid_a, tid_b) order — is byte-identical to CollectJoin over one
/// unsharded index holding all the data, for both predicates: the grid
/// covers each joining pair exactly once and the pair distances are pure
/// functions of the pair. The merged trace is the SUM over tasks and
/// `elapsed_us` the MAX (scatter-gather service time).
class JoinRouter {
 public:
  /// `left` (R), `right` (S), and `executor` must outlive the router. Both
  /// indexes must hold dynamic shards: static-mode indexes are refused
  /// with a one-line error at Run.
  JoinRouter(const ShardedIndex& left, const ShardedIndex& right,
             QueryExecutor* executor, const JoinRouterOptions& options = {});

  JoinRouter(const JoinRouter&) = delete;
  JoinRouter& operator=(const JoinRouter&) = delete;

  /// Runs the join, filling `*pairs` (cleared first) in canonical order.
  JoinResult Run(const JoinRequest& request, std::vector<JoinPair>* pairs);

 private:
  const ShardedIndex* left_;
  const ShardedIndex* right_;
  QueryExecutor* executor_;
  JoinRouterOptions options_;
  std::string setup_error_;

  // PRETTI's per-shard inputs, built once at construction. Similarity
  // joins the shard trees directly.
  std::vector<SetCollection> left_sets_;
  std::vector<SetCollection> right_sets_;
  std::vector<std::unique_ptr<InvertedPostings>> right_postings_;
};

}  // namespace sgtree

#endif  // SGTREE_SHARD_JOIN_ROUTER_H_
