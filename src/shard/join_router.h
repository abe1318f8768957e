#ifndef SGTREE_SHARD_JOIN_ROUTER_H_
#define SGTREE_SHARD_JOIN_ROUTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/join_api.h"
#include "exec/query_executor.h"
#include "join/fvt_join.h"
#include "join/pretti_join.h"
#include "join/set_collection.h"
#include "obs/metrics.h"
#include "shard/sharded_index.h"

namespace sgtree {

/// Which join algorithm the router fans out (see src/join/).
enum class JoinAlgo {
  kTree,    // Tree-vs-tree traversal over the shard SG-trees (baseline).
  kPretti,  // Inverted index on S + prefix tree on R.
  kFvt,     // Candidate-free filter-and-verification trie on S.
};

const char* JoinAlgoName(JoinAlgo algo);
/// Parses "tree" / "pretti" / "fvt". Returns false on anything else.
bool ParseJoinAlgo(const std::string& text, JoinAlgo* algo);

struct JoinRouterOptions {
  JoinAlgo algo = JoinAlgo::kPretti;
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
/// over the executor's lanes — the FVT paper's MapReduce partitioning
/// mapped onto ShardedIndex. Each task joins with the configured algorithm;
/// S-side structures (posting lists, FVT trie) are built once per S shard
/// at construction and shared read-only across tasks.
///
/// The merged result — concatenate, then sort in the canonical
/// (tid_a, tid_b) order — is byte-identical to CollectJoin over one
/// unsharded index holding all the data, for every algorithm: the grid
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

  // Per-shard join inputs, built once at construction (empty in tree mode,
  // which joins the shard trees directly).
  std::vector<SetCollection> left_sets_;
  std::vector<SetCollection> right_sets_;
  std::vector<std::unique_ptr<InvertedPostings>> right_postings_;
  std::vector<std::unique_ptr<FvtTrie>> right_tries_;
};

}  // namespace sgtree

#endif  // SGTREE_SHARD_JOIN_ROUTER_H_
