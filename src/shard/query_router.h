#ifndef SGTREE_SHARD_QUERY_ROUTER_H_
#define SGTREE_SHARD_QUERY_ROUTER_H_

#include <cstdint>
#include <vector>

#include "exec/query_api.h"
#include "exec/query_executor.h"
#include "obs/metrics.h"
#include "shard/sharded_index.h"

namespace sgtree {

struct QueryRouterOptions {
  /// Attach one SharedPruneBound per k-NN query, letting shards prune with
  /// the best k-th distance ANY shard has found so far (see
  /// sgtree/search.h). Results are identical either way — the bound only
  /// skips work — but per-shard counters become schedule-dependent, so the
  /// counter-determinism tests switch it off.
  bool shared_knn_bound = true;

  /// Optional registry: each batch feeds "shard.queries",
  /// "shard.rejected", "shard.fanout_tasks", per-shard
  /// "shard.<i>.queries" / "shard.<i>.random_ios" /
  /// "shard.<i>.nodes_visited" counters and the "shard.query_latency_us"
  /// histogram (merged per-query latencies), all from the calling thread
  /// after the fan-out.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Scatter-gather query engine over a ShardedIndex: every query of a batch
/// is answered by all shards and the per-shard answers are merged:
///
///  - kKnn / kBestFirstKnn: merge the per-shard candidate lists under
///    (distance, tid) and keep the first k. Both the single tree and every
///    shard resolve boundary ties canonically (search.h), and a shard's
///    list always contains every member of the global top-k that lives in
///    that shard — the shared bound is provably never below the final k-th
///    distance — so the merge reproduces the single-tree answer exactly.
///  - kRange: concatenate and sort by (distance, tid) — each shard returns
///    its exact in-range transactions, and tids are unique across shards.
///  - kContainment / kExact / kSubset: union of the per-shard id lists,
///    sorted ascending.
///
/// In every case the merged result is byte-identical to running the same
/// request on one SG-tree holding all the data (the determinism suite
/// checks this for all six types on 1/2/8 shards, at several lane counts
/// and slice sizes). The merged per-query `trace` is the SUM over shards
/// and `elapsed_us` the MAX (the scatter-gather service time).
///
/// Scheduling — one mode:
///  - shard-major slices: a task is (shard, query block), with the block
///    sized for ~8 slices per lane across all shards, so per-task dispatch
///    amortizes over a block of sub-queries while the executor's claiming
///    and stealing still have grains to balance skew;
///  - cold sub-queries: sub-queries charge no pool, so each (query, shard)
///    trace is the cold per-shard trace whatever the slice geometry;
///  - barrier merge: after the fan-out the calling thread merges every
///    query serially, so no lane-to-lane hand-off protocol is needed.
///
/// The router runs on the executor's lanes, which carry no state from one
/// sub-query to the next, so a router and a plain executor batch may share
/// an executor. Requests are validated once at the router boundary; an
/// invalid request yields one error result and is never fanned out.
class QueryRouter {
 public:
  /// `index` and `executor` must outlive the router. Sub-queries run on the
  /// executor's lanes.
  QueryRouter(const ShardedIndex& index, QueryExecutor* executor,
              const QueryRouterOptions& options = {});

  QueryRouter(const QueryRouter&) = delete;
  QueryRouter& operator=(const QueryRouter&) = delete;

  /// Scatter-gathers the whole batch; results are in input order.
  std::vector<QueryResult> Run(const std::vector<QueryRequest>& batch);

  /// Convenience for a single request.
  QueryResult RunOne(const QueryRequest& request);

  /// Aggregate view of the last Run(): per-query merged latencies feed the
  /// percentiles, counters are summed over all (query, shard) tasks, and
  /// `queries` / `rejected` report the full batch vs the requests that
  /// failed validation (rejected requests contribute no counters and no
  /// latency sample).
  const BatchReport& last_batch_report() const { return report_; }

 private:
  /// Runs queries [q_begin, q_end) of `batch` against shard `si`, writing
  /// each part into (*partial)[qi * s + si].
  void RunSlice(const std::vector<QueryRequest>& batch, uint32_t si,
                size_t q_begin, size_t q_end,
                const std::vector<uint8_t>& valid,
                std::vector<SharedPruneBound>* bounds,
                std::vector<QueryResult>* partial) const;

  const ShardedIndex* index_;
  QueryExecutor* executor_;
  QueryRouterOptions options_;

  BatchReport report_;
};

}  // namespace sgtree

#endif  // SGTREE_SHARD_QUERY_ROUTER_H_
