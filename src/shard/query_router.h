#ifndef SGTREE_SHARD_QUERY_ROUTER_H_
#define SGTREE_SHARD_QUERY_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "exec/query_api.h"
#include "exec/query_executor.h"
#include "obs/metrics.h"
#include "shard/sharded_index.h"
#include "storage/buffer_pool.h"
#include "storage/sharded_buffer_pool.h"

namespace sgtree {

struct QueryRouterOptions {
  /// Frames of each lane's private pool, or the total capacity of the
  /// shared sharded pool — same semantics as QueryExecutorOptions.
  uint32_t buffer_pages = 64;

  /// 0 (default): every executor lane owns a private BufferPool; see
  /// `cold_per_subquery` for when it is cleared. > 0: all lanes share one
  /// ShardedBufferPool with this many lock stripes.
  uint32_t pool_shards = 0;

  /// Attach one SharedPruneBound per k-NN query, letting shards prune with
  /// the best k-th distance ANY shard has found so far (see
  /// sgtree/search.h). Results are identical either way — the bound only
  /// skips work — but per-shard counters become schedule-dependent, so the
  /// counter-determinism tests switch it off.
  bool shared_knn_bound = true;

  /// true (default): one executor task is a SLICE — one shard crossed with
  /// a contiguous block of queries — so task-dispatch cost, backend setup,
  /// and the pool amortize over the block. false: the legacy grid of one
  /// task per (query, shard), kept for the bench ablation.
  bool shard_major = true;

  /// true (default): each query is merged by whichever lane completes its
  /// LAST shard part (per-query atomic countdown), overlapping gather with
  /// scatter. false: legacy full barrier, then a serial merge loop on the
  /// calling thread — the bench ablation baseline.
  bool overlap_merge = true;

  /// false (default): in private-pool mode a lane clears its pool once per
  /// slice, so queries inside a slice warm the pool for each other on that
  /// slice's shard (per-query I/O counters then depend on the slice
  /// geometry — a pure function of batch size, shard count, lane count and
  /// `queries_per_task`, so repeated runs stay bit-identical). true: clear
  /// before every (query, shard) sub-query — the paper's per-sub-query
  /// cold-cache protocol, with counters independent of the slice geometry.
  /// Irrelevant under a shared pool, which is never cleared mid-batch.
  bool cold_per_subquery = false;

  /// Queries per shard-major slice; 0 picks an automatic block size (~8
  /// slices per lane across all shards, so stealing can still re-balance
  /// skewed slices). Ignored when shard_major is false.
  uint32_t queries_per_task = 0;

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
/// checks this for all six types on 1/2/8 shards, across every scheduling
/// mode). The merged per-query `trace` is the SUM over shards and
/// `elapsed_us` the MAX (the scatter-gather service time); those match the
/// single-tree numbers only in spirit, not byte for byte.
///
/// Scheduling (the defaults; see QueryRouterOptions for the legacy modes
/// the bench ablation keeps reachable):
///  - shard-major slices: a task is (shard, query block), so the per-task
///    dispatch cost and the lane's pool amortize over a block of
///    sub-queries instead of being paid per (query, shard) pair;
///  - overlapped merge: a per-query atomic countdown lets the lane that
///    finishes a query's last shard part merge that query immediately,
///    while other lanes are still scattering — there is no full barrier
///    followed by a serial caller-side merge loop;
///  - scratch reuse: the n-queries-by-s-shards partial-result matrix is a
///    router member whose slots (and their neighbor/id heap buffers) are
///    recycled across Run() calls, so steady-state batches allocate no
///    per-task storage.
///
/// The router borrows the executor's lanes but owns its pools, so a
/// router and a plain executor batch never share cache state. Requests are
/// validated once at the router boundary; an invalid request yields one
/// error result and is never fanned out.
class QueryRouter {
 public:
  /// `index` and `executor` must outlive the router. The executor is only
  /// used for its lanes (ParallelApply); its own pool options are
  /// irrelevant here.
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

  const ShardedBufferPool* shared_pool() const { return shared_pool_.get(); }

 private:
  PageCache* PoolFor(uint32_t worker_id);

  /// Runs queries [q_begin, q_end) of `batch` against shard `si` on lane
  /// `worker_id`, writing each part into partial_[qi * s + si] and, in
  /// overlap mode, merging any query whose countdown this slice finishes.
  void RunSlice(const std::vector<QueryRequest>& batch, uint32_t si,
                size_t q_begin, size_t q_end, uint32_t worker_id,
                const std::vector<uint8_t>& valid,
                std::vector<SharedPruneBound>* bounds,
                std::vector<QueryResult>* merged);

  const ShardedIndex* index_;
  QueryExecutor* executor_;
  QueryRouterOptions options_;
  std::vector<std::unique_ptr<BufferPool>> worker_pools_;
  std::unique_ptr<ShardedBufferPool> shared_pool_;

  /// Scatter scratch, reused across Run() calls: partial_[qi * s + si] is
  /// query qi's answer from shard si (ExecuteInto recycles each slot's
  /// buffers), remaining_[qi] counts qi's outstanding shard parts for the
  /// overlapped merge. Lock discipline note (common/sync.h): these need no
  /// mutex — each partial_ slot has exactly one writer per batch, and the
  /// acq_rel countdown on remaining_[qi] is the publication edge that
  /// hands a query's slots to whichever lane merges it. TSAN covers this
  /// protocol; the thread-safety analysis covers the mutex-based layers
  /// below it (stripe pools, metrics registry, durable shards).
  std::vector<QueryResult> partial_;
  std::unique_ptr<std::atomic<uint32_t>[]> remaining_;
  size_t remaining_capacity_ = 0;

  BatchReport report_;
};

}  // namespace sgtree

#endif  // SGTREE_SHARD_QUERY_ROUTER_H_
