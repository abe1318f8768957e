#include "shard/query_router.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/stats.h"
#include "exec/index_backend.h"
#include "obs/percentile.h"
#include "sgtree/search.h"
#include "static/static_tree_backend.h"

namespace sgtree {
namespace {

bool IsKnn(QueryType type) {
  return type == QueryType::kKnn || type == QueryType::kBestFirstKnn;
}

// Gathers one query's per-shard answers into `out` (whose error field is
// already clear): values are merged under the same canonical orders the
// single-tree search emits, counters are summed, and the service time is
// the slowest shard task.
void MergeQuery(const QueryRequest& request, const QueryResult* parts,
                uint32_t num_shards, QueryResult* out) {
  size_t total_neighbors = 0;
  size_t total_ids = 0;
  for (uint32_t i = 0; i < num_shards; ++i) {
    total_neighbors += parts[i].neighbors.size();
    total_ids += parts[i].ids.size();
  }
  out->neighbors.reserve(total_neighbors);
  out->ids.reserve(total_ids);
  for (uint32_t i = 0; i < num_shards; ++i) {
    out->neighbors.insert(out->neighbors.end(), parts[i].neighbors.begin(),
                          parts[i].neighbors.end());
    out->ids.insert(out->ids.end(), parts[i].ids.begin(),
                    parts[i].ids.end());
    out->trace += parts[i].trace;
    out->elapsed_us = std::max(out->elapsed_us, parts[i].elapsed_us);
  }
  // Tids are unique across shards (the index partitions by tid), so these
  // sorts see no equal keys and the orders are total.
  std::sort(out->neighbors.begin(), out->neighbors.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.tid < b.tid;
            });
  std::sort(out->ids.begin(), out->ids.end());
  if (IsKnn(request.type) && out->neighbors.size() > request.k) {
    // Every shard over-answers with its local top-k; the global answer is
    // the k best of the union.
    out->neighbors.resize(request.k);
  }
}

}  // namespace

QueryRouter::QueryRouter(const ShardedIndex& index, QueryExecutor* executor,
                         const QueryRouterOptions& options)
    : index_(&index), executor_(executor), options_(options) {}

void QueryRouter::RunSlice(const std::vector<QueryRequest>& batch,
                           uint32_t si, size_t q_begin, size_t q_end,
                           uint32_t worker_id,
                           const std::vector<uint8_t>& valid,
                           std::vector<SharedPruneBound>* bounds) {
  const uint32_t s = index_->num_shards();
  // Static-mode shards answer through the StaticTreeBackend; both backends
  // instantiate the same search cores, so the slice's results (values,
  // counters, and traces) are identical either way.
  const bool is_static = index_->static_mode();
  for (size_t qi = q_begin; qi < q_end; ++qi) {
    if (valid[qi] == 0) continue;
    const QueryRequest& request = batch[qi];
    SharedPruneBound* bound = options_.shared_knn_bound && IsKnn(request.type)
                                  ? &(*bounds)[qi]
                                  : nullptr;
    // A cold pool per sub-query keeps its counters independent of which
    // slice it landed in.
    BufferPool* pool = executor_->ClearedLanePool(worker_id);
    if (is_static) {
      ExecuteInto(StaticTreeBackend(index_->static_shard(si), bound), request,
                  pool, &partial_[qi * s + si]);
    } else {
      ExecuteInto(SgTreeBackend(index_->shard(si), bound), request, pool,
                  &partial_[qi * s + si]);
    }
  }
}

std::vector<QueryResult> QueryRouter::Run(
    const std::vector<QueryRequest>& batch) {
  const size_t n = batch.size();
  const uint32_t s = index_->num_shards();
  std::vector<QueryResult> merged(n);
  std::vector<uint8_t> valid(n, 0);
  uint64_t rejected = 0;
  for (size_t i = 0; i < n; ++i) {
    merged[i].error = ValidateRequest(batch[i]);
    valid[i] = merged[i].ok() ? 1 : 0;
    if (valid[i] == 0) ++rejected;
  }

  // The partial matrix is a member recycled across batches: steady state
  // reuses every slot's buffers instead of allocating n*s results per Run.
  if (partial_.size() < n * s) partial_.resize(n * s);
  std::vector<SharedPruneBound> bounds(options_.shared_knn_bound ? n : 0);

  Timer batch_timer;
  // A task is one shard crossed with a block of queries. The block is
  // sized for ~8 slices per lane in total, so the executor's chunked
  // claiming and stealing still have enough grains to balance cost skew,
  // while dispatch amortizes over the block.
  const size_t lanes = executor_->num_threads();
  const size_t slices_per_shard = std::max<size_t>(1, (8 * lanes + s - 1) / s);
  const size_t block =
      std::max<size_t>(1, (n + slices_per_shard - 1) / slices_per_shard);
  const size_t num_blocks = n == 0 ? 0 : (n + block - 1) / block;
  // Shard-major task order (all of shard 0's blocks, then shard 1's...)
  // keeps one lane's consecutive slices on one shard — the contiguous
  // per-lane ranges of the executor then give each lane shard affinity for
  // free.
  executor_->ParallelApply(
      static_cast<size_t>(s) * num_blocks,
      [&](size_t task, uint32_t worker_id) {
        const auto si = static_cast<uint32_t>(task / num_blocks);
        const size_t q_begin = (task % num_blocks) * block;
        const size_t q_end = std::min(n, q_begin + block);
        RunSlice(batch, si, q_begin, q_end, worker_id, valid, &bounds);
      });
  for (size_t qi = 0; qi < n; ++qi) {
    if (valid[qi] == 0) continue;
    MergeQuery(batch[qi], &partial_[qi * s], s, &merged[qi]);
  }

  report_ = BatchReport{};
  report_.queries = n;
  report_.rejected = rejected;
  std::vector<double> latencies;
  latencies.reserve(n);
  for (size_t qi = 0; qi < n; ++qi) {
    if (valid[qi] == 0) continue;
    report_.trace += merged[qi].trace;
    latencies.push_back(merged[qi].elapsed_us);
    // task_us sums the per-(query, shard) parts, not the merged max: it is
    // the total backend service time the lanes had to absorb.
    for (uint32_t si = 0; si < s; ++si) {
      report_.task_us += partial_[qi * s + si].elapsed_us;
    }
  }
  report_.wall_ms = batch_timer.ElapsedMs();
  std::sort(latencies.begin(), latencies.end());
  report_.p50_us = obs::NearestRankPercentile(latencies, 50);
  report_.p95_us = obs::NearestRankPercentile(latencies, 95);
  report_.p99_us = obs::NearestRankPercentile(latencies, 99);

  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options_.metrics;
    reg.GetCounter("shard.queries")->Increment(n);
    reg.GetCounter("shard.rejected")->Increment(rejected);
    reg.GetCounter("shard.fanout_tasks")->Increment((n - rejected) * s);
    for (uint32_t si = 0; si < s; ++si) {
      uint64_t shard_queries = 0;
      uint64_t shard_ios = 0;
      uint64_t shard_nodes = 0;
      for (size_t qi = 0; qi < n; ++qi) {
        if (valid[qi] == 0) continue;
        const QueryResult& part = partial_[qi * s + si];
        ++shard_queries;
        shard_ios += part.trace.buffer_misses;
        shard_nodes += part.trace.nodes_visited();
      }
      const std::string prefix = "shard." + std::to_string(si) + ".";
      reg.GetCounter(prefix + "queries")->Increment(shard_queries);
      reg.GetCounter(prefix + "random_ios")->Increment(shard_ios);
      reg.GetCounter(prefix + "nodes_visited")->Increment(shard_nodes);
    }
    obs::Histogram* latency = reg.GetHistogram("shard.query_latency_us");
    for (const double us : latencies) latency->Observe(us);
  }
  return merged;
}

QueryResult QueryRouter::RunOne(const QueryRequest& request) {
  std::vector<QueryResult> results = Run({request});
  return std::move(results.front());
}

}  // namespace sgtree
