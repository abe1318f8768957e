#ifndef SGTREE_EXEC_QUERY_EXECUTOR_H_
#define SGTREE_EXEC_QUERY_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "exec/index_backend.h"
#include "exec/query_api.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"
#include "sgtree/sg_tree.h"

namespace sgtree {

// QueryType / QueryRequest / QueryResult live in exec/query_api.h — the
// executor is one consumer of the unified query API among several (router,
// CLI, benches).

/// Aggregate view of the last batch: counter totals reduced from the
/// per-worker accumulators plus exact latency percentiles over the batch's
/// per-query wall times.
struct BatchReport {
  uint64_t queries = 0;  // All requests in the batch, valid or not.
  uint64_t rejected = 0; // Requests that failed validation. Rejected
                         // requests contribute no latency sample and no
                         // counters — only `queries` counts them.
  double wall_ms = 0;    // Wall time of the whole batch.
  double task_us = 0;    // Total backend service time: the sum of every
                         // executed task's elapsed_us (per query here; per
                         // (query, shard) part in the sharded router).
                         // task_us / (wall_ms * 1000 * cores) is the
                         // core-independent dispatch efficiency the shard
                         // bench gates on.
  QueryTrace trace;      // Sum of per-query QueryTrace.
  double p50_us = 0;     // Exact percentiles of per-query elapsed_us
  double p95_us = 0;     // (nearest-rank); 0 when the batch was empty.
  double p99_us = 0;
};

struct QueryExecutorOptions {
  /// Total execution lanes, including the calling thread: the executor
  /// spawns num_threads - 1 workers and the thread calling Run/ParallelApply
  /// participates as the last lane instead of blocking. 0 =
  /// std::thread::hardware_concurrency().
  uint32_t num_threads = 0;

  /// Optional metrics sink. When set, every batch feeds the registry's
  /// "exec.*" counters (queries, rejected, nodes, I/Os, verifications,
  /// pruned subtrees) and the "exec.query_latency_us" histogram — one
  /// Observe per query, performed on the calling thread after the fan-out,
  /// so workers never touch the registry.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Worker-pool executor for query batches. It has one schedule:
///
///  - Work distribution is chunked range claiming, not an atomic RMW per
///    item: [0, n) is pre-split into one contiguous range per lane, each
///    lane claims chunks of clamp(n / (8 * lanes), 1, 64) items from its
///    own range with a single-word CAS, and a lane that runs dry steals
///    the tail half of another lane's remainder — per-task cost skew
///    load-balances without a shared cursor every task bounces through.
///  - The calling thread is a lane: Run()/ParallelApply execute work on the
///    caller instead of parking it on a condition variable, so
///    `num_threads = N` means N lanes, N-1 spawned threads.
///  - Batch hand-off is an epoch rendezvous on C++20 atomic wait/notify
///    (futex-backed on Linux): workers sleep on the epoch word between
///    batches and one release-increment publishes the next job — no mutex,
///    no condvar broadcast storm.
///  - The hot loop is devirtualized: jobs run as a raw function pointer
///    over a claimed [begin, end) range (see ParallelApply), so the typed
///    task body is invoked directly per item instead of through a
///    std::function per item.
///
/// Threads are started once at construction. Per-query counters accumulate
/// into per-lane QueryTrace totals and are reduced into last_batch_report()
/// at batch end — no shared counter is written from two threads.
///
/// The index structures are taken by const reference: queries never mutate
/// them (see QueryContext), which is the invariant making the fan-out
/// sound. Do not run a batch concurrently with inserts/erases on the same
/// tree; ParallelApply/Run are not reentrant.
class QueryExecutor {
 public:
  /// Job entry: runs items [begin, end) of the current job on lane
  /// `worker_id`. `ctx` is the caller's typed closure.
  using RangeFn = void (*)(void* ctx, size_t begin, size_t end,
                           uint32_t worker_id);

  explicit QueryExecutor(const QueryExecutorOptions& options = {});
  ~QueryExecutor();

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  /// Total lanes (spawned workers + the calling thread). worker_id passed
  /// to job bodies is always < num_threads().
  uint32_t num_threads() const { return num_lanes_; }

  /// Runs a batch against any backend of the unified query API. Each query
  /// goes through Execute() (validation included) with no pool, so every
  /// node read is one random I/O (see QueryContext) and results are
  /// byte-identical to the serial path.
  std::vector<QueryResult> Run(const IndexBackend& backend,
                               const std::vector<QueryRequest>& batch);

  /// Serial reference: executes the batch on the calling thread, one
  /// Execute() per query — the exact semantics of Run, so
  /// Run(SgTreeBackend(tree), batch) == RunSerial(tree, batch) for any
  /// thread count. This is the oracle the determinism tests compare
  /// against.
  static std::vector<QueryResult> RunSerial(
      const SgTree& tree, const std::vector<QueryRequest>& batch);

  /// Typed fan-out: invokes body(index, worker_id) for every index in
  /// [0, n), load-balanced across the lanes with chunked claiming and
  /// work stealing. The body is called through a per-type trampoline that
  /// runs whole claimed ranges, so there is no per-item type erasure.
  /// Blocks until all n are done (the caller works, it does not wait).
  /// Not reentrant.
  template <typename Body>
  void ParallelApply(size_t n, Body&& body) {
    using Decayed = std::remove_reference_t<Body>;
    RangeFn trampoline = [](void* ctx, size_t begin, size_t end,
                            uint32_t worker_id) {
      Decayed& fn = *static_cast<Decayed*>(ctx);
      for (size_t i = begin; i < end; ++i) fn(i, worker_id);
    };
    RunRanges(n, trampoline, const_cast<void*>(static_cast<const void*>(
                                 std::addressof(body))));
  }

  /// Full report of the last Run(): trace totals, reduced from the per-lane
  /// accumulators, and latency percentiles. Valid until the next
  /// Run()/destruction.
  const BatchReport& last_batch_report() const { return batch_report_; }

 private:
  /// One lane's claimable range, a single CAS word so owner claims and
  /// thief splits are linearizable against each other: high 32 bits = next
  /// unclaimed index, low 32 bits = one past the last. Cache-line aligned
  /// so lanes never false-share their queue words.
  struct alignas(64) TaskQueue {
    std::atomic<uint64_t> range{0};
  };

  /// Core of the fan-out: partitions [0, n), publishes (fn, ctx) to the
  /// spawned lanes via the epoch word, participates on the calling thread,
  /// then waits for stragglers on the pending-lane count.
  void RunRanges(size_t n, RangeFn fn, void* ctx);

  void WorkerLoop(uint32_t worker_id);

  /// Claim-execute-steal loop of one lane for the current job.
  void Participate(uint32_t worker_id);

  QueryExecutorOptions options_;
  uint32_t num_lanes_ = 1;

  std::vector<std::thread> threads_;  // num_lanes_ - 1 spawned workers.

  /// Rendezvous state. Job fields are plain: they are written before the
  /// release-increment of job_epoch_ and read after an acquire-load of it.
  /// This epoch protocol is a lock-free publication scheme, deliberately
  /// outside the mutex-based lock discipline of common/sync.h — clang's
  /// thread-safety analysis cannot model release/acquire hand-offs, so the
  /// invariant here is enforced by the TSAN job plus sglint's
  /// explicit-memory-order rule instead of SGTREE_GUARDED_BY.
  std::unique_ptr<TaskQueue[]> queues_;  // One per lane.
  std::atomic<uint64_t> job_epoch_{0};
  std::atomic<uint32_t> pending_lanes_{0};
  std::atomic<bool> shutdown_{false};
  RangeFn job_fn_ = nullptr;
  void* job_ctx_ = nullptr;
  size_t job_chunk_ = 1;

  BatchReport batch_report_;
};

}  // namespace sgtree

#endif  // SGTREE_EXEC_QUERY_EXECUTOR_H_
