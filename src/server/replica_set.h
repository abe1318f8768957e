#ifndef SGTREE_SERVER_REPLICA_SET_H_
#define SGTREE_SERVER_REPLICA_SET_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "exec/query_executor.h"
#include "obs/metrics.h"
#include "shard/query_router.h"
#include "shard/sharded_index.h"

namespace sgtree {
namespace serve {

struct ReplicaSetOptions {
  /// Replicas of the index. > 1 requires static mode: extra replicas are
  /// re-opened mmap'ed views of the SAME immutable manifest, so they cost
  /// page-cache-shared memory, answer byte-identically by construction,
  /// and need no replication protocol. Dynamic/durable backends are pinned
  /// to exactly one replica.
  uint32_t num_replicas = 1;
  /// Manifest path extra replicas re-open (static manifests only).
  std::string manifest_path;
  /// Runtime options for re-opened replicas (buffer pages, metric).
  ShardedIndexOptions index_options;
  /// Router configuration, applied to every replica identically.
  QueryRouterOptions router;
  /// Hedge a batch when >= 2 replicas are live and the primary has not
  /// answered within the adaptive delay.
  bool enable_hedging = true;
  /// Bounds on the adaptive hedge delay (clamped observed run p99).
  int64_t hedge_delay_floor_us = 1000;
  int64_t hedge_delay_cap_us = 50000;
};

/// Per-shard replica sets with least-loaded routing and hedged seconds.
///
/// Each replica bundles a ShardedIndex view, a private QueryExecutor, and a
/// QueryRouter (Run is not reentrant, so each replica's mutex serializes
/// its batches — concurrency comes from having several replicas, each fed
/// by its own batcher dispatcher, not from re-entering one router).
///
/// RunHedged() routes a batch to the least-loaded live replica and runs it
/// inline on the calling thread. With hedging on, the batch is also armed
/// with the hedge manager: if the primary has not finished within the
/// adaptive delay (observed run p99, clamped to the configured bounds), the
/// manager re-runs the batch on a DIFFERENT live replica. Whichever run
/// finishes first claims the completion via one atomic exchange — the
/// completion runs exactly once, and the loser's results are dropped
/// (replicas of a static manifest are byte-identical, so dropping either
/// answer is sound). This is the classic tail-tolerance move: a p99-delayed
/// hedge bounds the tail at ~2x the median extra load for ~1% of requests.
///
/// Replica failure: FailReplica(i) (the test hook; also the place a health
/// checker would report into) marks a replica dead — selection skips it,
/// hedging degrades to none when one replica remains, and the set keeps
/// serving until zero replicas are live (then batches fail with an error
/// result per request).
class ReplicaSet {
 public:
  using Completion = std::function<void(std::vector<QueryResult>)>;

  /// `primary` is borrowed (the server owns it) and becomes replica 0;
  /// replicas 1..N-1 are opened from options.manifest_path. Returns null
  /// with *error set when the options are inconsistent (replication of a
  /// non-static backend) or a re-open fails.
  static std::unique_ptr<ReplicaSet> Create(ShardedIndex* primary,
                                            const ReplicaSetOptions& options,
                                            std::string* error);

  ~ReplicaSet();

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  /// Runs `requests` on the least-loaded live replica (inline, blocking),
  /// arming a hedge first when eligible. `on_complete` is invoked exactly
  /// once — from this thread or from the hedge manager's.
  void RunHedged(const std::vector<QueryRequest>& requests,
                 Completion on_complete);

  uint32_t num_replicas() const {
    return static_cast<uint32_t>(replicas_.size());
  }
  uint32_t live_replicas() const;

  /// Marks replica `i` dead. Safe while batches are in flight: a run
  /// already inside the replica completes normally (the index is not torn
  /// down), the replica just stops being selected.
  void FailReplica(uint32_t i);

  /// Current adaptive hedge delay (exported for tests and metrics).
  int64_t hedge_delay_us() const {
    return hedge_delay_us_.load(std::memory_order_relaxed);
  }

  /// The mutex serializing replica 0's batches. The server holds it across
  /// mutations of a dynamic/durable backend so an insert never interleaves
  /// with a query batch on the same (single-replica) index.
  Mutex* primary_run_mutex();

  /// hedges_fired: hedge executions launched. hedges_won: hedges that beat
  /// their primary. run_us: per-batch primary run latency — also the input
  /// of the adaptive delay, so binding it turns adaptation on.
  void BindMetrics(obs::Counter* hedges_fired, obs::Counter* hedges_won,
                   obs::Histogram* run_us);

 private:
  struct Replica {
    ShardedIndex* index = nullptr;  // Borrowed (0) or owned_index.get().
    std::unique_ptr<ShardedIndex> owned_index;
    std::unique_ptr<QueryExecutor> executor;
    std::unique_ptr<QueryRouter> router;
    /// Serializes router->Run (not reentrant).
    Mutex mu;
    /// Batches queued on or inside this replica (the load signal).
    std::atomic<uint32_t> load{0};
    std::atomic<bool> failed{false};
  };

  /// One armed batch, shared between the primary runner and the hedge
  /// manager. `claimed` is the exactly-once gate on on_complete.
  struct HedgedRun {
    std::vector<QueryRequest> requests;
    Completion on_complete;
    std::atomic<bool> claimed{false};
    std::atomic<bool> primary_done{false};
    uint32_t primary_replica = 0;
    int64_t fire_at_us = 0;
  };

  ReplicaSet() = default;

  /// Least-loaded live replica, excluding `exclude` (pass num_replicas()
  /// for none). Returns -1 when none is live.
  int PickReplica(uint32_t exclude) const;

  /// Runs `requests` on replica `ri` (blocking; bumps load, serializes on
  /// the replica mutex).
  std::vector<QueryResult> RunOn(uint32_t ri,
                                 const std::vector<QueryRequest>& requests);

  void HedgeLoop();
  void UpdateHedgeDelay();

  ReplicaSetOptions options_;
  std::vector<std::unique_ptr<Replica>> replicas_;

  std::atomic<int64_t> hedge_delay_us_{0};

  Mutex hedge_mu_;
  CondVar hedge_cv_;
  std::deque<std::shared_ptr<HedgedRun>> armed_ SGTREE_GUARDED_BY(hedge_mu_);
  bool hedge_stop_ SGTREE_GUARDED_BY(hedge_mu_) = false;
  std::thread hedge_thread_;

  obs::Counter* hedges_fired_ = nullptr;
  obs::Counter* hedges_won_ = nullptr;
  obs::Histogram* run_us_hist_ = nullptr;
};

}  // namespace serve
}  // namespace sgtree

#endif  // SGTREE_SERVER_REPLICA_SET_H_
