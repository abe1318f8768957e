#ifndef SGTREE_SERVER_REPLICA_SET_H_
#define SGTREE_SERVER_REPLICA_SET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "exec/query_executor.h"
#include "shard/query_router.h"
#include "shard/sharded_index.h"

namespace sgtree {
namespace serve {

struct ReplicaSetOptions {
  /// Replicas of the index. > 1 requires static mode: extra replicas
  /// re-open the SAME read-only manifest as trees that read the mapped
  /// images in place, so they cost page-cache-shared memory, answer
  /// byte-identically by construction, and need no replication protocol.
  /// Dynamic/durable backends are pinned to exactly one replica.
  uint32_t num_replicas = 1;
  /// Manifest path extra replicas re-open (static manifests only).
  std::string manifest_path;
  /// Runtime options for re-opened replicas (buffer pages, metric).
  ShardedIndexOptions index_options;
  /// Router configuration, applied to every replica identically.
  QueryRouterOptions router;
};

/// Per-shard replica sets with least-loaded routing.
///
/// Each replica bundles a ShardedIndex view, a private QueryExecutor, and a
/// QueryRouter (Run is not reentrant, so each replica's mutex serializes
/// its batches — concurrency comes from having several replicas, each fed
/// by its own batcher dispatcher, not from re-entering one router).
///
/// Run() routes a batch to the least-loaded live replica and runs it
/// inline on the calling thread.
///
/// Replica failure: FailReplica(i) (the test hook; also the place a health
/// checker would report into) marks a replica dead — selection skips it,
/// and the set keeps serving until zero replicas are live (then batches
/// fail with an error result per request).
class ReplicaSet {
 public:
  /// `primary` is borrowed (the server owns it) and becomes replica 0;
  /// replicas 1..N-1 are opened from options.manifest_path. Returns null
  /// with *error set when the options are inconsistent (replication of a
  /// non-static backend) or a re-open fails.
  static std::unique_ptr<ReplicaSet> Create(ShardedIndex* primary,
                                            const ReplicaSetOptions& options,
                                            std::string* error);

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  /// Runs `requests` on the least-loaded live replica (inline, blocking);
  /// one result per request, in request order.
  std::vector<QueryResult> Run(const std::vector<QueryRequest>& requests);

  uint32_t num_replicas() const {
    return static_cast<uint32_t>(replicas_.size());
  }
  uint32_t live_replicas() const;

  /// Marks replica `i` dead. Safe while batches are in flight: a run
  /// already inside the replica completes normally (the index is not torn
  /// down), the replica just stops being selected.
  void FailReplica(uint32_t i);

  /// The mutex serializing replica 0's batches. The server holds it across
  /// mutations of a dynamic/durable backend so an insert never interleaves
  /// with a query batch on the same (single-replica) index.
  Mutex* primary_run_mutex();

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

  ReplicaSet() = default;

  /// Least-loaded live replica, or -1 when none is live.
  int PickReplica() const;

  std::vector<std::unique_ptr<Replica>> replicas_;
};

}  // namespace serve
}  // namespace sgtree

#endif  // SGTREE_SERVER_REPLICA_SET_H_
