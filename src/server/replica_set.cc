#include "server/replica_set.h"

#include <algorithm>
#include <utility>

namespace sgtree {
namespace serve {

std::unique_ptr<ReplicaSet> ReplicaSet::Create(
    ShardedIndex* primary, const ReplicaSetOptions& options,
    std::string* error) {
  const uint32_t n = std::max<uint32_t>(1, options.num_replicas);
  if (n > 1 && !primary->static_mode()) {
    *error = "replicas > 1 requires a static (immutable) index; "
             "dynamic and durable backends serve from one replica";
    return nullptr;
  }
  if (n > 1 && options.manifest_path.empty()) {
    *error = "replicas > 1 requires the manifest path to re-open views from";
    return nullptr;
  }
  std::unique_ptr<ReplicaSet> set(new ReplicaSet());
  for (uint32_t i = 0; i < n; ++i) {
    auto replica = std::make_unique<Replica>();
    if (i == 0) {
      replica->index = primary;
    } else {
      replica->owned_index =
          ShardedIndex::Load(options.manifest_path, options.index_options,
                             error);
      if (replica->owned_index == nullptr) {
        *error = "replica " + std::to_string(i) + ": " + *error;
        return nullptr;
      }
      replica->index = replica->owned_index.get();
    }
    replica->executor = std::make_unique<QueryExecutor>();
    replica->router = std::make_unique<QueryRouter>(
        *replica->index, replica->executor.get(), options.router);
    set->replicas_.push_back(std::move(replica));
  }
  return set;
}

uint32_t ReplicaSet::live_replicas() const {
  uint32_t live = 0;
  for (const auto& replica : replicas_) {
    if (!replica->failed.load(std::memory_order_relaxed)) ++live;
  }
  return live;
}

void ReplicaSet::FailReplica(uint32_t i) {
  if (i < replicas_.size()) {
    replicas_[i]->failed.store(true, std::memory_order_relaxed);
  }
}

Mutex* ReplicaSet::primary_run_mutex() { return &replicas_[0]->mu; }

int ReplicaSet::PickReplica() const {
  int best = -1;
  uint32_t best_load = 0;
  for (uint32_t i = 0; i < replicas_.size(); ++i) {
    if (replicas_[i]->failed.load(std::memory_order_relaxed)) continue;
    const uint32_t load = replicas_[i]->load.load(std::memory_order_relaxed);
    if (best < 0 || load < best_load) {
      best = static_cast<int>(i);
      best_load = load;
    }
  }
  return best;
}

std::vector<QueryResult> ReplicaSet::Run(
    const std::vector<QueryRequest>& requests) {
  const int picked = PickReplica();
  if (picked < 0) {
    std::vector<QueryResult> results(requests.size());
    for (QueryResult& r : results) r.error = "no live replicas";
    return results;
  }
  Replica& replica = *replicas_[static_cast<size_t>(picked)];
  replica.load.fetch_add(1, std::memory_order_relaxed);
  std::vector<QueryResult> results;
  {
    MutexLock lock(&replica.mu);
    results = replica.router->Run(requests);
  }
  replica.load.fetch_sub(1, std::memory_order_relaxed);
  return results;
}

}  // namespace serve
}  // namespace sgtree
