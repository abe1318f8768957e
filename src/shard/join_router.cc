#include "shard/join_router.h"

#include <algorithm>

#include "common/stats.h"
#include "join/tree_join.h"

namespace sgtree {

JoinResult CollectTreePairJoin(const JoinRequest& request, const SgTree& r,
                               const SgTree& s, const SetCollection& r_sets,
                               const InvertedPostings& s_postings,
                               uint32_t buffer_pages,
                               std::vector<JoinPair>* pairs) {
  if (request.type == JoinType::kContainment) {
    const PrettiJoinBackend pretti(r_sets, s_postings);
    return CollectJoin(pretti, request, pairs);
  }
  const TreeJoinBackend tree(r, s, buffer_pages);
  return CollectJoin(tree, request, pairs);
}

JoinRouter::JoinRouter(const ShardedIndex& left, const ShardedIndex& right,
                       QueryExecutor* executor,
                       const JoinRouterOptions& options)
    : left_(&left), right_(&right), executor_(executor), options_(options) {
  if (left.static_mode() || right.static_mode()) {
    setup_error_ =
        "static shards serve point queries only; joins need mutable shards "
        "(a v1 manifest, which thaws its images, or the durable form)";
    return;
  }
  left_sets_.reserve(left.num_shards());
  for (uint32_t i = 0; i < left.num_shards(); ++i) {
    left_sets_.push_back(SetCollection::FromTree(left.shard(i), {}));
  }
  right_sets_.reserve(right.num_shards());
  for (uint32_t j = 0; j < right.num_shards(); ++j) {
    right_sets_.push_back(SetCollection::FromTree(right.shard(j), {}));
  }
  for (const SetCollection& s : right_sets_) {
    right_postings_.push_back(std::make_unique<InvertedPostings>(s));
  }
}

JoinResult JoinRouter::Run(const JoinRequest& request,
                           std::vector<JoinPair>* pairs) {
  pairs->clear();
  JoinResult merged;
  obs::MetricsRegistry* reg = options_.metrics;
  if (reg != nullptr) reg->GetCounter("join.requests")->Increment(1);

  merged.error = setup_error_;
  if (merged.ok()) merged.error = ValidateJoinRequest(request);
  if (!merged.ok()) {
    if (reg != nullptr) reg->GetCounter("join.rejected")->Increment(1);
    return merged;
  }

  const uint32_t n = left_->num_shards();
  const uint32_t m = right_->num_shards();
  const size_t tasks = static_cast<size_t>(n) * m;
  std::vector<JoinResult> task_results(tasks);
  std::vector<std::vector<JoinPair>> task_pairs(tasks);

  Timer timer;
  executor_->ParallelApply(tasks, [&](size_t t, uint32_t /*worker_id*/) {
    const uint32_t i = static_cast<uint32_t>(t / m);
    const uint32_t j = static_cast<uint32_t>(t % m);
    task_results[t] = CollectTreePairJoin(
        request, left_->shard(i), right_->shard(j), left_sets_[i],
        *right_postings_[j], options_.buffer_pages, &task_pairs[t]);
  });

  size_t total = 0;
  for (const std::vector<JoinPair>& part : task_pairs) total += part.size();
  pairs->reserve(total);
  for (std::vector<JoinPair>& part : task_pairs) {
    pairs->insert(pairs->end(), part.begin(), part.end());
  }
  std::sort(pairs->begin(), pairs->end(), CanonicalPairLess);

  for (const JoinResult& task : task_results) {
    if (!task.ok() && merged.ok()) merged.error = task.error;
    merged.backend = task.backend;
    merged.pairs += task.pairs;
    merged.trace += task.trace;
    merged.elapsed_us = std::max(merged.elapsed_us, task.elapsed_us);
  }
  const double wall_us = timer.ElapsedMs() * 1000.0;

  if (reg != nullptr) {
    if (!merged.ok()) reg->GetCounter("join.rejected")->Increment(1);
    reg->GetCounter("join.pairs")->Increment(merged.pairs);
    reg->GetCounter("join.fanout_tasks")->Increment(tasks);
    obs::Histogram* task_us = reg->GetHistogram("join.task_us");
    for (const JoinResult& task : task_results) {
      task_us->Observe(task.elapsed_us);
    }
    reg->GetHistogram("join.latency_us")->Observe(wall_us);
  }
  return merged;
}

}  // namespace sgtree
