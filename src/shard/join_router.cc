#include "shard/join_router.h"

#include <algorithm>

#include "common/stats.h"
#include "join/tree_join.h"

namespace sgtree {

const char* JoinAlgoName(JoinAlgo algo) {
  switch (algo) {
    case JoinAlgo::kTree:
      return "tree";
    case JoinAlgo::kPretti:
      return "pretti";
    case JoinAlgo::kFvt:
      return "fvt";
  }
  return "unknown";
}

bool ParseJoinAlgo(const std::string& text, JoinAlgo* algo) {
  if (text == "tree") {
    *algo = JoinAlgo::kTree;
  } else if (text == "pretti") {
    *algo = JoinAlgo::kPretti;
  } else if (text == "fvt") {
    *algo = JoinAlgo::kFvt;
  } else {
    return false;
  }
  return true;
}

JoinRouter::JoinRouter(const ShardedIndex& left, const ShardedIndex& right,
                       QueryExecutor* executor,
                       const JoinRouterOptions& options)
    : left_(&left), right_(&right), executor_(executor), options_(options) {
  if (left.static_mode() || right.static_mode()) {
    setup_error_ =
        "static shards serve point queries only; joins need dynamic shards "
        "(load the v1 snapshot or durable form)";
    return;
  }
  if (options_.algo == JoinAlgo::kTree) return;
  left_sets_.reserve(left.num_shards());
  for (uint32_t i = 0; i < left.num_shards(); ++i) {
    left_sets_.push_back(SetCollection::FromTree(left.shard(i), {}));
  }
  right_sets_.reserve(right.num_shards());
  for (uint32_t j = 0; j < right.num_shards(); ++j) {
    right_sets_.push_back(SetCollection::FromTree(right.shard(j), {}));
  }
  if (options_.algo == JoinAlgo::kPretti) {
    for (const SetCollection& s : right_sets_) {
      right_postings_.push_back(std::make_unique<InvertedPostings>(s));
    }
  } else {
    for (const SetCollection& s : right_sets_) {
      right_tries_.push_back(std::make_unique<FvtTrie>(s));
    }
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
  if (merged.ok() && options_.algo != JoinAlgo::kTree &&
      request.type == JoinType::kSimilarity) {
    merged.error = std::string(JoinAlgoName(options_.algo)) +
                   " is a containment-only join; use the tree backend for "
                   "similarity joins";
  }
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
    switch (options_.algo) {
      case JoinAlgo::kTree: {
        const TreeJoinBackend backend(left_->shard(i), right_->shard(j),
                                      options_.buffer_pages);
        task_results[t] = CollectJoin(backend, request, &task_pairs[t]);
        break;
      }
      case JoinAlgo::kPretti: {
        const PrettiJoinBackend backend(left_sets_[i], *right_postings_[j]);
        task_results[t] = CollectJoin(backend, request, &task_pairs[t]);
        break;
      }
      case JoinAlgo::kFvt: {
        const FvtJoinBackend backend(left_sets_[i], *right_tries_[j]);
        task_results[t] = CollectJoin(backend, request, &task_pairs[t]);
        break;
      }
    }
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
