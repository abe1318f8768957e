#include "server/replica_set.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

namespace sgtree {
namespace serve {
namespace {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<QueryResult> AllError(size_t n, const std::string& message) {
  std::vector<QueryResult> results(n);
  for (QueryResult& r : results) r.error = message;
  return results;
}

}  // namespace

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
  set->options_ = options;
  set->hedge_delay_us_.store(options.hedge_delay_floor_us,
                             std::memory_order_relaxed);
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
  if (options.enable_hedging && n > 1) {
    set->hedge_thread_ = std::thread([s = set.get()] { s->HedgeLoop(); });
  }
  return set;
}

ReplicaSet::~ReplicaSet() {
  if (hedge_thread_.joinable()) {
    {
      MutexLock lock(&hedge_mu_);
      hedge_stop_ = true;
    }
    hedge_cv_.SignalAll();
    hedge_thread_.join();
  }
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

void ReplicaSet::BindMetrics(obs::Counter* hedges_fired,
                             obs::Counter* hedges_won,
                             obs::Histogram* run_us) {
  hedges_fired_ = hedges_fired;
  hedges_won_ = hedges_won;
  run_us_hist_ = run_us;
}

int ReplicaSet::PickReplica(uint32_t exclude) const {
  int best = -1;
  uint32_t best_load = 0;
  for (uint32_t i = 0; i < replicas_.size(); ++i) {
    if (i == exclude) continue;
    if (replicas_[i]->failed.load(std::memory_order_relaxed)) continue;
    const uint32_t load = replicas_[i]->load.load(std::memory_order_relaxed);
    if (best < 0 || load < best_load) {
      best = static_cast<int>(i);
      best_load = load;
    }
  }
  return best;
}

std::vector<QueryResult> ReplicaSet::RunOn(
    uint32_t ri, const std::vector<QueryRequest>& requests) {
  Replica& replica = *replicas_[ri];
  replica.load.fetch_add(1, std::memory_order_relaxed);
  std::vector<QueryResult> results;
  {
    MutexLock lock(&replica.mu);
    results = replica.router->Run(requests);
  }
  replica.load.fetch_sub(1, std::memory_order_relaxed);
  return results;
}

void ReplicaSet::UpdateHedgeDelay() {
  if (run_us_hist_ == nullptr) return;
  const double p99 = run_us_hist_->Percentile(99.0);
  if (std::isnan(p99)) return;
  const int64_t raw = std::isinf(p99) ? options_.hedge_delay_cap_us
                                      : static_cast<int64_t>(p99);
  hedge_delay_us_.store(std::clamp(raw, options_.hedge_delay_floor_us,
                                   options_.hedge_delay_cap_us),
                        std::memory_order_relaxed);
}

void ReplicaSet::RunHedged(const std::vector<QueryRequest>& requests,
                           Completion on_complete) {
  const int primary = PickReplica(num_replicas() /* exclude none */);
  if (primary < 0) {
    on_complete(AllError(requests.size(), "no live replicas"));
    return;
  }
  const bool hedge_eligible =
      hedge_thread_.joinable() && live_replicas() >= 2;
  std::shared_ptr<HedgedRun> run;
  if (hedge_eligible) {
    run = std::make_shared<HedgedRun>();
    run->requests = requests;
    run->on_complete = on_complete;
    run->primary_replica = static_cast<uint32_t>(primary);
    run->fire_at_us =
        NowUs() + hedge_delay_us_.load(std::memory_order_relaxed);
    {
      MutexLock lock(&hedge_mu_);
      armed_.push_back(run);
    }
    hedge_cv_.Signal();
  }
  const int64_t start = NowUs();
  std::vector<QueryResult> results =
      RunOn(static_cast<uint32_t>(primary), requests);
  if (run_us_hist_ != nullptr) {
    run_us_hist_->Observe(static_cast<double>(NowUs() - start));
    UpdateHedgeDelay();
  }
  if (run == nullptr) {
    on_complete(std::move(results));
    return;
  }
  run->primary_done.store(true, std::memory_order_release);
  if (!run->claimed.exchange(true, std::memory_order_acq_rel)) {
    run->on_complete(std::move(results));
  }
}

void ReplicaSet::HedgeLoop() {
  for (;;) {
    std::shared_ptr<HedgedRun> due;
    {
      MutexLock lock(&hedge_mu_);
      for (;;) {
        // Drop entries whose primary already answered (or claimed) — they
        // need no hedge and must not pin their request vectors.
        while (!armed_.empty() &&
               (armed_.front()->primary_done.load(std::memory_order_acquire) ||
                armed_.front()->claimed.load(std::memory_order_acquire))) {
          armed_.pop_front();
        }
        if (armed_.empty()) {
          if (hedge_stop_) return;
          hedge_cv_.Wait(&hedge_mu_);
          continue;
        }
        if (hedge_stop_) return;  // Stop beats pending hedges.
        // Arrival order is fire-time order up to delay adaptation jitter,
        // so the front is (close enough to) the earliest deadline.
        const int64_t now = NowUs();
        if (armed_.front()->fire_at_us <= now) {
          due = armed_.front();
          armed_.pop_front();
          break;
        }
        hedge_cv_.WaitFor(&hedge_mu_, armed_.front()->fire_at_us - now);
      }
    }
    if (due->primary_done.load(std::memory_order_acquire) ||
        due->claimed.load(std::memory_order_acquire)) {
      continue;
    }
    const int secondary = PickReplica(due->primary_replica);
    if (secondary < 0) continue;  // One live replica: nothing to hedge on.
    if (hedges_fired_ != nullptr) hedges_fired_->Increment();
    std::vector<QueryResult> results =
        RunOn(static_cast<uint32_t>(secondary), due->requests);
    if (!due->claimed.exchange(true, std::memory_order_acq_rel)) {
      if (hedges_won_ != nullptr) hedges_won_->Increment();
      due->on_complete(std::move(results));
    }
  }
}

}  // namespace serve
}  // namespace sgtree
