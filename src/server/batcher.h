#ifndef SGTREE_SERVER_BATCHER_H_
#define SGTREE_SERVER_BATCHER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "exec/query_api.h"
#include "obs/metrics.h"

namespace sgtree {
namespace serve {

/// One client query parked in the batcher: the connection thread Submit()s
/// it, then blocks in Wait() until the dispatcher that ran its batch fills
/// the result and signals.
struct PendingQuery {
  QueryRequest request;

  Mutex mu;
  CondVar cv;
  bool done SGTREE_GUARDED_BY(mu) = false;
  QueryResult result SGTREE_GUARDED_BY(mu);

  /// Fills the result and wakes the waiter. Called once per query.
  void Complete(QueryResult r) SGTREE_EXCLUDES(mu);

  /// Blocks until Complete() ran; returns the result by move.
  QueryResult Wait() SGTREE_EXCLUDES(mu);
};

/// Natural batcher: a free dispatcher takes everything queued, up to
/// kMaxBatch requests, and runs it as one QueryRouter batch. Under light
/// load a request finds an idle dispatcher and runs at once as a batch of
/// one; under load each batch is whatever queued while the previous batch
/// ran, so batch size follows load without a timer.
class Batcher {
 public:
  /// Largest batch one dispatcher takes off the queue.
  static constexpr uint32_t kMaxBatch = 64;

  /// Runs a batch and returns one QueryResult per request, in request
  /// order.
  using Runner = std::function<std::vector<QueryResult>(
      const std::vector<QueryRequest>&)>;

  /// Each dispatcher runs its batch inline, so `num_dispatchers` is also
  /// the router-level concurrency.
  Batcher(uint32_t num_dispatchers, Runner runner);
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  void Start();

  /// Runs what is queued, completes the stragglers with an error, joins
  /// dispatchers. Idempotent.
  void Stop();

  /// Parks a request; returns nullptr when the batcher is stopped (the
  /// server turns that into an error frame). Call pending->Wait() for the
  /// result.
  std::shared_ptr<PendingQuery> Submit(const QueryRequest& request)
      SGTREE_EXCLUDES(mu_);

  /// Always 0: the batcher never waits for more requests to arrive. Kept
  /// because perfbench reports it as server.linger_us.
  int64_t linger_us() const { return 0; }

  /// queue_depth: sampled at each batch pull. batch_size: requests per
  /// batch. exec_us: runner latency, from the call to its return.
  void BindMetrics(obs::Histogram* queue_depth, obs::Histogram* batch_size,
                   obs::Histogram* exec_us);

 private:
  void DispatchLoop() SGTREE_EXCLUDES(mu_);

  const uint32_t num_dispatchers_;
  const Runner runner_;

  Mutex mu_;
  CondVar cv_;
  std::deque<std::shared_ptr<PendingQuery>> queue_ SGTREE_GUARDED_BY(mu_);
  bool stop_ SGTREE_GUARDED_BY(mu_) = false;
  bool started_ = false;

  std::vector<std::thread> dispatchers_;

  obs::Histogram* queue_depth_hist_ = nullptr;
  obs::Histogram* batch_size_hist_ = nullptr;
  obs::Histogram* exec_us_hist_ = nullptr;
};

}  // namespace serve
}  // namespace sgtree

#endif  // SGTREE_SERVER_BATCHER_H_
