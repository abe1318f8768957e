#include "server/batcher.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace sgtree {
namespace serve {
namespace {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void PendingQuery::Complete(QueryResult r) {
  {
    MutexLock lock(&mu);
    result = std::move(r);
    done = true;
  }
  cv.Signal();
}

QueryResult PendingQuery::Wait() {
  MutexLock lock(&mu);
  while (!done) cv.Wait(&mu);
  return std::move(result);
}

Batcher::Batcher(uint32_t num_dispatchers, Runner runner)
    : num_dispatchers_(num_dispatchers), runner_(std::move(runner)) {}

Batcher::~Batcher() { Stop(); }

void Batcher::Start() {
  if (started_) return;
  started_ = true;
  const uint32_t n = std::max<uint32_t>(1, num_dispatchers_);
  dispatchers_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    dispatchers_.emplace_back([this] { DispatchLoop(); });
  }
}

void Batcher::Stop() {
  {
    MutexLock lock(&mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.SignalAll();
  for (std::thread& t : dispatchers_) t.join();
  dispatchers_.clear();
  // Dispatchers drain the queue before exiting, but a Submit that raced the
  // stop flag may have left a straggler; fail it rather than strand its
  // waiter.
  std::deque<std::shared_ptr<PendingQuery>> leftover;
  {
    MutexLock lock(&mu_);
    leftover.swap(queue_);
  }
  for (const auto& pending : leftover) {
    QueryResult result;
    result.error = "server shutting down";
    pending->Complete(std::move(result));
  }
}

std::shared_ptr<PendingQuery> Batcher::Submit(const QueryRequest& request) {
  auto pending = std::make_shared<PendingQuery>();
  pending->request = request;
  {
    MutexLock lock(&mu_);
    if (stop_) return nullptr;
    queue_.push_back(pending);
  }
  cv_.Signal();
  return pending;
}

void Batcher::BindMetrics(obs::Histogram* queue_depth,
                          obs::Histogram* batch_size,
                          obs::Histogram* exec_us) {
  queue_depth_hist_ = queue_depth;
  batch_size_hist_ = batch_size;
  exec_us_hist_ = exec_us;
}

void Batcher::DispatchLoop() {
  for (;;) {
    std::vector<std::shared_ptr<PendingQuery>> batch;
    {
      MutexLock lock(&mu_);
      while (queue_.empty()) {
        if (stop_) return;
        cv_.Wait(&mu_);
      }
      if (queue_depth_hist_ != nullptr) {
        queue_depth_hist_->Observe(static_cast<double>(queue_.size()));
      }
      const size_t take = std::min<size_t>(queue_.size(), kMaxBatch);
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    if (batch_size_hist_ != nullptr) {
      batch_size_hist_->Observe(static_cast<double>(batch.size()));
    }
    std::vector<QueryRequest> requests;
    requests.reserve(batch.size());
    for (const auto& pending : batch) requests.push_back(pending->request);
    const int64_t start = NowUs();
    std::vector<QueryResult> results = runner_(requests);
    if (exec_us_hist_ != nullptr) {
      exec_us_hist_->Observe(static_cast<double>(NowUs() - start));
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      QueryResult result;
      if (i < results.size()) {
        result = std::move(results[i]);
      } else {
        result.error = "batch runner returned too few results";
      }
      batch[i]->Complete(std::move(result));
    }
  }
}

}  // namespace serve
}  // namespace sgtree
