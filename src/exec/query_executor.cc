#include "exec/query_executor.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/stats.h"
#include "exec/query_api.h"
#include "obs/percentile.h"

namespace sgtree {

namespace {

// The queue word packs (next unclaimed index, one-past-last) into one CAS
// target. 32 bits each: a single fan-out is bounded far below 4G items.
constexpr uint64_t Pack(size_t pos, size_t end) {
  return (static_cast<uint64_t>(pos) << 32) | static_cast<uint64_t>(end);
}
constexpr size_t PackedPos(uint64_t word) {
  return static_cast<size_t>(word >> 32);
}
constexpr size_t PackedEnd(uint64_t word) {
  return static_cast<size_t>(word & 0xffffffffu);
}

// Claims up to `chunk` items from the front of `queue`. Returns false when
// the queue is empty.
bool ClaimChunk(std::atomic<uint64_t>& queue, size_t chunk, size_t* begin,
                size_t* end) {
  uint64_t cur = queue.load(std::memory_order_relaxed);
  for (;;) {
    const size_t pos = PackedPos(cur);
    const size_t limit = PackedEnd(cur);
    if (pos >= limit) return false;
    const size_t take = std::min(chunk, limit - pos);
    if (queue.compare_exchange_weak(cur, Pack(pos + take, limit),
                                    std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
      *begin = pos;
      *end = pos + take;
      return true;
    }
  }
}

// Splits off the tail half of `queue` for a thief. Returns false when there
// is nothing left to steal.
bool StealHalf(std::atomic<uint64_t>& queue, size_t* begin, size_t* end) {
  uint64_t cur = queue.load(std::memory_order_relaxed);
  for (;;) {
    const size_t pos = PackedPos(cur);
    const size_t limit = PackedEnd(cur);
    if (pos >= limit) return false;
    const size_t take = (limit - pos + 1) / 2;
    if (queue.compare_exchange_weak(cur, Pack(pos, limit - take),
                                    std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
      *begin = limit - take;
      *end = limit;
      return true;
    }
  }
}

}  // namespace

QueryExecutor::QueryExecutor(const QueryExecutorOptions& options)
    : options_(options) {
  uint32_t n = options_.num_threads;
  if (n == 0) n = std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  num_lanes_ = n;
  queues_ = std::make_unique<TaskQueue[]>(num_lanes_);
  threads_.reserve(num_lanes_ - 1);
  for (uint32_t i = 0; i + 1 < num_lanes_; ++i) {
    threads_.emplace_back(&QueryExecutor::WorkerLoop, this, i);
  }
}

QueryExecutor::~QueryExecutor() {
  shutdown_.store(true, std::memory_order_release);
  // The epoch word itself must change: atomic::wait re-checks the value on
  // wake-up and parks again if it is unchanged, so notify alone would leave
  // workers asleep. The release bump also publishes the shutdown store.
  job_epoch_.fetch_add(1, std::memory_order_release);
  job_epoch_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void QueryExecutor::WorkerLoop(uint32_t worker_id) {
  uint64_t seen_epoch = 0;
  for (;;) {
    // Park on the epoch word (futex wait) until a new job is published or
    // shutdown is requested. wait() may return spuriously; the loop
    // re-checks both conditions.
    uint64_t epoch = job_epoch_.load(std::memory_order_acquire);
    while (epoch == seen_epoch && !shutdown_.load(std::memory_order_acquire)) {
      job_epoch_.wait(epoch, std::memory_order_acquire);
      epoch = job_epoch_.load(std::memory_order_acquire);
    }
    if (shutdown_.load(std::memory_order_relaxed)) return;
    seen_epoch = epoch;
    Participate(worker_id);
    if (pending_lanes_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_lanes_.notify_all();
    }
  }
}

void QueryExecutor::Participate(uint32_t worker_id) {
  const RangeFn fn = job_fn_;
  void* ctx = job_ctx_;
  const size_t chunk = job_chunk_;
  size_t begin = 0;
  size_t end = 0;
  for (;;) {
    // Drain our own range chunk by chunk: one uncontended CAS claims a
    // whole run of items for the typed trampoline.
    while (ClaimChunk(queues_[worker_id].range, chunk, &begin, &end)) {
      fn(ctx, begin, end, worker_id);
    }
    // Out of local work: steal the tail half of the first non-empty queue
    // and install it as our own, so other thieves can split it further.
    bool stole = false;
    for (uint32_t step = 1; step < num_lanes_ && !stole; ++step) {
      const uint32_t victim = (worker_id + step) % num_lanes_;
      if (StealHalf(queues_[victim].range, &begin, &end)) {
        queues_[worker_id].range.store(Pack(begin, end),
                                       std::memory_order_release);
        stole = true;
      }
    }
    if (!stole) return;  // Every queue is empty: the job is fully claimed.
  }
}

void QueryExecutor::RunRanges(size_t n, RangeFn fn, void* ctx) {
  if (n == 0) return;
  SGTREE_ASSERT_MSG(n <= 0xffffffffu, "fan-out larger than 2^32 items");
  const uint32_t lanes = num_lanes_;
  // Contiguous per-lane ranges: lane i owns ~n/lanes items. Contiguity
  // keeps a lane's claims adjacent (cache-friendly result slots) and makes
  // the no-steal schedule deterministic.
  const size_t base = n / lanes;
  const size_t extra = n % lanes;
  size_t next = 0;
  for (uint32_t i = 0; i < lanes; ++i) {
    const size_t len = base + (i < extra ? 1 : 0);
    queues_[i].range.store(Pack(next, next + len), std::memory_order_relaxed);
    next += len;
  }
  job_fn_ = fn;
  job_ctx_ = ctx;
  // ~8 claims per lane over its own range amortizes the CAS without
  // starving thieves; the cap keeps one claim from monopolizing a heavily
  // skewed tail.
  job_chunk_ =
      std::clamp<size_t>(n / (static_cast<size_t>(lanes) * 8), 1, 64);
  const uint32_t spawned = lanes - 1;
  pending_lanes_.store(spawned, std::memory_order_relaxed);
  job_epoch_.fetch_add(1, std::memory_order_release);
  if (spawned > 0) job_epoch_.notify_all();

  // The calling thread is the last lane: it executes work instead of
  // blocking, then waits (futex) only for straggling spawned lanes.
  Participate(lanes - 1);
  uint32_t left = pending_lanes_.load(std::memory_order_acquire);
  while (left != 0) {
    pending_lanes_.wait(left, std::memory_order_acquire);
    left = pending_lanes_.load(std::memory_order_acquire);
  }
}

std::vector<QueryResult> QueryExecutor::Run(
    const IndexBackend& backend, const std::vector<QueryRequest>& batch) {
  const size_t n = batch.size();
  // Results land in pre-sized slots by batch index; each slot is written by
  // exactly one lane, so no synchronization is needed on the vector.
  std::vector<QueryResult> results(n);
  std::vector<QueryTrace> lane_traces(num_lanes_);
  Timer batch_timer;
  ParallelApply(n, [&](size_t i, uint32_t worker_id) {
    results[i] = Execute(backend, batch[i]);
    lane_traces[worker_id] += results[i].trace;
  });
  batch_report_ = BatchReport{};
  batch_report_.queries = n;
  batch_report_.wall_ms = batch_timer.ElapsedMs();
  for (const QueryTrace& t : lane_traces) batch_report_.trace += t;

  // Rejected requests never ran: they are counted separately and excluded
  // from the latency sample (their elapsed_us is 0 by construction).
  std::vector<double> latencies;
  latencies.reserve(n);
  for (const QueryResult& r : results) {
    if (r.ok()) {
      latencies.push_back(r.elapsed_us);
      batch_report_.task_us += r.elapsed_us;
    } else {
      ++batch_report_.rejected;
    }
  }
  std::sort(latencies.begin(), latencies.end());
  batch_report_.p50_us = obs::NearestRankPercentile(latencies, 50);
  batch_report_.p95_us = obs::NearestRankPercentile(latencies, 95);
  batch_report_.p99_us = obs::NearestRankPercentile(latencies, 99);

  if (options_.metrics != nullptr) {
    // Registry feeding happens once per batch on the calling thread: the
    // counters advance by the batch totals and the latency histogram gets
    // one sample per executed query.
    obs::MetricsRegistry& reg = *options_.metrics;
    reg.GetCounter("exec.queries")->Increment(n);
    reg.GetCounter("exec.rejected")->Increment(batch_report_.rejected);
    reg.GetCounter("exec.nodes_visited")
        ->Increment(batch_report_.trace.nodes_visited());
    reg.GetCounter("exec.random_ios")
        ->Increment(batch_report_.trace.buffer_misses);
    reg.GetCounter("exec.signatures_tested")
        ->Increment(batch_report_.trace.signatures_tested);
    reg.GetCounter("exec.subtrees_pruned")
        ->Increment(batch_report_.trace.subtrees_pruned);
    reg.GetCounter("exec.candidates_verified")
        ->Increment(batch_report_.trace.candidates_verified);
    reg.GetCounter("exec.results")->Increment(batch_report_.trace.results);
    obs::Histogram* latency = reg.GetHistogram("exec.query_latency_us");
    for (const double us : latencies) latency->Observe(us);
  }
  return results;
}

std::vector<QueryResult> QueryExecutor::RunSerial(
    const SgTree& tree, const std::vector<QueryRequest>& batch) {
  std::vector<QueryResult> results;
  results.reserve(batch.size());
  for (const QueryRequest& query : batch) {
    results.push_back(Execute(SgTreeBackend(tree), query));
  }
  return results;
}

}  // namespace sgtree
