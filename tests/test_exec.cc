// Tests for the parallel query engine and its storage layer: the flat-array
// LRU against a reference model, and the QueryExecutor's central promise —
// parallel batches are byte-identical to the serial path for every query
// type and metric. The stress tests at the bottom are the ThreadSanitizer
// targets (see the tsan CI job).

#include "exec/query_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <iterator>
#include <list>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/linear_scan.h"
#include "exec/index_backend.h"
#include "common/rng.h"
#include "common/sync.h"
#include "inverted/inverted_index.h"
#include "sgtable/sg_table.h"
#include "sgtree/search.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace sgtree {
namespace {

using ::sgtree::testing::ClusteredDataset;
using ::sgtree::testing::RandomSignature;

// ---------------------------------------------------------------------------
// Flat-array LRU vs a straightforward std::list reference model.
// ---------------------------------------------------------------------------

/// The obviously-correct LRU the BufferPool used to be: a recency list plus
/// hit/miss counters. The flat intrusive rewrite must be indistinguishable.
class ReferenceLru {
 public:
  explicit ReferenceLru(uint32_t capacity) : capacity_(capacity) {}

  bool Touch(PageId id) {
    auto it = std::find(lru_.begin(), lru_.end(), id);
    if (it != lru_.end()) {
      lru_.erase(it);
      lru_.push_front(id);
      ++hits_;
      return true;
    }
    ++misses_;
    if (capacity_ == 0) return false;
    if (lru_.size() == capacity_) lru_.pop_back();
    lru_.push_front(id);
    return false;
  }

  void TouchWrite(PageId id) {
    // Same residency effect as Touch, but writes are not classified as
    // buffer hits or random I/Os (matching BufferPool::TouchWrite).
    auto it = std::find(lru_.begin(), lru_.end(), id);
    if (it != lru_.end()) {
      lru_.erase(it);
      lru_.push_front(id);
      return;
    }
    if (capacity_ == 0) return;
    if (lru_.size() == capacity_) lru_.pop_back();
    lru_.push_front(id);
  }

  void Evict(PageId id) {
    auto it = std::find(lru_.begin(), lru_.end(), id);
    if (it != lru_.end()) lru_.erase(it);
  }

  void Clear() { lru_.clear(); }

  size_t resident() const { return lru_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  uint32_t capacity_;
  std::list<PageId> lru_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

TEST(BufferPoolModelTest, RandomOpsMatchReferenceModel) {
  for (uint32_t capacity : {0u, 1u, 2u, 7u, 64u}) {
    BufferPool pool(capacity);
    ReferenceLru model(capacity);
    Rng rng(42 + capacity);
    for (int op = 0; op < 20000; ++op) {
      const auto id = static_cast<PageId>(rng.UniformInt(100));
      const auto action = rng.UniformInt(100);
      if (action < 80) {
        ASSERT_EQ(pool.Touch(id), model.Touch(id))
            << "capacity=" << capacity << " op=" << op << " page=" << id;
      } else if (action < 90) {
        pool.Evict(id);
        model.Evict(id);
      } else if (action < 95) {
        pool.TouchWrite(id);
        model.TouchWrite(id);
      } else {
        pool.Clear();
        model.Clear();
      }
      ASSERT_EQ(pool.ResidentPages(), model.resident());
    }
    EXPECT_EQ(pool.stats().buffer_hits, model.hits());
  }
}

TEST(BufferPoolModelTest, ResizeKeepsMostRecentAndMatchesModelAfter) {
  BufferPool pool(32);
  ReferenceLru model(8);
  for (PageId id = 0; id < 32; ++id) pool.Touch(id);
  pool.Resize(8);
  // Pages 24..31 survive (most recent 8); re-touching them must all hit.
  for (PageId id = 24; id < 32; ++id) {
    model.Touch(id);  // Model starts empty: prime it to the same state.
  }
  ASSERT_EQ(pool.ResidentPages(), 8u);
  Rng rng(7);
  for (int op = 0; op < 5000; ++op) {
    const auto id = static_cast<PageId>(rng.UniformInt(48));
    ASSERT_EQ(pool.Touch(id), model.Touch(id)) << "op=" << op;
  }
}

// ---------------------------------------------------------------------------
// QueryExecutor: parallel == serial, byte for byte.
// ---------------------------------------------------------------------------

struct ExecFixture {
  Dataset dataset;
  std::unique_ptr<SgTree> tree;
  std::vector<QueryRequest> batch;
};

ExecFixture MakeExecFixture(uint64_t seed, Metric metric,
                            uint32_t num_queries = 60) {
  ExecFixture f;
  f.dataset = ClusteredDataset(seed, 900, 200, 8, 10, 3);
  SgTreeOptions options;
  options.num_bits = 200;
  options.max_entries = 10;
  options.metric = metric;
  f.tree = std::make_unique<SgTree>(options);
  for (const Transaction& txn : f.dataset.transactions) f.tree->Insert(txn);

  Rng rng(seed ^ 0x5eed);
  const QueryType kTypes[] = {QueryType::kKnn,         QueryType::kBestFirstKnn,
                              QueryType::kRange,       QueryType::kContainment,
                              QueryType::kExact,       QueryType::kSubset};
  for (uint32_t i = 0; i < num_queries; ++i) {
    QueryRequest q;
    q.type = kTypes[i % std::size(kTypes)];
    Signature sig = RandomSignature(rng, 200, 0.04);
    if (sig.Empty()) sig.Set(3);
    // Exact queries only make sense for signatures actually in the data;
    // reuse a transaction's signature for some of them.
    if (q.type == QueryType::kExact && i % 2 == 0) {
      const auto& txn =
          f.dataset.transactions[rng.UniformInt(f.dataset.size())];
      sig = Signature::FromItems(txn.items, 200);
    }
    q.query = std::move(sig);
    q.k = 1 + static_cast<uint32_t>(rng.UniformInt(10));
    q.epsilon = metric == Metric::kHamming ? 6.0 : 0.4;
    f.batch.push_back(std::move(q));
  }
  return f;
}

void ExpectBatchesIdentical(const std::vector<QueryResult>& a,
                            const std::vector<QueryResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].neighbors, b[i].neighbors) << "query " << i;
    EXPECT_EQ(a[i].ids, b[i].ids) << "query " << i;
    EXPECT_EQ(a[i].trace, b[i].trace) << "query " << i;
  }
}

class ExecutorDeterminismTest : public ::testing::TestWithParam<Metric> {};

TEST_P(ExecutorDeterminismTest, ParallelMatchesSerialAllQueryTypes) {
  const ExecFixture f = MakeExecFixture(11, GetParam());
  const auto serial = QueryExecutor::RunSerial(*f.tree, f.batch, 16);
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    QueryExecutorOptions options;
    options.num_threads = threads;
    options.buffer_pages = 16;
    QueryExecutor executor(options);
    ASSERT_EQ(executor.num_threads(), threads);
    const auto parallel = executor.Run(SgTreeBackend(*f.tree), f.batch);
    ExpectBatchesIdentical(parallel, serial);
  }
}

TEST_P(ExecutorDeterminismTest, RepeatedRunsAreIdentical) {
  const ExecFixture f = MakeExecFixture(12, GetParam());
  QueryExecutorOptions options;
  options.num_threads = 4;
  options.buffer_pages = 16;
  QueryExecutor executor(options);
  const auto first = executor.Run(SgTreeBackend(*f.tree), f.batch);
  const auto second = executor.Run(SgTreeBackend(*f.tree), f.batch);
  ExpectBatchesIdentical(first, second);
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, ExecutorDeterminismTest,
                         ::testing::Values(Metric::kHamming, Metric::kJaccard,
                                           Metric::kDice, Metric::kCosine),
                         [](const auto& info) {
                           return MetricName(info.param);
                         });

TEST(ExecutorTest, MatchesDirectSearchCalls) {
  ExecFixture f = MakeExecFixture(13, Metric::kHamming, 24);
  QueryExecutor executor({.num_threads = 3, .buffer_pages = 16});
  const auto results = executor.Run(SgTreeBackend(*f.tree), f.batch);
  ASSERT_EQ(results.size(), f.batch.size());
  for (size_t i = 0; i < f.batch.size(); ++i) {
    const QueryRequest& q = f.batch[i];
    f.tree->ResetIo();
    f.tree->buffer_pool().Resize(16);
    f.tree->buffer_pool().Clear();
    switch (q.type) {
      case QueryType::kKnn:
        EXPECT_EQ(results[i].neighbors,
                  DfsKNearest(*f.tree, q.query, q.k,
                              f.tree->OwnPoolContext()));
        break;
      case QueryType::kBestFirstKnn:
        EXPECT_EQ(results[i].neighbors,
                  BestFirstKNearest(*f.tree, q.query, q.k,
                                    f.tree->OwnPoolContext()));
        break;
      case QueryType::kRange:
        EXPECT_EQ(results[i].neighbors,
                  RangeSearch(*f.tree, q.query, q.epsilon,
                              f.tree->OwnPoolContext()));
        break;
      case QueryType::kContainment:
        EXPECT_EQ(results[i].ids,
                  ContainmentSearch(*f.tree, q.query,
                                    f.tree->OwnPoolContext()));
        break;
      case QueryType::kExact:
        EXPECT_EQ(results[i].ids,
                  ExactSearch(*f.tree, q.query, f.tree->OwnPoolContext()));
        break;
      case QueryType::kSubset:
        EXPECT_EQ(results[i].ids,
                  SubsetSearch(*f.tree, q.query, f.tree->OwnPoolContext()));
        break;
    }
  }
}

TEST(ExecutorTest, BatchReportAggregatesPerQueryTraces) {
  const ExecFixture f = MakeExecFixture(16, Metric::kHamming);
  QueryExecutor executor({.num_threads = 4, .buffer_pages = 16});
  const auto results = executor.Run(SgTreeBackend(*f.tree), f.batch);

  QueryTrace sum;
  for (const QueryResult& r : results) sum += r.trace;
  const BatchReport& report = executor.last_batch_report();
  EXPECT_EQ(report.queries, f.batch.size());
  EXPECT_EQ(report.trace, sum);
  EXPECT_GT(report.wall_ms, 0.0);
  EXPECT_LE(report.p50_us, report.p95_us);
  EXPECT_LE(report.p95_us, report.p99_us);
  EXPECT_GT(report.p99_us, 0.0);

  // Every per-query trace is self-consistent.
  for (size_t i = 0; i < results.size(); ++i) {
    TraceCheckOptions opts;
    const QueryType type = f.batch[i].type;
    opts.predicate = type != QueryType::kKnn &&
                     type != QueryType::kBestFirstKnn;
    EXPECT_EQ(CheckTraceInvariants(results[i].trace, opts), "")
        << "query " << i;
  }

  // The serial oracle produces the identical aggregate trace.
  const auto serial = QueryExecutor::RunSerial(*f.tree, f.batch, 16);
  QueryTrace serial_sum;
  for (const QueryResult& r : serial) serial_sum += r.trace;
  EXPECT_EQ(serial_sum, sum);
}

TEST(ExecutorTest, MetricsRegistryIsFedByEachBatch) {
  const ExecFixture f = MakeExecFixture(17, Metric::kHamming);
  obs::MetricsRegistry registry;
  QueryExecutorOptions options;
  options.num_threads = 4;
  options.buffer_pages = 16;
  options.metrics = &registry;
  QueryExecutor executor(options);
  executor.Run(SgTreeBackend(*f.tree), f.batch);

  const BatchReport& report = executor.last_batch_report();
  EXPECT_EQ(registry.GetCounter("exec.queries")->Value(), f.batch.size());
  EXPECT_EQ(registry.GetCounter("exec.nodes_visited")->Value(),
            report.trace.nodes_visited());
  EXPECT_EQ(registry.GetCounter("exec.random_ios")->Value(),
            report.trace.buffer_misses);
  EXPECT_EQ(registry.GetCounter("exec.signatures_tested")->Value(),
            report.trace.signatures_tested);
  EXPECT_EQ(registry.GetCounter("exec.subtrees_pruned")->Value(),
            report.trace.subtrees_pruned);
  EXPECT_EQ(registry.GetCounter("exec.candidates_verified")->Value(),
            report.trace.candidates_verified);
  EXPECT_EQ(registry.GetCounter("exec.results")->Value(),
            report.trace.results);
  EXPECT_EQ(registry.GetHistogram("exec.query_latency_us")->Count(),
            f.batch.size());

  // Counters are monotonic: a second batch doubles them.
  executor.Run(SgTreeBackend(*f.tree), f.batch);
  EXPECT_EQ(registry.GetCounter("exec.queries")->Value(),
            2 * f.batch.size());
  EXPECT_EQ(registry.GetHistogram("exec.query_latency_us")->Count(),
            2 * f.batch.size());
}

TEST(ExecutorTest, BatchReportCountsRejectedRequests) {
  ExecFixture f = MakeExecFixture(19, Metric::kHamming, 12);
  f.batch[2].type = QueryType::kKnn;
  f.batch[2].k = 0;  // Fails validation.
  f.batch[7].type = QueryType::kRange;
  f.batch[7].epsilon = -2.0;  // Fails validation.
  obs::MetricsRegistry registry;
  QueryExecutorOptions options;
  options.num_threads = 2;
  options.buffer_pages = 16;
  options.metrics = &registry;
  QueryExecutor executor(options);
  const auto results = executor.Run(SgTreeBackend(*f.tree), f.batch);
  EXPECT_FALSE(results[2].ok());
  EXPECT_FALSE(results[7].ok());
  const BatchReport& report = executor.last_batch_report();
  EXPECT_EQ(report.queries, f.batch.size());
  EXPECT_EQ(report.rejected, 2u);
  EXPECT_EQ(registry.GetCounter("exec.queries")->Value(), f.batch.size());
  EXPECT_EQ(registry.GetCounter("exec.rejected")->Value(), 2u);
  // Rejected queries are untimed: only the valid ones feed the histogram.
  EXPECT_EQ(registry.GetHistogram("exec.query_latency_us")->Count(),
            f.batch.size() - 2);
}

TEST(ExecutorTest, EmptyBatchAndEmptyTree) {
  QueryExecutor executor({.num_threads = 2});
  SgTreeOptions options;
  options.num_bits = 64;
  SgTree empty_tree(options);
  EXPECT_TRUE(executor.Run(SgTreeBackend(empty_tree), {}).empty());
  QueryRequest q;
  q.query = Signature(64);
  q.query.Set(1);
  const auto results = executor.Run(SgTreeBackend(empty_tree), {q});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].neighbors.empty());
}

// A fan-out size and lane count, and the claim size the executor derives
// from them: clamp(n / (8 * lanes), 1, 64).
struct ChunkCase {
  uint32_t lanes;
  size_t n;
  size_t chunk;
};

size_t AutoChunk(const ChunkCase& c) {
  return std::clamp<size_t>(c.n / (8 * static_cast<size_t>(c.lanes)), 1, 64);
}

TEST(ExecutorTest, ParallelApplyVisitsEachIndexExactlyOnce) {
  // Every index runs exactly once on a valid lane, across claim sizes:
  // per-item (1), a size that does not divide the lane ranges evenly (7),
  // and the cap (64).
  for (const ChunkCase& c : {ChunkCase{4, 50, 1}, ChunkCase{4, 230, 7},
                             ChunkCase{4, 10000, 64}}) {
    ASSERT_EQ(AutoChunk(c), c.chunk) << "n " << c.n;
    QueryExecutorOptions options;
    options.num_threads = c.lanes;
    QueryExecutor executor(options);
    std::vector<std::atomic<uint32_t>> visits(c.n);
    executor.ParallelApply(c.n, [&](size_t i, uint32_t worker_id) {
      ASSERT_LT(worker_id, executor.num_threads());
      visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < c.n; ++i) {
      ASSERT_EQ(visits[i].load(), 1u) << "index " << i << " chunk " << c.chunk;
    }
  }
}

TEST(ExecutorTest, ChunkPolicyDoesNotChangeAnswers) {
  // Chunked claiming and work stealing change WHICH lane runs a query, but
  // every lane's pool starts from the same Clear()ed state per query — so
  // every claim size must be byte-identical to the serial oracle, traces
  // included.
  const ExecFixture f = MakeExecFixture(18, Metric::kHamming, 1100);
  const auto serial = QueryExecutor::RunSerial(*f.tree, f.batch, 16);
  for (const ChunkCase& c : {ChunkCase{8, 60, 1}, ChunkCase{2, 120, 7},
                             ChunkCase{2, 1100, 64}}) {
    ASSERT_EQ(AutoChunk(c), c.chunk) << "n " << c.n;
    QueryExecutorOptions options;
    options.num_threads = c.lanes;
    options.buffer_pages = 16;
    QueryExecutor executor(options);
    const std::vector<QueryRequest> batch(f.batch.begin(),
                                          f.batch.begin() + c.n);
    const auto parallel = executor.Run(SgTreeBackend(*f.tree), batch);
    ExpectBatchesIdentical(
        parallel, std::vector<QueryResult>(serial.begin(),
                                           serial.begin() + c.n));
  }
}

TEST(ExecutorTest, SingleLaneRunsEntirelyOnCallingThread) {
  // num_threads = 1 means ZERO spawned workers: the calling thread is the
  // one lane, so batch execution must happen on this very thread.
  QueryExecutor executor({.num_threads = 1});
  EXPECT_EQ(executor.num_threads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  size_t visited = 0;
  executor.ParallelApply(257, [&](size_t, uint32_t worker_id) {
    ASSERT_EQ(std::this_thread::get_id(), caller);
    ASSERT_EQ(worker_id, 0u);
    ++visited;  // Safe: single lane.
  });
  EXPECT_EQ(visited, 257u);
}

TEST(ExecutorTest, CallerParticipatesInMultiLaneRuns) {
  // The calling thread is always the last lane; with enough items its lane
  // range is non-empty, so at least one item must run on the caller. Left
  // alone, the three workers could steal that whole range before the caller
  // is scheduled, so an item that lands on a worker waits (bounded) until
  // the caller has run one: no worker finishes an item — and so none starts
  // stealing — before the caller has claimed from its own range.
  QueryExecutor executor({.num_threads = 4});
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<uint32_t> on_caller{0};
  executor.ParallelApply(4096, [&](size_t, uint32_t) {
    if (std::this_thread::get_id() == caller) {
      on_caller.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (on_caller.load(std::memory_order_relaxed) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  EXPECT_GT(on_caller.load(), 0u);
}

TEST(ExecutorTest, TableBatchMatchesDirectCalls) {
  const Dataset dataset = ClusteredDataset(21, 800, 150, 6, 9, 2);
  SgTableOptions topt;
  topt.clustering.num_signatures = 8;
  const SgTable table(dataset, topt);
  Rng rng(99);
  std::vector<QueryRequest> batch;
  for (int i = 0; i < 20; ++i) {
    QueryRequest q;
    q.type = i % 2 == 0 ? QueryType::kKnn : QueryType::kRange;
    q.query = RandomSignature(rng, 150, 0.05);
    if (q.query.Empty()) q.query.Set(0);
    q.k = 3;
    q.epsilon = 5.0;
    batch.push_back(std::move(q));
  }
  QueryExecutor executor({.num_threads = 4});
  const auto results = executor.Run(SgTableBackend(table), batch);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    QueryTrace trace;
    const QueryContext ctx{nullptr, &trace};
    const auto expected =
        batch[i].type == QueryType::kKnn
            ? table.KNearest(batch[i].query, batch[i].k, ctx)
            : table.Range(batch[i].query, batch[i].epsilon, ctx);
    EXPECT_EQ(results[i].neighbors, expected) << "query " << i;
    EXPECT_EQ(results[i].trace.buffer_misses, trace.buffer_misses)
        << "query " << i;
  }
}

TEST(ExecutorTest, InvertedBatchMatchesDirectCalls) {
  const Dataset dataset = ClusteredDataset(22, 800, 150, 6, 9, 2);
  const InvertedIndex index(dataset);
  Rng rng(98);
  std::vector<QueryRequest> batch;
  const QueryType kTypes[] = {QueryType::kKnn, QueryType::kRange,
                              QueryType::kContainment, QueryType::kSubset};
  for (int i = 0; i < 20; ++i) {
    QueryRequest q;
    q.type = kTypes[i % std::size(kTypes)];
    q.query = RandomSignature(rng, 150, 0.03);
    if (q.query.Empty()) q.query.Set(0);
    q.k = 4;
    q.epsilon = 6.0;
    batch.push_back(std::move(q));
  }
  QueryExecutor executor({.num_threads = 4});
  const auto results = executor.Run(InvertedIndexBackend(index), batch);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const auto items = batch[i].query.ToItems();
    switch (batch[i].type) {
      case QueryType::kKnn:
        EXPECT_EQ(results[i].neighbors, index.KNearest(items, batch[i].k));
        break;
      case QueryType::kRange:
        EXPECT_EQ(results[i].neighbors,
                  index.Range(items, batch[i].epsilon));
        break;
      case QueryType::kContainment:
        EXPECT_EQ(results[i].ids, index.Containing(items));
        break;
      case QueryType::kSubset:
        EXPECT_EQ(results[i].ids, index.ContainedIn(items));
        break;
      default:
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Stress: the ThreadSanitizer targets.
// ---------------------------------------------------------------------------

TEST(ExecutorStressTest, ManyThreadsPrivatePoolsRepeatedBatches) {
  const ExecFixture f = MakeExecFixture(32, Metric::kJaccard, 120);
  QueryExecutorOptions options;
  options.num_threads = 8;
  options.buffer_pages = 8;
  QueryExecutor executor(options);
  const auto first = executor.Run(SgTreeBackend(*f.tree), f.batch);
  for (int round = 0; round < 3; ++round) {
    const auto again = executor.Run(SgTreeBackend(*f.tree), f.batch);
    ExpectBatchesIdentical(again, first);
  }
}

TEST(ExecutorStressTest, SkewedWorkIsRebalancedByStealing) {
  // One lane's contiguous range holds nearly all the work: items in the
  // first quarter are ~1000x more expensive than the rest. Stealing must
  // still visit every index exactly once (TSAN checks the claim/steal CAS
  // protocol and the stolen-range installation for races).
  QueryExecutorOptions options;
  options.num_threads = 8;
  QueryExecutor executor(options);
  constexpr size_t kN = 2048;
  std::vector<std::atomic<uint32_t>> visits(kN);
  std::atomic<uint64_t> checksum{0};
  for (int round = 0; round < 3; ++round) {
    for (auto& v : visits) v.store(0, std::memory_order_relaxed);
    executor.ParallelApply(kN, [&](size_t i, uint32_t) {
      uint64_t acc = i;
      const int spins = i < kN / 4 ? 20000 : 20;
      for (int s = 0; s < spins; ++s) acc = acc * 6364136223846793005ULL + 1;
      checksum.fetch_add(acc | 1, std::memory_order_relaxed);
      visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(visits[i].load(), 1u) << "round " << round << " index " << i;
    }
  }
  EXPECT_NE(checksum.load(), 0u);
}

TEST(ExecutorStressTest, ExecutorsConstructedAndDestroyedRepeatedly) {
  // Start-up/shutdown races: workers parked on the epoch futex must see
  // the shutdown flag and exit; destruction joins everything.
  const ExecFixture f = MakeExecFixture(33, Metric::kHamming, 16);
  for (int round = 0; round < 10; ++round) {
    QueryExecutor executor(
        {.num_threads = 4, .buffer_pages = 8});
    const auto results = executor.Run(SgTreeBackend(*f.tree), f.batch);
    ASSERT_EQ(results.size(), f.batch.size());
  }
}

// ---------------------------------------------------------------------------
// Stress: the annotated sync wrappers (common/sync.h). This binary runs
// under TSAN in CI, so these tests check the wrappers' actual
// happens-before edges across real interleavings — the dynamic complement
// to the compile-time analysis, which only proves lock *discipline*.
// ---------------------------------------------------------------------------

// Minimal class written in the repo's annotation style: guarded field,
// EXCLUDES on public entry points, TryLock branch tracked by the analysis.
class LockedCounter {
 public:
  void Add(int n) SGTREE_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    value_ += n;
  }

  bool TryAdd(int n) SGTREE_EXCLUDES(mu_) {
    if (!mu_.TryLock()) return false;
    value_ += n;
    mu_.Unlock();
    return true;
  }

  int value() const SGTREE_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return value_;
  }

 private:
  mutable Mutex mu_;
  int value_ SGTREE_GUARDED_BY(mu_) = 0;
};

// Bounded queue driving both CondVar::Wait paths (full and empty) plus
// Signal hand-off under a deliberately tiny capacity.
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  void Push(int value) SGTREE_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    mu_.AssertHeld();
    while (items_.size() >= capacity_) not_full_.Wait(&mu_);
    items_.push_back(value);
    not_empty_.Signal();
  }

  int Pop() SGTREE_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    while (items_.empty()) not_empty_.Wait(&mu_);
    const int value = items_.front();
    items_.pop_front();
    not_full_.Signal();
    return value;
  }

 private:
  const size_t capacity_;
  Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<int> items_ SGTREE_GUARDED_BY(mu_);
};

TEST(SyncWrapperStressTest, MutexLockSerializesWriters) {
  LockedCounter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < 10000; ++i) counter.Add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.value(), 80000);
}

TEST(SyncWrapperStressTest, TryLockStaysExclusiveUnderContention) {
  // Every writer retries failed TryLocks until its quota lands, so the
  // final count is exact iff TryLock never let two threads in at once.
  LockedCounter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&counter] {
      int done = 0;
      while (done < 2000) {
        if (counter.TryAdd(1)) ++done;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.value(), 16000);
}

TEST(SyncWrapperStressTest, CondVarBoundedQueueHandsOffEveryItem) {
  BoundedQueue queue(4);  // Tiny: both Wait() loops run constantly.
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2500;
  constexpr int kTotalItems = kProducers * kPerProducer;
  std::atomic<long long> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        queue.Push(p * kPerProducer + i);
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&queue, &sum] {
      for (int i = 0; i < kTotalItems / kConsumers; ++i) {
        sum.fetch_add(queue.Pop(), std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  // Items were 0..kTotalItems-1, each popped exactly once.
  constexpr long long kExpected =
      static_cast<long long>(kTotalItems) * (kTotalItems - 1) / 2;
  EXPECT_EQ(sum.load(std::memory_order_relaxed), kExpected);
}

}  // namespace
}  // namespace sgtree
