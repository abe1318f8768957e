// Serving-path load generator (DESIGN.md §10): starts an in-process
// sgtree_serve server over a replicated static index and drives it through
// the wire client in two regimes:
//
//  1. Closed loop — a few clients issuing back-to-back requests. This is
//     the capacity baseline: achieved QPS is what the serving stack can
//     sustain when nobody is queueing.
//  2. Open loop — an offered-load sweep (1k toward 100k QPS). Each request
//     has a SCHEDULED send time (start + i/rate) and its latency is
//     measured from that schedule, not from the actual send, so queueing
//     delay counts and a generator that falls behind cannot hide the tail
//     (the coordinated-omission trap). Query keys are Zipf-skewed over a
//     pool larger than the result cache, so the cache sees realistic reuse
//     (hot keys hit, the tail misses and exercises the full
//     admission -> batcher -> replica path). Past saturation the admission
//     budget sheds with BUSY — the sweep's top row is expected to shed,
//     and tools/check_bench.py gates on exactly that.
//
// Writes BENCH_serve.json ($BENCH_SERVE_JSON overrides the path) with the
// closed-loop baseline, one row per offered load, and the cache/hedge
// counters scraped from the server's registry.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "data/quest_generator.h"
#include "exec/query_api.h"
#include "obs/metrics.h"
#include "obs/percentile.h"
#include "server/client.h"
#include "server/server.h"
#include "shard/sharded_index.h"

namespace sgtree::bench {
namespace {

using Clock = std::chrono::steady_clock;

// Sized so the sweep's top row must shed: the open-loop generator runs more
// threads than the admission budget, and the query pool is 8x the cache, so
// the Zipf tail keeps missing — misses hold their admission slot while they
// queue for and run in a batch, which is what piles up in-flight work past
// the budget at saturation.
constexpr uint32_t kShards = 2;
constexpr uint32_t kReplicas = 2;
constexpr uint32_t kMaxInflight = 8;
constexpr uint32_t kClosedClients = 4;
constexpr uint32_t kOpenThreads = 32;
constexpr size_t kCacheEntries = 1024;
constexpr size_t kPoolSize = 8192;
constexpr double kZipfTheta = 0.9;
constexpr double kRowSeconds = 0.5;

struct LoadResult {
  double offered_qps = 0;  // 0 = closed loop.
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t busy = 0;
  uint64_t errors = 0;
  double achieved_qps = 0;
  double p50_us = 0;
  double p99_us = 0;
};

// A fixed pool of requests cycling all six query types over Quest queries
// drawn from the dataset's own pattern pool. The Zipf sampler picks indexes
// into this pool, so "key popularity" and "query type" are independent.
std::vector<QueryRequest> BuildPool(QuestGenerator& gen, uint32_t num_bits) {
  const std::vector<Transaction> queries =
      gen.GenerateQueries(static_cast<uint32_t>(kPoolSize));
  std::vector<QueryRequest> pool;
  pool.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryRequest request;
    request.type = static_cast<QueryType>(i % 6);
    request.query = Signature::FromItems(queries[i].items, num_bits);
    request.k = 8;
    request.epsilon = 12.0;
    pool.push_back(std::move(request));
  }
  return pool;
}

// One load phase. offered_qps == 0 runs closed-loop (no schedule, each
// thread back-to-back); otherwise requests fire on the shared open-loop
// schedule and latency is measured from the scheduled instant.
LoadResult RunLoad(uint16_t port, const std::vector<QueryRequest>& pool,
                   double offered_qps, uint32_t num_threads, uint64_t total) {
  LoadResult row;
  row.offered_qps = offered_qps;

  std::atomic<uint64_t> next{0};
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> busy{0};
  std::atomic<uint64_t> errors{0};
  std::vector<std::vector<double>> latencies(num_threads);

  // Give every thread time to connect before the clock starts. Every worker,
  // closed loop included, sends nothing before `start`, and wall time is
  // measured from it.
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(100);

  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (uint32_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      serve::Client client;
      if (!client.Connect("127.0.0.1", port, 5000)) {
        errors.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      Rng rng(0x5e7fe + t);
      const ZipfSampler zipf(static_cast<uint32_t>(pool.size()), kZipfTheta);
      std::vector<double>& lat = latencies[t];
      lat.reserve(total / num_threads + 1);
      std::this_thread::sleep_until(start);
      while (true) {
        const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total) break;
        Clock::time_point scheduled = Clock::now();
        if (offered_qps > 0) {
          scheduled =
              start + std::chrono::microseconds(static_cast<int64_t>(
                          1e6 * static_cast<double>(i) / offered_qps));
          std::this_thread::sleep_until(scheduled);
        }
        QueryResult result;
        const serve::Client::Status status =
            client.Query(pool[zipf.Sample(rng)], &result);
        const double us = std::chrono::duration<double, std::micro>(
                              Clock::now() - scheduled)
                              .count();
        switch (status) {
          case serve::Client::Status::kOk:
            ok.fetch_add(1, std::memory_order_relaxed);
            lat.push_back(us);
            break;
          case serve::Client::Status::kBusy:
            busy.fetch_add(1, std::memory_order_relaxed);
            break;
          default:
            errors.fetch_add(1, std::memory_order_relaxed);
            return;  // Connection is gone; stop this worker.
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<double> all;
  for (std::vector<double>& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  row.sent = next.load() < total ? next.load() : total;
  row.ok = ok.load();
  row.busy = busy.load();
  row.errors = errors.load();
  row.achieved_qps = wall_s > 0 ? static_cast<double>(row.ok) / wall_s : 0;
  row.p50_us = obs::SortAndPercentile(all, 50);
  row.p99_us = obs::NearestRankPercentile(all, 99);
  return row;
}

void PrintLoadRow(const char* label, const LoadResult& row) {
  std::printf("%-12s %10lu %10lu %8lu %8lu %12.0f %10.0f %10.0f\n", label,
              static_cast<unsigned long>(row.sent),
              static_cast<unsigned long>(row.ok),
              static_cast<unsigned long>(row.busy),
              static_cast<unsigned long>(row.errors), row.achieved_qps,
              row.p50_us, row.p99_us);
}

void WriteRow(std::ofstream& out, const LoadResult& row, bool last) {
  out << "    {\"offered_qps\": " << row.offered_qps
      << ", \"sent\": " << row.sent << ", \"ok\": " << row.ok
      << ", \"busy\": " << row.busy << ", \"errors\": " << row.errors
      << ", \"achieved_qps\": " << row.achieved_qps
      << ", \"p50_us\": " << row.p50_us << ", \"p99_us\": " << row.p99_us
      << "}" << (last ? "\n" : ",\n");
}

int Main() {
  const double scale = ScaleFactor();
  std::printf("=== serving-path load generator (scale %.2f) ===\n", scale);

  // Dataset + static manifest the replicas re-open.
  QuestOptions qopt = PaperQuest(10, 4, 100'000);
  QuestGenerator gen(qopt);
  const Dataset dataset = gen.Generate();

  ShardedIndexOptions sopt;
  sopt.num_shards = kShards;
  sopt.tree = DefaultTreeOptions(dataset);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("bench_serve." + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string manifest = (dir / "static.sgt").string();

  std::string error;
  auto built = ShardedIndex::BulkLoad(dataset, sopt);
  if (built == nullptr || !built->SaveStatic(manifest, &error)) {
    std::fprintf(stderr, "FAIL: cannot build static index: %s\n",
                 error.c_str());
    return 1;
  }
  auto index = ShardedIndex::Load(manifest, sopt, &error);
  if (index == nullptr) {
    std::fprintf(stderr, "FAIL: cannot load static index: %s\n",
                 error.c_str());
    return 1;
  }

  serve::ServerOptions options;
  options.max_inflight = kMaxInflight;
  options.cache_entries = kCacheEntries;
  options.replicas.num_replicas = kReplicas;
  options.replicas.manifest_path = manifest;
  options.replicas.index_options = sopt;
  auto server = serve::Server::Create(index.get(), options, &error);
  if (server == nullptr || !server->Start(&error)) {
    std::fprintf(stderr, "FAIL: cannot start server: %s\n", error.c_str());
    return 1;
  }
  std::printf(
      "%u transactions, %u shards, %u replicas, max_inflight %u, "
      "cache %zu entries, pool %zu requests (zipf theta %.1f)\n",
      static_cast<uint32_t>(dataset.transactions.size()), kShards, kReplicas,
      kMaxInflight, kCacheEntries, kPoolSize, kZipfTheta);

  QuestGenerator query_gen(qopt);
  const std::vector<QueryRequest> pool =
      BuildPool(query_gen, dataset.num_items);

  std::printf("%-12s %10s %10s %8s %8s %12s %10s %10s\n", "load", "sent",
              "ok", "busy", "errors", "achieved", "p50_us", "p99_us");

  // Closed loop: capacity baseline. Client count stays under the admission
  // budget so nothing sheds and the numbers are pure service capacity.
  const uint64_t closed_total =
      std::max<uint64_t>(500, static_cast<uint64_t>(20000 * scale));
  const LoadResult closed =
      RunLoad(server->port(), pool, 0, kClosedClients, closed_total);
  PrintLoadRow("closed", closed);

  // Open loop: offered-load sweep toward saturation.
  const std::vector<double> offered = {1000, 5000, 20000, 100000};
  std::vector<LoadResult> rows;
  for (const double qps : offered) {
    const uint64_t total = std::clamp<uint64_t>(
        static_cast<uint64_t>(qps * kRowSeconds), 400, 25000);
    rows.push_back(
        RunLoad(server->port(), pool, qps, kOpenThreads, total));
    char label[32];
    std::snprintf(label, sizeof(label), "%.0f/s", qps);
    PrintLoadRow(label, rows.back());
  }

  obs::MetricsRegistry* m = server->metrics();
  const uint64_t cache_hits = m->GetCounter("serve.cache.hits")->Value();
  const uint64_t cache_misses = m->GetCounter("serve.cache.misses")->Value();
  const uint64_t shed = m->GetCounter("serve.shed")->Value();
  const uint64_t hedges = m->GetCounter("serve.hedges_fired")->Value();
  std::printf(
      "cache hits %lu / misses %lu, shed %lu, hedges fired %lu\n",
      static_cast<unsigned long>(cache_hits),
      static_cast<unsigned long>(cache_misses),
      static_cast<unsigned long>(shed), static_cast<unsigned long>(hedges));

  server->Stop();
  server.reset();
  index.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  const char* env = std::getenv("BENCH_SERVE_JSON");
  const std::string path = env != nullptr ? env : "BENCH_serve.json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"scale_factor\": " << scale << ",\n"
      << "  \"cores\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"max_inflight\": " << kMaxInflight << ",\n"
      << "  \"cache_entries\": " << kCacheEntries << ",\n"
      << "  \"pool_size\": " << kPoolSize << ",\n"
      << "  \"cache_hits\": " << cache_hits << ",\n"
      << "  \"cache_misses\": " << cache_misses << ",\n"
      << "  \"hedges_fired\": " << hedges << ",\n"
      << "  \"closed_loop\": {\"clients\": " << kClosedClients
      << ", \"sent\": " << closed.sent << ", \"ok\": " << closed.ok
      << ", \"errors\": " << closed.errors
      << ", \"qps\": " << closed.achieved_qps
      << ", \"p50_us\": " << closed.p50_us
      << ", \"p99_us\": " << closed.p99_us << "},\n"
      << "  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    WriteRow(out, rows[i], i + 1 == rows.size());
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace sgtree::bench

int main() { return sgtree::bench::Main(); }
