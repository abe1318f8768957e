// Batch-query throughput of the parallel QueryExecutor on the Figure 13
// workload (T30.I18.D200K, k-NN): QPS and per-query latency percentiles as
// the worker count grows 1 -> 2 -> 4 -> 8. Queries are embarrassingly
// parallel over a read-only tree, so on an M-core machine QPS should scale
// close to min(threads, M)x; per-query work is identical at every thread
// count (the determinism tests assert byte-equality with the serial path):
// every worker charges its own pool, cleared before each query.
//
// Output: a human-readable table on stdout and a JSON report (one object
// per thread count) written to the path in SG_BENCH_JSON, default
// bench_throughput.json.
//
// Env knobs: SG_BENCH_SCALE / SG_BENCH_QUERIES (see bench_common.h),
// SG_BENCH_THREADS (comma list overriding 1,2,4,8).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "exec/index_backend.h"
#include "exec/query_executor.h"

namespace sgtree::bench {
namespace {

std::vector<uint32_t> ThreadCounts() {
  const char* env = std::getenv("SG_BENCH_THREADS");
  if (env == nullptr) return {1, 2, 4, 8};
  std::vector<uint32_t> counts;
  for (const char* p = env; *p != '\0';) {
    char* end = nullptr;
    const long value = std::strtol(p, &end, 10);
    if (end == p) break;
    if (value > 0) counts.push_back(static_cast<uint32_t>(value));
    p = (*end == ',') ? end + 1 : end;
  }
  return counts.empty() ? std::vector<uint32_t>{1, 2, 4, 8} : counts;
}

double Percentile(std::vector<double> sorted_us, double p) {
  if (sorted_us.empty()) return 0;
  const double rank = p / 100.0 * static_cast<double>(sorted_us.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted_us.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_us[lo] + frac * (sorted_us[hi] - sorted_us[lo]);
}

struct Row {
  uint32_t threads = 0;
  double wall_ms = 0;
  double qps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double ios_per_query = 0;
  double speedup = 0;
};

void Run() {
  QuestOptions qopt = PaperQuest(30, 18, 200'000);
  QuestGenerator gen(qopt);
  const Dataset dataset = gen.Generate();

  // A batch large enough to keep 8 workers busy: cycle the query pool.
  const uint32_t distinct = NumQueries();
  const auto queries =
      ToSignatures(gen.GenerateQueries(distinct), dataset.num_items);
  const size_t batch_size = std::max<size_t>(256, distinct * 8);
  const uint32_t k = std::max<uint32_t>(
      1, static_cast<uint32_t>(10 * ScaleFactor()));
  std::vector<QueryRequest> batch(batch_size);
  for (size_t i = 0; i < batch_size; ++i) {
    batch[i] = {QueryType::kKnn, queries[i % queries.size()], k, 0.0};
  }

  const BuiltTree built = BuildTree(dataset, DefaultTreeOptions(dataset));
  const SgTree& tree = *built.tree;

  std::printf("\n=== Batch k-NN throughput (T30.I18.D200K, k=%u, %zu "
              "queries/batch) ===\n",
              k, batch_size);
  std::printf("(scale factor %.2f; hardware_concurrency=%u)\n", ScaleFactor(),
              std::thread::hardware_concurrency());
  std::printf("%-8s %12s %12s %12s %12s %12s %10s\n", "threads", "wall_ms",
              "qps", "p50_us", "p99_us", "ios/query", "speedup");

  std::vector<Row> rows;
  for (uint32_t threads : ThreadCounts()) {
    QueryExecutorOptions options;
    options.num_threads = threads;
    options.buffer_pages = DefaultTreeOptions(dataset).buffer_pages;
    QueryExecutor executor(options);

    // Warm-up pass so thread start-up and first-touch page faults do not
    // pollute the measured run.
    executor.Run(SgTreeBackend(tree), batch);

    Timer timer;
    const std::vector<QueryResult> results =
        executor.Run(SgTreeBackend(tree), batch);
    const double wall_ms = timer.ElapsedMs();

    std::vector<double> latencies;
    latencies.reserve(results.size());
    double total_ios = 0;
    for (const QueryResult& r : results) {
      latencies.push_back(r.elapsed_us);
      total_ios += static_cast<double>(r.trace.buffer_misses);
    }
    std::sort(latencies.begin(), latencies.end());

    Row row;
    row.threads = threads;
    row.wall_ms = wall_ms;
    row.qps = 1000.0 * static_cast<double>(batch_size) / wall_ms;
    row.p50_us = Percentile(latencies, 50);
    row.p99_us = Percentile(latencies, 99);
    row.ios_per_query = total_ios / static_cast<double>(batch_size);
    row.speedup = rows.empty() ? 1.0 : row.qps / rows.front().qps;
    rows.push_back(row);

    std::printf("%-8u %12.1f %12.0f %12.1f %12.1f %12.1f %9.2fx\n",
                row.threads, row.wall_ms, row.qps, row.p50_us, row.p99_us,
                row.ios_per_query, row.speedup);
  }

  const char* json_env = std::getenv("SG_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "bench_throughput.json";
  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return;
  }
  std::fprintf(out,
               "{\n  \"workload\": \"T30.I18.D%zu\",\n  \"k\": %u,\n"
               "  \"batch_size\": %zu,\n"
               "  \"hardware_concurrency\": %u,\n  \"runs\": [\n",
               dataset.size(), k, batch_size,
               std::thread::hardware_concurrency());
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"threads\": %u, \"wall_ms\": %.3f, \"qps\": %.1f, "
                 "\"p50_us\": %.2f, \"p99_us\": %.2f, "
                 "\"ios_per_query\": %.2f, \"speedup\": %.3f}%s\n",
                 r.threads, r.wall_ms, r.qps, r.p50_us, r.p99_us,
                 r.ios_per_query, r.speedup,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nJSON report written to %s\n", json_path.c_str());
}

}  // namespace
}  // namespace sgtree::bench

int main() {
  sgtree::bench::Run();
  return 0;
}
