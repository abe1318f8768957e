// Shard-scaling benchmark: the Figure-5 NN workload (Quest T=20, I=6,
// D=200K) answered through the scatter-gather QueryRouter at 1, 2, 4 and 8
// shards. Each row reports the batch's wall-clock throughput on this
// machine's worker pool (measured QPS, which needs real cores: on a
// one-core runner it cannot rise with the shard count), the per-query
// p50/p99, and the core-independent dispatch efficiency
//     efficiency = task_us / (wall_ms * 1000 * cores)
// — the fraction of the machine the lanes kept busy doing real query work,
// from the total backend service time `task_us`. tools/check_bench.py
// gates on the efficiency, not on raw QPS.
//
// Results are printed as a table and written as JSON to $BENCH_SHARD_JSON
// (default BENCH_shard.json) for the CI artifact.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/stats.h"
#include "data/quest_generator.h"
#include "exec/query_api.h"
#include "exec/query_executor.h"
#include "shard/query_router.h"
#include "shard/sharded_index.h"

namespace sgtree::bench {
namespace {

struct ShardRow {
  uint32_t shards = 0;
  double build_ms = 0;
  double wall_ms = 0;
  double measured_qps = 0;
  double task_us = 0;
  double efficiency = 0;
  double p50_us = 0;
  double p99_us = 0;
};

uint32_t Cores() {
  const uint32_t n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// One warm-up pass plus one measured pass of `batch` through a fresh
// router.
ShardRow Measure(const ShardedIndex& index, QueryExecutor* executor,
                 const std::vector<QueryRequest>& batch) {
  QueryRouter router(index, executor);
  router.Run(batch);  // Warm-up pass (thread pool, allocator, scratch).
  router.Run(batch);
  const BatchReport& report = router.last_batch_report();
  ShardRow row;
  row.shards = index.num_shards();
  row.wall_ms = report.wall_ms;
  row.measured_qps =
      1000.0 * static_cast<double>(batch.size()) / report.wall_ms;
  row.task_us = report.task_us;
  row.efficiency = report.task_us / (report.wall_ms * 1000.0 * Cores());
  row.p50_us = report.p50_us;
  row.p99_us = report.p99_us;
  return row;
}

void PrintRow(const ShardRow& row) {
  std::printf("%-10u %10.1f %14.1f %11.3f %10.1f %10.1f\n", row.shards,
              row.wall_ms, row.measured_qps, row.efficiency, row.p50_us,
              row.p99_us);
}

void WriteRow(std::ofstream& file, const ShardRow& row, bool last) {
  file << "  {\"shards\": " << row.shards
       << ", \"build_ms\": " << row.build_ms
       << ", \"wall_ms\": " << row.wall_ms
       << ", \"measured_qps\": " << row.measured_qps
       << ", \"task_us\": " << row.task_us
       << ", \"efficiency\": " << row.efficiency
       << ", \"p50_us\": " << row.p50_us << ", \"p99_us\": " << row.p99_us
       << "}" << (last ? "\n" : ",\n");
}

void Run() {
  QuestOptions qopt = PaperQuest(20, 6, 200'000);
  QuestGenerator gen(qopt);
  const Dataset dataset = gen.Generate();
  const uint32_t batch_n = NumQueries() * 4;
  const auto query_sigs =
      ToSignatures(gen.GenerateQueries(batch_n), dataset.num_items);
  std::vector<QueryRequest> batch;
  batch.reserve(query_sigs.size());
  for (const Signature& sig : query_sigs) {
    QueryRequest request;
    request.type = QueryType::kKnn;
    request.query = sig;
    request.k = 1;
    batch.push_back(std::move(request));
  }

  std::printf("\n=== Shard scaling: NN search (Quest T=20, I=6, D=200K) ===\n");
  std::printf("(scale factor %.2f, %zu transactions, %u-query batch, "
              "%u cores)\n",
              ScaleFactor(), dataset.size(), batch_n, Cores());
  std::printf("%-10s %10s %14s %11s %10s %10s\n", "shards", "wall_ms",
              "measured_qps", "efficiency", "p50_us", "p99_us");

  std::vector<ShardRow> rows;
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    ShardedIndexOptions options;
    options.num_shards = shards;
    options.tree = DefaultTreeOptions(dataset);
    ShardedIndex index(options);
    Timer build_timer;
    index.InsertBatch(dataset.transactions);
    const double build_ms = build_timer.ElapsedMs();

    QueryExecutor executor;
    ShardRow row = Measure(index, &executor, batch);
    row.build_ms = build_ms;
    rows.push_back(row);
    PrintRow(row);
  }
  std::printf("\nExpected shape: p50 falls with the shard count (each shard\n"
              "task touches ~1/N of the data). measured_qps needs real cores;\n"
              "efficiency is the core-count-independent health number.\n");

  const char* env = std::getenv("BENCH_SHARD_JSON");
  const std::string path = env != nullptr ? env : "BENCH_shard.json";
  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  file << "{\"experiment\": \"shard_scaling_nn_t20_i6_d200k\""
       << ", \"scale_factor\": " << ScaleFactor()
       << ", \"batch_queries\": " << batch_n << ", \"cores\": " << Cores()
       << ", \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    WriteRow(file, rows[i], i + 1 == rows.size());
  }
  file << "]}\n";
  std::printf("wrote %zu scaling rows to %s\n", rows.size(), path.c_str());
}

}  // namespace
}  // namespace sgtree::bench

int main() {
  sgtree::bench::Run();
  return 0;
}
