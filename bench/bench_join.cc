// Collection-level containment join: the tree-vs-tree baseline against
// PRETTI (inverted index + prefix tree), the backend the join rule runs
// for containment, on Zipf-skewed set collections — the workload shape the
// set-containment-join literature benchmarks, where item frequencies are
// heavily skewed and prefix sharing is what pays. Also verifies that the
// sharded JoinRouter's merged answer stays byte-identical to the
// single-index join, and writes BENCH_join.json (override with
// SG_JOIN_BENCH_JSON_OUT) for the CI gate in tools/check_bench.py.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "exec/join_api.h"
#include "exec/query_executor.h"
#include "join/pretti_join.h"
#include "join/set_collection.h"
#include "join/tree_join.h"
#include "obs/percentile.h"
#include "shard/join_router.h"
#include "shard/sharded_index.h"
#include "sgtree/sg_tree.h"

namespace sgtree::bench {
namespace {

constexpr uint32_t kItems = 1000;
constexpr double kTheta = 0.95;

struct JoinRow {
  std::string algo;
  double build_us = 0;    // Join-structure construction (trees/postings).
  double elapsed_us = 0;  // Median measured join wall time.
  double p50_us = 0;
  double p99_us = 0;
  uint64_t pairs = 0;
  double pairs_per_sec = 0;
};

// Zipf-skewed transactions: item popularity follows a Zipf(theta) law, so
// a handful of items appear in most sets — the adversarial case for
// candidate-list joins and the best case for prefix sharing. The R
// (probe) side uses smaller sets than S so containment matches exist.
std::vector<Transaction> ZipfSets(uint64_t seed, uint32_t n,
                                  uint64_t base_tid, uint32_t min_size,
                                  uint32_t max_size) {
  Rng rng(seed);
  const ZipfSampler zipf(kItems, kTheta);
  std::vector<Transaction> txns;
  txns.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Transaction txn;
    txn.tid = base_tid + i;
    const auto size = min_size + static_cast<uint32_t>(rng.UniformInt(
                                     max_size - min_size + 1));
    while (txn.items.size() < size) {
      const auto item = static_cast<ItemId>(zipf.Sample(rng));
      if (std::find(txn.items.begin(), txn.items.end(), item) ==
          txn.items.end()) {
        txn.items.push_back(item);
      }
    }
    std::sort(txn.items.begin(), txn.items.end());
    txns.push_back(std::move(txn));
  }
  return txns;
}

std::unique_ptr<SgTree> BuildJoinTree(const std::vector<Transaction>& txns) {
  SgTreeOptions options;
  options.num_bits = kItems;
  options.buffer_pages = 64;
  auto tree = std::make_unique<SgTree>(options);
  for (const Transaction& txn : txns) tree->Insert(txn);
  return tree;
}

JoinRow Measure(const std::string& algo, double build_us,
                const JoinBackend& backend, uint32_t rounds) {
  const JoinRequest request{JoinType::kContainment, Metric::kHamming, 0.0};
  JoinRow row;
  row.algo = algo;
  row.build_us = build_us;

  // One warm-up, then `rounds` measured runs (sink-free: the bench
  // measures join throughput, not vector growth).
  JoinResult warm = ExecuteJoin(backend, request, nullptr);
  if (!warm.ok()) {
    std::fprintf(stderr, "join %s failed: %s\n", algo.c_str(),
                 warm.error.c_str());
    std::exit(1);
  }
  row.pairs = warm.pairs;
  std::vector<double> latencies_us;
  latencies_us.reserve(rounds);
  for (uint32_t i = 0; i < rounds; ++i) {
    const JoinResult result = ExecuteJoin(backend, request, nullptr);
    latencies_us.push_back(result.elapsed_us);
  }
  row.p50_us = obs::SortAndPercentile(latencies_us, 50);
  row.p99_us = obs::SortAndPercentile(latencies_us, 99);
  row.elapsed_us = row.p50_us;
  row.pairs_per_sec =
      row.elapsed_us > 0 ? 1e6 * static_cast<double>(row.pairs) / row.elapsed_us
                         : 0;
  return row;
}

// The sharded router must merge to the exact single-index pair vector (the
// join API's central cross-layer promise).
bool ShardedMatches(const std::vector<Transaction>& r,
                    const std::vector<Transaction>& s,
                    const std::vector<JoinPair>& oracle) {
  SgTreeOptions tree_options;
  tree_options.num_bits = kItems;
  ShardedIndexOptions options;
  options.num_shards = 4;
  options.tree = tree_options;
  ShardedIndex left(options);
  options.num_shards = 2;
  ShardedIndex right(options);
  left.InsertBatch(r);
  right.InsertBatch(s);
  QueryExecutor executor;
  const JoinRequest request{JoinType::kContainment, Metric::kHamming, 0.0};
  JoinRouter router(left, right, &executor);
  std::vector<JoinPair> pairs;
  const JoinResult result = router.Run(request, &pairs);
  if (!result.ok() || pairs != oracle) {
    std::fprintf(stderr, "sharded join diverged from the single index\n");
    return false;
  }
  return true;
}

void Run() {
  const auto rows_per_side = ScaledD(20'000);
  const uint32_t rounds = 7;
  const std::vector<Transaction> r = ZipfSets(1, rows_per_side, 0, 1, 4);
  const std::vector<Transaction> s =
      ZipfSets(2, rows_per_side, 1'000'000, 4, 16);

  std::printf("=== Containment join: tree vs PRETTI ===\n");
  std::printf("(Zipf theta=%.2f, %u items, %u rows per side, %u rounds)\n",
              kTheta, kItems, rows_per_side, rounds);

  Timer build_timer;
  const std::unique_ptr<SgTree> r_tree = BuildJoinTree(r);
  const std::unique_ptr<SgTree> s_tree = BuildJoinTree(s);
  const double tree_build_us = build_timer.ElapsedMs() * 1000.0;

  build_timer = Timer();
  const SetCollection r_sets = SetCollection::FromTree(*r_tree, {});
  const SetCollection s_sets = SetCollection::FromTree(*s_tree, {});
  const double extract_us = build_timer.ElapsedMs() * 1000.0;

  build_timer = Timer();
  const InvertedPostings postings(s_sets);
  const PrettiJoinBackend pretti(r_sets, postings);
  const double pretti_build_us = extract_us + build_timer.ElapsedMs() * 1000.0;

  const TreeJoinBackend tree(*r_tree, *s_tree);

  std::vector<JoinRow> rows;
  rows.push_back(Measure("tree", tree_build_us, tree, rounds));
  rows.push_back(Measure("pretti", pretti_build_us, pretti, rounds));

  std::printf("%-8s %12s %14s %14s %14s %16s\n", "algo", "pairs",
              "build_us", "p50_us", "p99_us", "pairs_per_sec");
  for (const JoinRow& row : rows) {
    std::printf("%-8s %12llu %14.0f %14.0f %14.0f %16.0f\n",
                row.algo.c_str(),
                static_cast<unsigned long long>(row.pairs), row.build_us,
                row.p50_us, row.p99_us, row.pairs_per_sec);
  }

  std::printf("checking sharded merge against the single index...\n");
  std::vector<JoinPair> oracle;
  const JoinResult oracle_result = CollectJoin(
      tree, {JoinType::kContainment, Metric::kHamming, 0.0}, &oracle);
  const bool sharded_matches =
      oracle_result.ok() && ShardedMatches(r, s, oracle);
  std::printf("sharded merge byte-identical: %s\n",
              sharded_matches ? "yes" : "NO");

  const char* env = std::getenv("SG_JOIN_BENCH_JSON_OUT");
  const std::string path = env != nullptr ? env : "BENCH_join.json";
  std::ofstream file(path);
  file << "{\"scale_factor\": " << ScaleFactor()
       << ", \"theta\": " << kTheta << ", \"rows_per_side\": "
       << rows_per_side << ", \"rounds\": " << rounds
       << ", \"sharded_matches\": " << (sharded_matches ? "true" : "false")
       << ", \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const JoinRow& row = rows[i];
    file << "  {\"algo\": \"" << row.algo << "\", \"pairs\": " << row.pairs
         << ", \"build_us\": " << row.build_us
         << ", \"p50_us\": " << row.p50_us << ", \"p99_us\": " << row.p99_us
         << ", \"pairs_per_sec\": " << row.pairs_per_sec << "}"
         << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  file << "]}\n";
  std::printf("wrote %s\n", path.c_str());
  if (!sharded_matches) std::exit(1);
}

}  // namespace
}  // namespace sgtree::bench

int main() {
  sgtree::bench::Run();
  return 0;
}
