#ifndef SGTREE_BENCH_BENCH_COMMON_H_
#define SGTREE_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "baseline/linear_scan.h"
#include "common/stats.h"
#include "data/census_generator.h"
#include "data/quest_generator.h"
#include "exec/index_backend.h"
#include "exec/query_api.h"
#include "obs/percentile.h"
#include "sgtable/sg_table.h"
#include "sgtree/search.h"
#include "sgtree/sg_tree.h"

namespace sgtree::bench {

/// Scale control. The paper's experiments run at D = 100K-500K; the bench
/// binaries default to 10% of the paper's cardinalities so the whole
/// harness completes in minutes on a laptop. Set SG_BENCH_SCALE=full (or a
/// factor like 0.5) to approach paper scale, SG_BENCH_QUERIES to change the
/// per-instance query count (paper: 100).
inline double ScaleFactor() {
  const char* env = std::getenv("SG_BENCH_SCALE");
  if (env == nullptr) return 0.1;
  const std::string value(env);
  if (value == "full") return 1.0;
  const double factor = std::atof(env);
  return factor > 0 ? factor : 0.1;
}

inline uint32_t ScaledD(uint32_t paper_d) {
  const auto d = static_cast<uint32_t>(paper_d * ScaleFactor());
  return d < 1000 ? 1000 : d;
}

inline uint32_t NumQueries() {
  const char* env = std::getenv("SG_BENCH_QUERIES");
  if (env == nullptr) return 50;
  const int n = std::atoi(env);
  return n > 0 ? static_cast<uint32_t>(n) : 50;
}

/// Quest options matching the paper's synthetic instances: dictionary of
/// 1000 items and a pattern pool that scales with D so the transactions-
/// per-pattern density (and therefore the cluster structure) matches the
/// paper's full-scale datasets.
inline QuestOptions PaperQuest(double t, double i, uint32_t paper_d,
                               uint64_t seed = 1) {
  QuestOptions options;
  options.num_transactions = ScaledD(paper_d);
  options.avg_transaction_size = t;
  options.avg_itemset_size = i;
  options.num_items = 1000;
  options.num_patterns = std::max<uint32_t>(
      100, static_cast<uint32_t>(2000 * ScaleFactor()));
  options.seed = seed;
  return options;
}

inline CensusOptions PaperCensus(uint64_t seed = 7) {
  CensusOptions options;
  options.num_tuples = ScaledD(200'000);
  options.seed = seed;
  return options;
}

/// Default index configurations used across the experiments.
inline SgTreeOptions DefaultTreeOptions(const Dataset& dataset) {
  SgTreeOptions options;
  options.num_bits = dataset.num_items;
  options.fixed_dimensionality = dataset.fixed_dimensionality;
  options.split_policy = SplitPolicy::kAverage;  // Section 5.2 pick.
  options.buffer_pages = 64;
  return options;
}

inline SgTableOptions DefaultTableOptions() {
  SgTableOptions options;
  options.clustering.num_signatures = 12;
  options.clustering.critical_mass_fraction = 0.1;
  options.activation_threshold = 2;
  return options;
}

/// Builds the SG-tree by per-transaction insertion (the structure the
/// paper's experiments measure) and returns the build wall time.
struct BuiltTree {
  std::unique_ptr<SgTree> tree;
  double build_ms = 0;
};

inline BuiltTree BuildTree(const Dataset& dataset,
                           const SgTreeOptions& options) {
  BuiltTree built;
  built.tree = std::make_unique<SgTree>(options);
  Timer timer;
  for (const Transaction& txn : dataset.transactions) {
    built.tree->Insert(txn);
  }
  built.build_ms = timer.ElapsedMs();
  return built;
}

/// Per-method aggregate over a query workload: the three series the paper's
/// combined diagrams report, plus exact per-query latency percentiles.
struct MethodResult {
  double pct_data = 0;   // % of transactions compared per query.
  double cpu_ms = 0;     // CPU time per query (ms).
  double random_ios = 0; // Random I/Os per query.
  double p50_us = 0;     // Nearest-rank percentiles of per-query wall time.
  double p95_us = 0;
  double p99_us = 0;
};

/// Nearest-rank percentile; sorts `latencies_us` in place. Thin wrapper
/// over the shared definition in obs/percentile.h so bench tables, executor
/// reports, and router reports all agree on what "p99" means.
inline double LatencyPercentileUs(std::vector<double>& latencies_us,
                                  double p) {
  return obs::SortAndPercentile(latencies_us, p);
}

inline void FillPercentiles(std::vector<double>& latencies_us,
                            MethodResult* result) {
  result->p50_us = LatencyPercentileUs(latencies_us, 50);
  result->p95_us = LatencyPercentileUs(latencies_us, 95);
  result->p99_us = LatencyPercentileUs(latencies_us, 99);
}

inline std::vector<Signature> ToSignatures(
    const std::vector<Transaction>& queries, uint32_t num_bits) {
  std::vector<Signature> sigs;
  sigs.reserve(queries.size());
  for (const Transaction& q : queries) {
    sigs.push_back(Signature::FromItems(q.items, num_bits));
  }
  return sigs;
}

/// Runs k-NN queries against the tree. No pool is passed, so every node
/// read is one random I/O: the paper's per-query cold buffer.
inline MethodResult RunTreeKnn(const SgTree& tree,
                               const std::vector<Signature>& queries,
                               uint32_t k, size_t dataset_size) {
  QueryTrace trace;
  std::vector<double> latencies_us;
  latencies_us.reserve(queries.size());
  Timer timer;
  const SgTreeBackend backend(tree);
  for (const Signature& q : queries) {
    QueryRequest request;
    request.type = QueryType::kKnn;
    request.query = q;
    request.k = k;
    Timer per_query;
    const QueryResult r = Execute(backend, request);
    latencies_us.push_back(per_query.ElapsedMs() * 1000.0);
    trace += r.trace;
  }
  const double elapsed = timer.ElapsedMs();
  const double n = static_cast<double>(queries.size());
  MethodResult result{100.0 * trace.candidates_verified / (n * dataset_size),
                      elapsed / n, trace.buffer_misses / n};
  FillPercentiles(latencies_us, &result);
  return result;
}

inline MethodResult RunTableKnn(const SgTable& table,
                                const std::vector<Signature>& queries,
                                uint32_t k, size_t dataset_size) {
  QueryTrace trace;
  std::vector<double> latencies_us;
  latencies_us.reserve(queries.size());
  Timer timer;
  for (const Signature& q : queries) {
    Timer per_query;
    table.KNearest(q, k, QueryContext{nullptr, &trace});
    latencies_us.push_back(per_query.ElapsedMs() * 1000.0);
  }
  const double elapsed = timer.ElapsedMs();
  const double n = static_cast<double>(queries.size());
  MethodResult result{100.0 * trace.candidates_verified / (n * dataset_size),
                      elapsed / n, trace.buffer_misses / n};
  FillPercentiles(latencies_us, &result);
  return result;
}

inline MethodResult RunTreeRange(const SgTree& tree,
                                 const std::vector<Signature>& queries,
                                 double epsilon, size_t dataset_size) {
  QueryTrace trace;
  std::vector<double> latencies_us;
  latencies_us.reserve(queries.size());
  Timer timer;
  const SgTreeBackend backend(tree);
  for (const Signature& q : queries) {
    QueryRequest request;
    request.type = QueryType::kRange;
    request.query = q;
    request.epsilon = epsilon;
    Timer per_query;
    const QueryResult r = Execute(backend, request);
    latencies_us.push_back(per_query.ElapsedMs() * 1000.0);
    trace += r.trace;
  }
  const double elapsed = timer.ElapsedMs();
  const double n = static_cast<double>(queries.size());
  MethodResult result{100.0 * trace.candidates_verified / (n * dataset_size),
                      elapsed / n, trace.buffer_misses / n};
  FillPercentiles(latencies_us, &result);
  return result;
}

inline MethodResult RunTableRange(const SgTable& table,
                                  const std::vector<Signature>& queries,
                                  double epsilon, size_t dataset_size) {
  QueryTrace trace;
  std::vector<double> latencies_us;
  latencies_us.reserve(queries.size());
  Timer timer;
  for (const Signature& q : queries) {
    Timer per_query;
    table.Range(q, epsilon, QueryContext{nullptr, &trace});
    latencies_us.push_back(per_query.ElapsedMs() * 1000.0);
  }
  const double elapsed = timer.ElapsedMs();
  const double n = static_cast<double>(queries.size());
  MethodResult result{100.0 * trace.candidates_verified / (n * dataset_size),
                      elapsed / n, trace.buffer_misses / n};
  FillPercentiles(latencies_us, &result);
  return result;
}

/// Machine-readable sink for the printed rows: every PrintRow is also
/// recorded here, and the collected rows are flushed as JSON at process
/// exit to $SG_BENCH_JSON_OUT (default sg_bench_metrics.json). Nothing is
/// written when no row was recorded — binaries that only print free-form
/// output leave no file behind.
class BenchJsonCollector {
 public:
  static BenchJsonCollector& Instance() {
    static BenchJsonCollector collector;
    return collector;
  }

  void SetExperiment(const std::string& title) { experiment_ = title; }

  void Add(const std::string& x, const std::string& method,
           const MethodResult& result) {
    rows_.push_back({experiment_, x, method, result});
  }

  ~BenchJsonCollector() {
    if (rows_.empty()) return;
    const char* env = std::getenv("SG_BENCH_JSON_OUT");
    const std::string path = env != nullptr ? env : "sg_bench_metrics.json";
    std::ofstream file(path);
    if (!file) return;
    file << "{\"scale_factor\": " << ScaleFactor()
         << ", \"queries_per_instance\": " << NumQueries()
         << ", \"rows\": [\n";
    for (size_t i = 0; i < rows_.size(); ++i) {
      const Row& row = rows_[i];
      file << "  {\"experiment\": \"" << Escaped(row.experiment)
           << "\", \"x\": \"" << Escaped(row.x) << "\", \"method\": \""
           << Escaped(row.method)
           << "\", \"pct_data\": " << row.result.pct_data
           << ", \"cpu_ms\": " << row.result.cpu_ms
           << ", \"random_ios\": " << row.result.random_ios
           << ", \"p50_us\": " << row.result.p50_us
           << ", \"p95_us\": " << row.result.p95_us
           << ", \"p99_us\": " << row.result.p99_us << "}"
           << (i + 1 < rows_.size() ? ",\n" : "\n");
    }
    file << "]}\n";
    std::printf("wrote %zu bench rows to %s\n", rows_.size(), path.c_str());
  }

 private:
  struct Row {
    std::string experiment;
    std::string x;
    std::string method;
    MethodResult result;
  };

  static std::string Escaped(const std::string& text) {
    std::string escaped;
    for (const char c : text) {
      if (c == '"' || c == '\\') escaped.push_back('\\');
      escaped.push_back(c);
    }
    return escaped;
  }

  std::string experiment_;
  std::vector<Row> rows_;
};

/// Table printing helpers: one row per (x, method).
inline void PrintHeader(const std::string& title, const std::string& x_name) {
  BenchJsonCollector::Instance().SetExperiment(title);
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("(scale factor %.2f, %u queries per instance)\n", ScaleFactor(),
              NumQueries());
  std::printf("%-14s %-10s %12s %12s %14s %10s %10s\n", x_name.c_str(),
              "method", "%data", "cpu_ms", "random_ios", "p95_us", "p99_us");
}

inline void PrintRow(const std::string& x, const std::string& method,
                     const MethodResult& result) {
  BenchJsonCollector::Instance().Add(x, method, result);
  std::printf("%-14s %-10s %12.2f %12.3f %14.1f %10.1f %10.1f\n", x.c_str(),
              method.c_str(), result.pct_data, result.cpu_ms,
              result.random_ios, result.p95_us, result.p99_us);
}

}  // namespace sgtree::bench

#endif  // SGTREE_BENCH_BENCH_COMMON_H_
