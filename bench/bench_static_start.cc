// Static-format cold-start benchmark: how fast a process gets from "image
// on disk" to "answering queries". One image is written; every row opens
// it as a tree that reads its nodes in place.
//
//  - cold start: LoadTree (mmap, body-CRC pass, structural walk, then one
//    record address adopted per node) vs the same load with
//    verify_checksums=false (structural walk only), since a fleet
//    restarting behind a checksummed artifact store typically runs the
//    latter.
//  - steady state: k-NN throughput through the unified query API, the tree
//    built by inserts vs the tree loaded from its image, on the same warm
//    buffer pool, with a per-query equality check — reading the image in
//    place must not change an answer. A mismatch exits 1.
//
// Results are printed as a table and written as JSON to $BENCH_STATIC_JSON
// (default BENCH_static.json) for the CI artifact.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/stats.h"
#include "data/quest_generator.h"
#include "durability/env.h"
#include "exec/index_backend.h"
#include "exec/query_api.h"
#include "static/static_tree_builder.h"
#include "static/static_tree_view.h"
#include "storage/buffer_pool.h"

namespace sgtree::bench {
namespace {

constexpr uint32_t kColdStartRepeats = 5;

struct ColdStartRow {
  std::string label;
  double open_ms = 0;  // Mean over kColdStartRepeats fresh opens.
};

struct QpsRow {
  std::string label;
  double qps = 0;
  double p50_us = 0;
  double p99_us = 0;
  bool identical = true;  // Result-for-result equal to the built tree's.
};

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

// Measures one tree over `batch` on a warm private pool: one warm-up pass,
// then a timed pass with per-query latencies.
QpsRow MeasureQps(const SgTree& tree, const std::vector<QueryRequest>& batch,
                  const std::string& label,
                  std::vector<QueryResult>* results_out) {
  const SgTreeBackend backend(tree);
  BufferPool pool(64);
  for (const QueryRequest& request : batch) Execute(backend, request, &pool);

  std::vector<QueryResult> results;
  results.reserve(batch.size());
  std::vector<double> latencies_us;
  latencies_us.reserve(batch.size());
  Timer timer;
  for (const QueryRequest& request : batch) {
    Timer per_query;
    results.push_back(Execute(backend, request, &pool));
    latencies_us.push_back(per_query.ElapsedMs() * 1000.0);
  }
  const double wall_ms = timer.ElapsedMs();

  QpsRow row;
  row.label = label;
  row.qps = 1000.0 * static_cast<double>(batch.size()) / wall_ms;
  row.p50_us = LatencyPercentileUs(latencies_us, 50);
  row.p99_us = LatencyPercentileUs(latencies_us, 99);
  *results_out = std::move(results);
  return row;
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
    request.k = 10;
    batch.push_back(std::move(request));
  }

  const SgTreeOptions tree_options = DefaultTreeOptions(dataset);
  const BuiltTree built = BuildTree(dataset, tree_options);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("sg_bench_static_start_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string static_path = (dir / "tree.static").string();
  std::string error;
  if (!BuildStaticTree(*built.tree, static_path, &error)) {
    std::fprintf(stderr, "image build failed: %s\n", error.c_str());
    std::exit(1);
  }

  std::printf("\n=== Static cold start (Quest T=20, I=6, D=200K) ===\n");
  std::printf("(scale factor %.2f, %zu transactions, build %.1f ms, "
              "image %llu B)\n",
              ScaleFactor(), dataset.size(), built.build_ms,
              static_cast<unsigned long long>(FileBytes(static_path)));

  // Cold start: mean over fresh loads, each what LoadTree does: map and
  // validate the image, then adopt every record in place. The first row
  // checksums the body, as LoadTree does; the second skips that pass.
  std::vector<ColdStartRow> cold;
  for (const bool verify : {true, false}) {
    StaticOpenOptions open_options;
    open_options.tree = tree_options;
    open_options.verify_checksums = verify;
    double total_ms = 0;
    for (uint32_t r = 0; r < kColdStartRepeats; ++r) {
      Timer timer;
      std::unique_ptr<StaticTreeView> view =
          StaticTreeView::Open(Env::Posix(), static_path, open_options, &error);
      const std::unique_ptr<SgTree> loaded =
          view == nullptr ? nullptr : ThawStatic(std::move(view));
      total_ms += timer.ElapsedMs();
      if (loaded == nullptr) {
        std::fprintf(stderr, "load failed: %s\n", error.c_str());
        std::exit(1);
      }
    }
    cold.push_back({verify ? "load_tree" : "load_tree_structural",
                    total_ms / kColdStartRepeats});
  }
  std::printf("%-24s %12s\n", "cold start", "open_ms");
  for (const ColdStartRow& row : cold) {
    std::printf("%-24s %12.3f\n", row.label.c_str(), row.open_ms);
  }

  // Steady state: the same k-NN batch on the tree built by inserts and on
  // the tree loaded from its image, answers compared result for result.
  const auto loaded = LoadTree(static_path, tree_options, &error);
  if (loaded == nullptr) {
    std::fprintf(stderr, "LoadTree failed: %s\n", error.c_str());
    std::exit(1);
  }

  std::vector<QueryResult> built_results;
  std::vector<QueryResult> loaded_results;
  std::vector<QpsRow> qps;
  qps.push_back(MeasureQps(*built.tree, batch, "built_knn10", &built_results));
  qps.push_back(MeasureQps(*loaded, batch, "loaded_knn10", &loaded_results));
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!(loaded_results[i] == built_results[i])) {
      qps.back().identical = false;
      break;
    }
  }
  std::printf("\n%-24s %12s %10s %10s %10s\n", "k-NN (k=10)", "qps", "p50_us",
              "p99_us", "identical");
  for (const QpsRow& row : qps) {
    std::printf("%-24s %12.1f %10.1f %10.1f %10s\n", row.label.c_str(),
                row.qps, row.p50_us, row.p99_us,
                row.identical ? "yes" : "NO");
  }
  if (!qps.back().identical) {
    std::fprintf(stderr, "loaded tree diverged from the tree built by "
                         "inserts\n");
    std::exit(1);
  }

  const char* env = std::getenv("BENCH_STATIC_JSON");
  const std::string path = env != nullptr ? env : "BENCH_static.json";
  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  file << "{\"experiment\": \"static_cold_start_t20_i6_d200k\""
       << ", \"scale_factor\": " << ScaleFactor()
       << ", \"transactions\": " << dataset.size()
       << ", \"batch_queries\": " << batch_n
       << ", \"static_file_bytes\": " << FileBytes(static_path)
       << ", \"cold_start\": [\n";
  for (size_t i = 0; i < cold.size(); ++i) {
    file << "  {\"label\": \"" << cold[i].label
         << "\", \"open_ms\": " << cold[i].open_ms << "}"
         << (i + 1 == cold.size() ? "\n" : ",\n");
  }
  file << "], \"knn\": [\n";
  for (size_t i = 0; i < qps.size(); ++i) {
    file << "  {\"label\": \"" << qps[i].label << "\", \"qps\": " << qps[i].qps
         << ", \"p50_us\": " << qps[i].p50_us
         << ", \"p99_us\": " << qps[i].p99_us << ", \"identical\": "
         << (qps[i].identical ? "true" : "false") << "}"
         << (i + 1 == qps.size() ? "\n" : ",\n");
  }
  file << "]}\n";
  std::printf("wrote %zu cold-start + %zu qps rows to %s\n", cold.size(),
              qps.size(), path.c_str());

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace sgtree::bench

int main() {
  sgtree::bench::Run();
  return 0;
}
