// Table 1: comparison of the three split policies on the CENSUS dataset.
// Reports the per-level average entry area (tree quality), the per-
// transaction insertion cost, and the cost of nearest-neighbor queries
// (% data accessed, CPU time, node accesses as I/Os).

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "sgtree/invariant_auditor.h"

namespace sgtree::bench {
namespace {

void Run() {
  const CensusOptions copt = PaperCensus();
  CensusGenerator gen(copt);
  const Dataset dataset = gen.Generate();
  const auto queries =
      ToSignatures(gen.GenerateQueries(NumQueries()), dataset.num_items);

  std::printf("=== Table 1: split-policy comparison (CENSUS, D=%zu) ===\n",
              dataset.size());
  std::printf("(scale factor %.2f, %u NN queries)\n\n", ScaleFactor(),
              NumQueries());
  std::printf("%-32s %14s %14s %14s %14s\n", "comparison metric",
              "LinearSplit", "QuadraticSplit", "AvgSplit", "MinSplit");

  struct PolicyResult {
    AuditReport report;
    double insert_ms = 0;
    MethodResult query;
  };
  std::vector<PolicyResult> results;
  for (SplitPolicy policy : {SplitPolicy::kLinear, SplitPolicy::kQuadratic,
                             SplitPolicy::kAverage, SplitPolicy::kMinimum}) {
    SgTreeOptions options = DefaultTreeOptions(dataset);
    options.split_policy = policy;
    const BuiltTree built = BuildTree(dataset, options);
    PolicyResult result;
    result.report = AuditTree(*built.tree);
    result.insert_ms = built.build_ms / static_cast<double>(dataset.size());
    result.query = RunTreeKnn(*built.tree, queries, 1, dataset.size());
    if (!result.report.ok()) {
      std::printf("INVARIANT FAILURE: %s\n",
                  result.report.FirstMessage().c_str());
    }
    results.push_back(std::move(result));
  }

  const uint32_t height = results[0].report.stats.height;
  for (uint32_t level = 1; level < height; ++level) {
    std::printf("avg area at level %-13u", level);
    for (const PolicyResult& r : results) {
      const double area = level < r.report.stats.avg_entry_area.size()
                              ? r.report.stats.avg_entry_area[level]
                              : 0.0;
      std::printf(" %14.0f", area);
    }
    std::printf("\n");
  }
  std::printf("%-32s", "insertion cost (msec)");
  for (const PolicyResult& r : results) std::printf(" %14.3f", r.insert_ms);
  std::printf("\n%-32s", "% of data accessed");
  for (const PolicyResult& r : results) {
    std::printf(" %14.2f", r.query.pct_data);
  }
  std::printf("\n%-32s", "CPU time (msec)");
  for (const PolicyResult& r : results) std::printf(" %14.3f", r.query.cpu_ms);
  std::printf("\n%-32s", "I/Os");
  for (const PolicyResult& r : results) {
    std::printf(" %14.1f", r.query.random_ios);
  }
  std::printf("\n\nExpected shape (paper): AvgSplit/MinSplit build much\n"
              "better trees (smaller areas, fewer accesses) than\n"
              "QuadraticSplit; QuadraticSplit inserts fastest. LinearSplit\n"
              "(not in the paper) models the unoptimized S-tree [7] split\n"
              "the paper improves upon.\n");
}

}  // namespace
}  // namespace sgtree::bench

int main() {
  sgtree::bench::Run();
  return 0;
}
