// Ablations for the design choices DESIGN.md calls out:
//   (a) ChooseSubtree: min-enlargement vs min-overlap (Section 3.1 claims
//       equal tree quality at much lower insertion cost).
//   (b) DFS vs best-first NN (Section 4.1: best-first is optimal in node
//       accesses).
//   (c) One-by-one insertion vs Gray-code bulk loading (Section 6).
//   (d) Sparse-signature compression on/off: the §3.2 bytes of the tree's
//       nodes (no file stores this encoding; images are dense).
//   (e) Fixed-dimensionality bound on CENSUS (Section 6 optimization).

#include <cstdio>

#include "bench/bench_common.h"
#include "sgtree/bulk_load.h"
#include "sgtree/invariant_auditor.h"
#include "storage/node_format.h"

namespace sgtree::bench {
namespace {

// §3.2 bytes of the tree's nodes: what its pages would take in the paper's
// page layout, with or without sparse-signature compression.
uint64_t NodeBytes(const SgTree& tree, bool compress) {
  uint64_t bytes = 0;
  for (PageId id : tree.LiveNodes()) {
    const NodeView node = tree.GetNodeNoCharge(id);
    NodeRecord record;
    record.level = node.level();
    for (const EntryView entry : node) {
      record.entries.emplace_back(entry.ref, entry.sig.ToSignature());
    }
    bytes += EncodedNodeSize(record, compress);
  }
  return bytes;
}

void Run() {
  QuestOptions qopt = PaperQuest(20, 8, 200'000);
  QuestGenerator gen(qopt);
  const Dataset dataset = gen.Generate();
  const auto queries =
      ToSignatures(gen.GenerateQueries(NumQueries()), dataset.num_items);

  std::printf("=== Ablation studies (T20.I8, D=%zu) ===\n", dataset.size());

  // (a) ChooseSubtree policy.
  std::printf("\n-- (a) ChooseSubtree: min-enlargement vs min-overlap --\n");
  std::printf("%-16s %14s %12s %12s %12s\n", "policy", "insert_ms/txn",
              "lvl1_area", "%data", "cpu_ms");
  for (ChooseSubtreePolicy policy : {ChooseSubtreePolicy::kMinEnlargement,
                                     ChooseSubtreePolicy::kMinOverlap}) {
    SgTreeOptions options = DefaultTreeOptions(dataset);
    options.choose_policy = policy;
    const BuiltTree built = BuildTree(dataset, options);
    const AuditStats stats = AuditTree(*built.tree).stats;
    const MethodResult result =
        RunTreeKnn(*built.tree, queries, 1, dataset.size());
    std::printf("%-16s %14.4f %12.1f %12.2f %12.3f\n",
                ChooseSubtreePolicyName(policy).c_str(),
                built.build_ms / dataset.size(),
                stats.avg_entry_area.size() > 1 ? stats.avg_entry_area[1]
                                                 : 0.0,
                result.pct_data, result.cpu_ms);
  }

  // (b) DFS vs best-first.
  std::printf("\n-- (b) NN algorithm: depth-first vs best-first --\n");
  const BuiltTree built = BuildTree(dataset, DefaultTreeOptions(dataset));
  QueryTrace dfs_trace;
  QueryTrace bf_trace;
  Timer dfs_timer;
  for (const Signature& q : queries) {
    DfsNearest(*built.tree, q, QueryContext{nullptr, &dfs_trace});
  }
  const double dfs_ms = dfs_timer.ElapsedMs();
  Timer bf_timer;
  for (const Signature& q : queries) {
    BestFirstKNearest(*built.tree, q, 1, QueryContext{nullptr, &bf_trace});
  }
  const double bf_ms = bf_timer.ElapsedMs();
  std::printf("%-16s %14s %14s\n", "algorithm", "nodes/query", "cpu_ms/query");
  std::printf("%-16s %14.1f %14.3f\n", "depth-first",
              static_cast<double>(dfs_trace.nodes_visited()) / queries.size(),
              dfs_ms / queries.size());
  std::printf("%-16s %14.1f %14.3f\n", "best-first",
              static_cast<double>(bf_trace.nodes_visited()) / queries.size(),
              bf_ms / queries.size());

  // (c) Insertion vs bulk loading.
  std::printf("\n-- (c) One-by-one insertion vs Gray-code bulk load --\n");
  Timer bulk_timer;
  auto bulk = BulkLoad(dataset, DefaultTreeOptions(dataset));
  const double bulk_ms = bulk_timer.ElapsedMs();
  const AuditStats incr_stats = AuditTree(*built.tree).stats;
  const AuditStats bulk_stats = AuditTree(*bulk).stats;
  const MethodResult incr_result =
      RunTreeKnn(*built.tree, queries, 1, dataset.size());
  const MethodResult bulk_result =
      RunTreeKnn(*bulk, queries, 1, dataset.size());
  std::printf("%-16s %12s %10s %12s %12s %12s\n", "method", "build_ms",
              "nodes", "util", "%data", "cpu_ms");
  std::printf("%-16s %12.0f %10llu %12.2f %12.2f %12.3f\n", "insert",
              built.build_ms,
              static_cast<unsigned long long>(incr_stats.node_count),
              incr_stats.avg_utilization, incr_result.pct_data,
              incr_result.cpu_ms);
  std::printf("%-16s %12.0f %10llu %12.2f %12.2f %12.3f\n", "bulk-load",
              bulk_ms,
              static_cast<unsigned long long>(bulk_stats.node_count),
              bulk_stats.avg_utilization, bulk_result.pct_data,
              bulk_result.cpu_ms);

  // (d) Compression.
  std::printf("\n-- (d) Sparse-signature compression (Section 3.2) --\n");
  const uint64_t dense_bytes = NodeBytes(*built.tree, false);
  const uint64_t compressed_bytes = NodeBytes(*built.tree, true);
  std::printf("§3.2 bytes of the tree's nodes: dense %llu bytes, "
              "compressed %llu bytes (%.1f%% saved)\n",
              static_cast<unsigned long long>(dense_bytes),
              static_cast<unsigned long long>(compressed_bytes),
              100.0 * (dense_bytes - compressed_bytes) / dense_bytes);

  // (e) Fixed-dimensionality bound on CENSUS.
  std::printf("\n-- (e) CENSUS: generic vs fixed-dimensionality bound --\n");
  CensusGenerator census_gen(PaperCensus());
  const Dataset census = census_gen.Generate();
  const auto census_queries = ToSignatures(
      census_gen.GenerateQueries(NumQueries()), census.num_items);
  SgTreeOptions relaxed = DefaultTreeOptions(census);
  relaxed.fixed_dimensionality = 0;
  relaxed.use_area_stats = false;
  SgTreeOptions stats = relaxed;
  stats.use_area_stats = true;  // Learns min=max=36 on its own.
  SgTreeOptions tight = DefaultTreeOptions(census);
  const BuiltTree tree_relaxed = BuildTree(census, relaxed);
  const BuiltTree tree_stats = BuildTree(census, stats);
  const BuiltTree tree_tight = BuildTree(census, tight);
  const MethodResult r_relaxed =
      RunTreeKnn(*tree_relaxed.tree, census_queries, 1, census.size());
  const MethodResult r_stats =
      RunTreeKnn(*tree_stats.tree, census_queries, 1, census.size());
  const MethodResult r_tight =
      RunTreeKnn(*tree_tight.tree, census_queries, 1, census.size());
  std::printf("%-16s %12s %12s %14s\n", "bound", "%data", "cpu_ms",
              "random_ios");
  std::printf("%-16s %12.2f %12.3f %14.1f\n", "generic", r_relaxed.pct_data,
              r_relaxed.cpu_ms, r_relaxed.random_ios);
  std::printf("%-16s %12.2f %12.3f %14.1f\n", "area-stats",
              r_stats.pct_data, r_stats.cpu_ms, r_stats.random_ios);
  std::printf("%-16s %12.2f %12.3f %14.1f\n", "fixed-dim",
              r_tight.pct_data, r_tight.cpu_ms, r_tight.random_ios);
  std::printf("(area-stats learns the 36-value window on its own and\n"
              "matches the explicitly configured fixed-dim bound)\n");
}

}  // namespace
}  // namespace sgtree::bench

int main() {
  sgtree::bench::Run();
  return 0;
}
