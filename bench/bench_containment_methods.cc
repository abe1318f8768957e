// Containment / subset / similarity queries across access methods: SG-tree
// vs inverted file vs sequential scan. Demonstrates both halves of the
// related-work claim the paper makes via Helmer & Moerkotte [14]:
// signature trees are NOT the structure of choice for subset/superset
// retrieval (inverted files win), but they are for similarity search.

#include <cstdio>

#include "bench/bench_common.h"
#include "inverted/inverted_index.h"
#include "sgtree/search.h"

namespace sgtree::bench {
namespace {

void Run() {
  QuestOptions qopt = PaperQuest(12, 6, 200'000);
  QuestGenerator gen(qopt);
  const Dataset dataset = gen.Generate();
  const uint32_t num_queries = NumQueries();
  const auto raw_queries = gen.GenerateQueries(num_queries);

  const BuiltTree built = BuildTree(dataset, DefaultTreeOptions(dataset));
  Timer inv_timer;
  const InvertedIndex inverted(dataset);
  const double inv_build = inv_timer.ElapsedMs();
  std::printf("=== Containment/subset/NN across methods (T12.I6, D=%zu) "
              "===\n",
              dataset.size());
  std::printf("(tree build %.0f ms, inverted build %.0f ms)\n\n",
              built.build_ms, inv_build);
  std::printf("%-22s %-10s %14s %14s\n", "query type", "method",
              "cpu_ms/query", "ios/query");

  // Superset (containment) queries: 3-item prefixes of data transactions.
  {
    std::vector<std::vector<ItemId>> probes;
    for (uint32_t i = 0; i < num_queries; ++i) {
      const auto& txn = dataset.transactions[(i * 997) % dataset.size()];
      probes.emplace_back(
          txn.items.begin(),
          txn.items.begin() + std::min<size_t>(3, txn.items.size()));
    }
    QueryTrace tree_trace;
    Timer tree_timer;
    for (const auto& probe : probes) {
      ContainmentSearch(*built.tree,
                        Signature::FromItems(probe, dataset.num_items),
                        QueryContext{nullptr, &tree_trace});
    }
    const double tree_ms = tree_timer.ElapsedMs();
    QueryTrace inv_trace;
    Timer inv_q_timer;
    for (const auto& probe : probes) {
      inverted.Containing(probe, QueryContext{nullptr, &inv_trace});
    }
    const double inv_ms = inv_q_timer.ElapsedMs();
    std::printf("%-22s %-10s %14.3f %14.1f\n", "superset (3 items)",
                "SG-tree", tree_ms / probes.size(),
                static_cast<double>(tree_trace.buffer_misses) / probes.size());
    std::printf("%-22s %-10s %14.3f %14.1f\n", "superset (3 items)",
                "inverted", inv_ms / probes.size(),
                static_cast<double>(inv_trace.buffer_misses) / probes.size());
  }

  // Subset queries: unions of two data transactions.
  {
    std::vector<Signature> probes;
    for (uint32_t i = 0; i < num_queries; ++i) {
      Signature sig = Signature::FromItems(
          dataset.transactions[(i * 131) % dataset.size()].items,
          dataset.num_items);
      sig.UnionWith(Signature::FromItems(
          dataset.transactions[(i * 733) % dataset.size()].items,
          dataset.num_items));
      probes.push_back(std::move(sig));
    }
    QueryTrace tree_trace;
    Timer tree_timer;
    for (const auto& probe : probes) {
      SubsetSearch(*built.tree, probe, QueryContext{nullptr, &tree_trace});
    }
    const double tree_ms = tree_timer.ElapsedMs();
    QueryTrace inv_trace;
    Timer inv_q_timer;
    for (const auto& probe : probes) {
      inverted.ContainedIn(probe.ToItems(),
                           QueryContext{nullptr, &inv_trace});
    }
    const double inv_ms = inv_q_timer.ElapsedMs();
    std::printf("%-22s %-10s %14.3f %14.1f\n", "subset (2-txn union)",
                "SG-tree", tree_ms / probes.size(),
                static_cast<double>(tree_trace.buffer_misses) / probes.size());
    std::printf("%-22s %-10s %14.3f %14.1f\n", "subset (2-txn union)",
                "inverted", inv_ms / probes.size(),
                static_cast<double>(inv_trace.buffer_misses) / probes.size());
  }

  // Similarity (1-NN): where the SG-tree is the structure of choice.
  {
    QueryTrace tree_trace;
    Timer tree_timer;
    for (const auto& q : raw_queries) {
      DfsNearest(*built.tree,
                 Signature::FromItems(q.items, dataset.num_items),
                 QueryContext{nullptr, &tree_trace});
    }
    const double tree_ms = tree_timer.ElapsedMs();
    QueryTrace inv_trace;
    Timer inv_q_timer;
    for (const auto& q : raw_queries) {
      inverted.KNearest(q.items, 1, QueryContext{nullptr, &inv_trace});
    }
    const double inv_ms = inv_q_timer.ElapsedMs();
    std::printf("%-22s %-10s %14.3f %14.1f\n", "1-NN", "SG-tree",
                tree_ms / raw_queries.size(),
                static_cast<double>(tree_trace.buffer_misses) /
                    raw_queries.size());
    std::printf("%-22s %-10s %14.3f %14.1f\n", "1-NN", "inverted",
                inv_ms / raw_queries.size(),
                static_cast<double>(inv_trace.buffer_misses) /
                    raw_queries.size());
  }

  std::printf("\nExpected shape ([14] via the paper's Section 2): inverted\n"
              "files win subset/superset retrieval; the SG-tree is the\n"
              "competitive structure for similarity search I/O.\n");
}

}  // namespace
}  // namespace sgtree::bench

int main() {
  sgtree::bench::Run();
  return 0;
}
