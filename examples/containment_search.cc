// Itemset containment queries (Section 3's walk-through) plus the
// reconstructed Section 4.2 multi-tree queries: a similarity self-join to
// find near-duplicate transactions, and closest pairs across two
// collections.

#include <cstdio>

#include "data/quest_generator.h"
#include "sgtree/bulk_load.h"
#include "sgtree/join.h"
#include "sgtree/search.h"

int main() {
  using namespace sgtree;

  QuestOptions qopt;
  qopt.num_transactions = 5000;
  qopt.num_items = 300;
  qopt.num_patterns = 100;
  qopt.seed = 31;
  QuestGenerator gen(qopt);
  const Dataset store_a = gen.Generate();

  SgTreeOptions topt;
  topt.num_bits = qopt.num_items;
  auto tree_a = BulkLoad(store_a, topt);  // Gray-code bulk load (Section 6).
  std::printf("Bulk-loaded %zu transactions (height %u, %llu nodes)\n\n",
              tree_a->size(), tree_a->height(),
              static_cast<unsigned long long>(tree_a->node_count()));

  // 1. Containment: which transactions contain a given item combination?
  const auto& probe = store_a.transactions[42];
  std::vector<ItemId> pair_probe(probe.items.begin(),
                                 probe.items.begin() + 2);
  const Signature probe_sig =
      Signature::FromItems(pair_probe, qopt.num_items);
  QueryTrace trace;
  const auto holders =
      ContainmentSearch(*tree_a, probe_sig, tree_a->OwnPoolContext(&trace));
  std::printf("Transactions containing items {%u, %u}: %zu "
              "(visited %llu nodes of %llu)\n\n",
              pair_probe[0], pair_probe[1], holders.size(),
              static_cast<unsigned long long>(trace.nodes_visited()),
              static_cast<unsigned long long>(tree_a->node_count()));

  // 2. Near-duplicate detection: self-join within distance 1.
  QueryTrace join_trace;
  const auto dupes = SimilarityJoin(*tree_a, *tree_a, 1.0,
                                    QueryContext{nullptr, &join_trace}, {});
  size_t near_duplicates = 0;
  for (const JoinPair& p : dupes) {
    if (p.tid_a < p.tid_b) ++near_duplicates;  // Each unordered pair once.
  }
  std::printf("Near-duplicate pairs (distance <= 1): %zu "
              "(compared %llu of %llu candidate pairs)\n\n",
              near_duplicates,
              static_cast<unsigned long long>(
                  join_trace.candidates_verified),
              static_cast<unsigned long long>(tree_a->size() *
                                              tree_a->size()));

  // 3. Closest pairs across two stores' transaction logs.
  QuestOptions qopt_b = qopt;
  qopt_b.seed = 32;
  qopt_b.num_transactions = 4000;
  QuestGenerator gen_b(qopt_b);
  const Dataset store_b = gen_b.Generate();
  auto tree_b = BulkLoad(store_b, topt);
  const auto closest = ClosestPairs(*tree_a, *tree_b, 5);
  std::printf("5 closest (store A, store B) transaction pairs:\n");
  for (const JoinPair& p : closest) {
    std::printf("  A#%llu <-> B#%llu at distance %.0f\n",
                static_cast<unsigned long long>(p.tid_a),
                static_cast<unsigned long long>(p.tid_b), p.distance);
  }
  return 0;
}
