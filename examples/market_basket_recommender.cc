// Market-basket recommendation — the paper's motivating scenario (Section
// 1): given a customer's transaction, find the most similar past
// transactions and recommend the items they contain that the customer has
// not bought yet.
//
// Generates a Quest-style synthetic transaction log, indexes it with an
// SG-tree, and serves recommendations for a few incoming baskets,
// reporting how little of the database the index had to touch.

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "common/stats.h"
#include "data/quest_generator.h"
#include "sgtree/search.h"
#include "sgtree/sg_tree.h"

int main() {
  using namespace sgtree;

  QuestOptions qopt;
  qopt.num_transactions = 20'000;
  qopt.num_items = 500;
  qopt.num_patterns = 300;
  qopt.avg_transaction_size = 10;
  qopt.avg_itemset_size = 6;
  qopt.seed = 2024;
  QuestGenerator gen(qopt);
  const Dataset history = gen.Generate();

  SgTreeOptions topt;
  topt.num_bits = qopt.num_items;
  SgTree tree(topt);
  Timer build_timer;
  for (const Transaction& txn : history.transactions) tree.Insert(txn);
  std::printf("Indexed %zu transactions in %.0f ms "
              "(height %u, %llu nodes)\n\n",
              tree.size(), build_timer.ElapsedMs(), tree.height(),
              static_cast<unsigned long long>(tree.node_count()));

  const auto customers = gen.GenerateQueries(5);
  for (const Transaction& customer : customers) {
    const Signature q = Signature::FromItems(customer.items, qopt.num_items);

    // 20 most similar historical baskets.
    QueryTrace trace;
    Timer query_timer;
    const auto neighbors =
        DfsKNearest(tree, q, 20, QueryContext{nullptr, &trace});
    const double ms = query_timer.ElapsedMs();

    // Score candidate items by how many similar baskets contain them.
    std::map<ItemId, int> votes;
    for (const Neighbor& n : neighbors) {
      const Transaction& basket =
          history.transactions[static_cast<size_t>(n.tid)];
      for (ItemId item : basket.items) {
        if (!q.Test(item)) ++votes[item];
      }
    }
    std::vector<std::pair<int, ItemId>> ranked;
    for (const auto& [item, count] : votes) ranked.push_back({count, item});
    std::sort(ranked.rbegin(), ranked.rend());

    std::printf("Customer basket {");
    for (size_t i = 0; i < customer.items.size(); ++i) {
      std::printf("%s%u", i ? ", " : "", customer.items[i]);
    }
    std::printf("}\n  recommend items:");
    for (size_t i = 0; i < ranked.size() && i < 5; ++i) {
      std::printf(" %u(x%d)", ranked[i].second, ranked[i].first);
    }
    std::printf("\n  [%.2f ms, touched %.1f%% of the database, "
                "%llu node reads]\n\n",
                ms, 100.0 * trace.candidates_verified / history.size(),
                static_cast<unsigned long long>(trace.nodes_visited()));
  }
  return 0;
}
