// Index persistence: build an SG-tree, save it to disk as a static image
// (dense, checksummed — the one file format a tree is saved to), load it
// back by thawing it into a mutable tree, and keep updating the loaded
// index — the workflow of a long-lived dynamic collection.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "common/stats.h"
#include "data/quest_generator.h"
#include "sgtree/invariant_auditor.h"
#include "sgtree/search.h"
#include "sgtree/sg_tree.h"
#include "static/static_tree_builder.h"

int main() {
  using namespace sgtree;

  QuestOptions qopt;
  qopt.num_transactions = 10'000;
  qopt.num_items = 600;
  qopt.num_patterns = 200;
  qopt.seed = 55;
  QuestGenerator gen(qopt);
  const Dataset dataset = gen.Generate();

  SgTreeOptions topt;
  topt.num_bits = qopt.num_items;
  SgTree tree(topt);
  for (const Transaction& txn : dataset.transactions) tree.Insert(txn);

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("sgtree_demo_" + std::to_string(::getpid()) + ".idx"))
          .string();
  Timer save_timer;
  if (!BuildStaticTree(tree, path)) {
    std::printf("failed to save %s\n", path.c_str());
    return 1;
  }
  std::printf("Saved %zu transactions / %llu nodes to %s (%llu bytes) in "
              "%.0f ms\n",
              tree.size(), static_cast<unsigned long long>(tree.node_count()),
              path.c_str(),
              static_cast<unsigned long long>(std::filesystem::file_size(path)),
              save_timer.ElapsedMs());

  Timer load_timer;
  auto loaded = LoadTree(path, topt);
  if (loaded == nullptr) {
    std::printf("failed to load %s\n", path.c_str());
    return 1;
  }
  std::printf("Loaded in %.0f ms; invariants %s\n", load_timer.ElapsedMs(),
              AuditTree(*loaded).ok() ? "OK" : "BROKEN");

  // The loaded index answers queries...
  const auto queries = gen.GenerateQueries(3);
  for (const Transaction& q : queries) {
    const Signature sig = Signature::FromItems(q.items, qopt.num_items);
    const Neighbor nn = DfsNearest(*loaded, sig);
    std::printf("  NN of query: transaction %llu at distance %.0f\n",
                static_cast<unsigned long long>(nn.tid), nn.distance);
  }

  // ...and keeps accepting updates.
  Transaction fresh;
  fresh.tid = 999'999;
  fresh.items = queries[0].items;
  loaded->Insert(fresh);
  const Signature sig =
      Signature::FromItems(queries[0].items, qopt.num_items);
  const Neighbor nn = DfsNearest(*loaded, sig);
  std::printf("After inserting the query itself: NN is %llu at distance "
              "%.0f (expected 999999 at 0)\n",
              static_cast<unsigned long long>(nn.tid), nn.distance);
  std::remove(path.c_str());
  return 0;
}
