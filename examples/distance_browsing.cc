// Distance browsing: stream neighbors of a query in ascending distance
// without choosing k up front (the Hjaltason-Samet incremental search the
// paper cites for optimal NN), then run the same query against the index's
// static on-disk image, loaded as a tree that reads it in place from an
// mmap.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "data/quest_generator.h"
#include "exec/index_backend.h"
#include "exec/query_api.h"
#include "sgtree/incremental.h"
#include "sgtree/sg_tree.h"
#include "static/static_tree_builder.h"

int main() {
  using namespace sgtree;

  QuestOptions qopt;
  qopt.num_transactions = 15'000;
  qopt.num_items = 500;
  qopt.num_patterns = 250;
  qopt.seed = 77;
  QuestGenerator gen(qopt);
  const Dataset dataset = gen.Generate();

  SgTreeOptions topt;
  topt.num_bits = qopt.num_items;
  SgTree tree(topt);
  for (const Transaction& txn : dataset.transactions) tree.Insert(txn);

  const auto queries = gen.GenerateQueries(1);
  const Signature query =
      Signature::FromItems(queries[0].items, qopt.num_items);

  // Stream neighbors until the distance doubles from the first hit —
  // a stopping rule no k-NN interface can express.
  QueryTrace trace;
  NearestIterator it(tree, query, QueryContext{nullptr, &trace});
  const auto first = it.Next();
  if (!first.has_value()) return 1;
  std::printf("browsing neighbors until distance exceeds 2x the nearest "
              "(%g):\n", first->distance);
  std::printf("  #%llu at %g\n", static_cast<unsigned long long>(first->tid),
              first->distance);
  int streamed = 1;
  const double cutoff = first->distance <= 0 ? 2 : first->distance * 2;
  while (it.PeekDistance() <= cutoff && streamed < 25) {
    const auto n = *it.Next();
    std::printf("  #%llu at %g\n", static_cast<unsigned long long>(n.tid),
                n.distance);
    ++streamed;
  }
  std::printf("streamed %d neighbors touching %llu of %llu nodes\n\n",
              streamed,
              static_cast<unsigned long long>(trace.nodes_visited()),
              static_cast<unsigned long long>(tree.node_count()));

  // All ties at the minimum distance, in one call.
  const auto ties = AllNearest(tree, query);
  std::printf("transactions tied at the minimum distance %g: %zu\n\n",
              ties[0].distance, ties.size());

  // Same index as a static image on disk.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("distance_browsing_" + std::to_string(::getpid()) + ".static"))
          .string();
  std::string error;
  if (!BuildStaticTree(tree, path, &error)) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  auto loaded = LoadTree(path, {}, &error);
  if (loaded == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", error.c_str());
    std::filesystem::remove(path);
    return 1;
  }
  QueryRequest request;
  request.type = QueryType::kKnn;
  request.query = query;
  request.k = 1;
  const QueryResult nn = Execute(SgTreeBackend(*loaded), request);
  std::printf("static image (%llu bytes, %llu nodes, read in place): "
              "NN #%llu at %g, %llu page reads\n",
              static_cast<unsigned long long>(std::filesystem::file_size(path)),
              static_cast<unsigned long long>(loaded->node_count()),
              static_cast<unsigned long long>(nn.neighbors[0].tid),
              nn.neighbors[0].distance,
              static_cast<unsigned long long>(nn.trace.buffer_misses));
  loaded.reset();
  std::filesystem::remove(path);
  return 0;
}
