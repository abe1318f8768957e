// Categorical-data exploration on a CENSUS-like dataset: k-NN and
// similarity range search over 36-attribute tuples, using the
// fixed-dimensionality bound (Section 6), plus leaf-guided clustering of
// the collection (Section 6 future work).

#include <cstdio>

#include "common/stats.h"
#include "data/census_generator.h"
#include "sgtree/clustering.h"
#include "sgtree/search.h"
#include "sgtree/sg_tree.h"

int main() {
  using namespace sgtree;

  CensusOptions copt;
  copt.num_tuples = 20'000;
  copt.seed = 11;
  CensusGenerator gen(copt);
  const Dataset census = gen.Generate();
  std::printf("CENSUS-like dataset: %zu tuples, %u attributes, %u values\n",
              census.size(), census.fixed_dimensionality, census.num_items);

  SgTreeOptions topt;
  topt.num_bits = census.num_items;
  topt.fixed_dimensionality = census.fixed_dimensionality;  // Tight bound.
  SgTree tree(topt);
  Timer build_timer;
  for (const Transaction& tuple : census.transactions) tree.Insert(tuple);
  std::printf("Indexed in %.0f ms (height %u)\n\n", build_timer.ElapsedMs(),
              tree.height());

  const auto queries = gen.GenerateQueries(3);
  for (const Transaction& person : queries) {
    const Signature q = Signature::FromItems(person.items, census.num_items);

    QueryTrace trace;
    const auto knn = DfsKNearest(tree, q, 5, tree.OwnPoolContext(&trace));
    std::printf("5 most similar individuals (of %zu):", census.size());
    for (const Neighbor& n : knn) {
      std::printf(" #%llu(d=%.0f)", static_cast<unsigned long long>(n.tid),
                  n.distance);
    }
    std::printf("\n  touched %.2f%% of the data\n",
                100.0 * trace.candidates_verified / census.size());

    // All individuals differing in at most 2 attributes (Hamming <= 4,
    // since every attribute mismatch flips two bits).
    QueryTrace range_trace;
    const auto close_matches =
        RangeSearch(tree, q, 4.0, tree.OwnPoolContext(&range_trace));
    std::printf("  individuals within 2 attribute changes: %zu "
                "(touched %.2f%%)\n\n",
                close_matches.size(),
                100.0 * range_trace.candidates_verified / census.size());
  }

  // Cluster the population via the tree's leaves (Section 6).
  const auto clusters = ClusterByLeaves(tree, 6);
  std::printf("Leaf-guided clustering into %zu segments:\n", clusters.size());
  for (size_t c = 0; c < clusters.size(); ++c) {
    std::printf("  segment %zu: %zu individuals, footprint %u of %u values\n",
                c, clusters[c].tids.size(), clusters[c].signature.Area(),
                census.num_items);
  }
  return 0;
}
