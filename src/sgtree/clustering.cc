#include "sgtree/clustering.h"

#include <algorithm>
#include <limits>

namespace sgtree {
namespace {

void CollectLeaves(const SgTree& tree, PageId node_id,
                   std::vector<LeafCluster>* clusters) {
  const NodeView node = tree.GetNodeNoCharge(node_id);
  if (node.IsLeaf()) {
    LeafCluster cluster;
    cluster.signature = node.Cover();
    cluster.tids.reserve(node.Count());
    for (const EntryView entry : node) cluster.tids.push_back(entry.ref);
    clusters->push_back(std::move(cluster));
    return;
  }
  for (const EntryView entry : node) {
    CollectLeaves(tree, static_cast<PageId>(entry.ref), clusters);
  }
}

}  // namespace

std::vector<LeafCluster> ClusterByLeaves(const SgTree& tree, uint32_t k) {
  std::vector<LeafCluster> clusters;
  if (tree.root() == kInvalidPageId || k == 0) return clusters;
  CollectLeaves(tree, tree.root(), &clusters);

  // Agglomerate: repeatedly merge the pair of clusters whose union
  // signatures are closest in Hamming distance.
  while (clusters.size() > k) {
    size_t best_a = 0;
    size_t best_b = 1;
    uint32_t best_dist = std::numeric_limits<uint32_t>::max();
    for (size_t i = 0; i < clusters.size(); ++i) {
      for (size_t j = i + 1; j < clusters.size(); ++j) {
        const uint32_t d = Signature::XorCount(clusters[i].signature,
                                               clusters[j].signature);
        if (d < best_dist) {
          best_dist = d;
          best_a = i;
          best_b = j;
        }
      }
    }
    clusters[best_a].signature.UnionWith(clusters[best_b].signature);
    clusters[best_a].tids.insert(clusters[best_a].tids.end(),
                                 clusters[best_b].tids.begin(),
                                 clusters[best_b].tids.end());
    clusters.erase(clusters.begin() + best_b);
  }
  for (LeafCluster& cluster : clusters) {
    std::sort(cluster.tids.begin(), cluster.tids.end());
  }
  return clusters;
}

}  // namespace sgtree
