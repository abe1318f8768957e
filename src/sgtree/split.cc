#include "sgtree/split.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/signature_ops.h"

namespace sgtree {
namespace {

// ---------------------------------------------------------------------------
// Seed-based splits: linear (S-tree-style cheap seeds) and quadratic
// (R-tree max-distance seeds). They share the assignment loop.
// ---------------------------------------------------------------------------

SplitResult SeedSplit(const NodeView& node, size_t seed1, size_t seed2,
                      uint32_t min_entries);

SplitResult LinearSplit(const NodeView& node, uint32_t min_entries) {
  const size_t n = node.Count();
  // Linear seed pick: the widest entry, then the entry farthest from it.
  size_t seed1 = 0;
  for (size_t i = 1; i < n; ++i) {
    if (sig::Area(node.EntryAt(i).sig) > sig::Area(node.EntryAt(seed1).sig)) {
      seed1 = i;
    }
  }
  size_t seed2 = seed1 == 0 ? 1 : 0;
  uint32_t max_dist = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i == seed1) continue;
    const uint32_t d =
        sig::XorCount(node.EntryAt(seed1).sig, node.EntryAt(i).sig);
    if (d >= max_dist) {
      max_dist = d;
      seed2 = i;
    }
  }
  return SeedSplit(node, seed1, seed2, min_entries);
}

SplitResult QuadraticSplit(const NodeView& node, uint32_t min_entries) {
  const size_t n = node.Count();
  // Seeds: the pair of entries at maximum distance.
  size_t seed1 = 0;
  size_t seed2 = 1;
  uint32_t max_dist = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const uint32_t d =
          sig::XorCount(node.EntryAt(i).sig, node.EntryAt(j).sig);
      if (d > max_dist) {
        max_dist = d;
        seed1 = i;
        seed2 = j;
      }
    }
  }
  return SeedSplit(node, seed1, seed2, min_entries);
}

SplitResult SeedSplit(const NodeView& node, size_t seed1, size_t seed2,
                      uint32_t min_entries) {
  const size_t n = node.Count();
  SplitResult result;
  Signature sig1 = node.EntryAt(seed1).sig.ToSignature();
  Signature sig2 = node.EntryAt(seed2).sig.ToSignature();
  result.first.push_back(seed1);
  result.second.push_back(seed2);

  std::vector<size_t> rest;
  for (size_t i = 0; i < n; ++i) {
    if (i != seed1 && i != seed2) rest.push_back(i);
  }

  for (size_t r = 0; r < rest.size(); ++r) {
    const size_t remaining = rest.size() - r;
    // Underflow guard: if one group plus all remaining entries only just
    // reaches the minimum, it takes everything.
    if (result.first.size() + remaining == min_entries) {
      for (size_t k = r; k < rest.size(); ++k) {
        sig1.UnionWith(node.EntryAt(rest[k]).sig);
        result.first.push_back(rest[k]);
      }
      break;
    }
    if (result.second.size() + remaining == min_entries) {
      for (size_t k = r; k < rest.size(); ++k) {
        sig2.UnionWith(node.EntryAt(rest[k]).sig);
        result.second.push_back(rest[k]);
      }
      break;
    }

    const EntryView entry = node.EntryAt(rest[r]);
    const uint32_t grow1 = sig::AndNotCount(entry.sig, sig1);
    const uint32_t grow2 = sig::AndNotCount(entry.sig, sig2);
    bool to_first;
    if (grow1 != grow2) {
      to_first = grow1 < grow2;
    } else {
      const uint32_t area1 = sig1.Area();
      const uint32_t area2 = sig2.Area();
      if (area1 != area2) {
        to_first = area1 < area2;
      } else {
        to_first = result.first.size() <= result.second.size();
      }
    }
    if (to_first) {
      sig1.UnionWith(entry.sig);
      result.first.push_back(rest[r]);
    } else {
      sig2.UnionWith(entry.sig);
      result.second.push_back(rest[r]);
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Hierarchical clustering splits (AvgSplit / MinSplit).
// ---------------------------------------------------------------------------

struct Cluster {
  std::vector<size_t> members;
  bool active = true;
};

// Runs agglomerative clustering over the entries with the Lance-Williams
// update for either group-average (AvgSplit) or single linkage (MinSplit)
// and assembles the final two groups.
SplitResult ClusteringSplit(const NodeView& node, bool group_average,
                            uint32_t min_entries) {
  const size_t n = node.Count();
  // A group may grow to at most n - min_entries, or the other side
  // underflows (the paper's threshold rule).
  const size_t cap = n > min_entries ? n - min_entries : n;

  std::vector<Cluster> clusters(n);
  for (size_t i = 0; i < n; ++i) clusters[i].members = {i};

  // Pairwise distance matrix between clusters (initially entry distances).
  std::vector<std::vector<double>> dist(n, std::vector<double>(n, 0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      dist[i][j] = dist[j][i] =
          sig::XorCount(node.EntryAt(i).sig, node.EntryAt(j).sig);
    }
  }

  size_t active_count = n;
  while (active_count > 2) {
    // Best legal merge (merged size within the cap).
    size_t best_a = n;
    size_t best_b = n;
    double best_dist = std::numeric_limits<double>::infinity();
    for (size_t a = 0; a < n; ++a) {
      if (!clusters[a].active) continue;
      for (size_t b = a + 1; b < n; ++b) {
        if (!clusters[b].active) continue;
        if (clusters[a].members.size() + clusters[b].members.size() > cap) {
          continue;
        }
        if (dist[a][b] < best_dist) {
          best_dist = dist[a][b];
          best_a = a;
          best_b = b;
        }
      }
    }
    if (best_a == n) break;  // No legal merge left; assemble below.

    const double size_a = static_cast<double>(clusters[best_a].members.size());
    const double size_b = static_cast<double>(clusters[best_b].members.size());
    // Lance-Williams update of the merged cluster's distances.
    for (size_t c = 0; c < n; ++c) {
      if (!clusters[c].active || c == best_a || c == best_b) continue;
      dist[best_a][c] = dist[c][best_a] =
          group_average
              ? (size_a * dist[best_a][c] + size_b * dist[best_b][c]) /
                    (size_a + size_b)
              : std::min(dist[best_a][c], dist[best_b][c]);
    }
    auto& members_a = clusters[best_a].members;
    auto& members_b = clusters[best_b].members;
    members_a.insert(members_a.end(), members_b.begin(), members_b.end());
    members_b.clear();
    clusters[best_b].active = false;
    --active_count;

    // Threshold rule: once a cluster can no longer grow, the others are
    // merged immediately and clustering terminates.
    if (members_a.size() >= cap && active_count > 2) {
      size_t sink = n;
      for (size_t c = 0; c < n; ++c) {
        if (!clusters[c].active || c == best_a) continue;
        if (sink == n) {
          sink = c;
        } else {
          auto& dst = clusters[sink].members;
          dst.insert(dst.end(), clusters[c].members.begin(),
                     clusters[c].members.end());
          clusters[c].members.clear();
          clusters[c].active = false;
          --active_count;
        }
      }
      break;
    }
  }

  // Assemble the two groups. If more than two clusters remain (no legal
  // merge existed), the largest keeps its identity and the rest merge —
  // the paper's termination rule.
  std::vector<size_t> active;
  for (size_t c = 0; c < n; ++c) {
    if (clusters[c].active) active.push_back(c);
  }
  SGTREE_ASSERT(active.size() >= 2);
  std::sort(active.begin(), active.end(), [&](size_t a, size_t b) {
    return clusters[a].members.size() > clusters[b].members.size();
  });
  std::vector<size_t> group1 = clusters[active[0]].members;
  std::vector<size_t> group2;
  for (size_t c = 1; c < active.size(); ++c) {
    group2.insert(group2.end(), clusters[active[c]].members.begin(),
                  clusters[active[c]].members.end());
  }

  // Rare corner: a group may still be under-filled (three stubborn clusters
  // of similar size). Move entries towards the small group by minimum
  // enlargement of its signature until both satisfy the minimum.
  auto union_of = [&](const std::vector<size_t>& group) {
    Signature sig(node.num_bits());
    for (size_t idx : group) sig.UnionWith(node.EntryAt(idx).sig);
    return sig;
  };
  auto rebalance = [&](std::vector<size_t>& small, std::vector<size_t>& big) {
    Signature small_sig = union_of(small);
    while (small.size() < min_entries && big.size() > min_entries) {
      size_t best = 0;
      uint32_t best_grow = std::numeric_limits<uint32_t>::max();
      for (size_t i = 0; i < big.size(); ++i) {
        const uint32_t grow =
            sig::AndNotCount(node.EntryAt(big[i]).sig, small_sig);
        if (grow < best_grow) {
          best_grow = grow;
          best = i;
        }
      }
      small_sig.UnionWith(node.EntryAt(big[best]).sig);
      small.push_back(big[best]);
      big.erase(big.begin() + best);
    }
  };
  if (group1.size() < group2.size()) {
    rebalance(group1, group2);
  } else {
    rebalance(group2, group1);
  }

  return {std::move(group1), std::move(group2)};
}

}  // namespace

SplitResult SplitEntries(const NodeView& node, SplitPolicy policy,
                         uint32_t min_entries) {
  SGTREE_ASSERT(node.Count() >= 2);
  switch (policy) {
    case SplitPolicy::kLinear:
      return LinearSplit(node, min_entries);
    case SplitPolicy::kQuadratic:
      return QuadraticSplit(node, min_entries);
    case SplitPolicy::kAverage:
      return ClusteringSplit(node, /*group_average=*/true, min_entries);
    case SplitPolicy::kMinimum:
      return ClusteringSplit(node, /*group_average=*/false, min_entries);
  }
  return QuadraticSplit(node, min_entries);
}

}  // namespace sgtree
