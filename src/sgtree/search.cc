#include "sgtree/search.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <vector>

#include "common/distance.h"
#include "common/signature_ops.h"

namespace sgtree {
namespace {

// Bounded max-heap of the k best neighbors found so far; the heap maximum
// (lexicographic by distance then tid) is the branch-and-bound threshold.
class NeighborHeap {
 public:
  explicit NeighborHeap(uint32_t k) : k_(k) {}

  double Tau() const {
    return heap_.size() < k_ ? std::numeric_limits<double>::infinity()
                             : heap_.front().distance;
  }

  void Offer(const Neighbor& candidate) {
    if (heap_.size() < k_) {
      heap_.push_back(candidate);
      std::push_heap(heap_.begin(), heap_.end(), Less);
      return;
    }
    if (Less(candidate, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), Less);
      heap_.back() = candidate;
      std::push_heap(heap_.begin(), heap_.end(), Less);
    }
  }

  std::vector<Neighbor> Sorted() && {
    std::sort(heap_.begin(), heap_.end(), Less);
    return std::move(heap_);
  }

 private:
  static bool Less(const Neighbor& a, const Neighbor& b) {
    return a.distance != b.distance ? a.distance < b.distance : a.tid < b.tid;
  }

  uint32_t k_;
  std::vector<Neighbor> heap_;  // Max-heap under Less.
};

struct BoundedEntry {
  double bound;
  uint32_t area;
  size_t index;
};

// Entries of a directory node sorted by (lower bound, area) — the visit
// order of Figure 4, including the minimum-area tie-break. Every entry's
// bound is computed (and counted as a signature test) before sorting.
std::vector<BoundedEntry> SortedBounds(const SgTree& tree,
                                       const NodeView& node,
                                       const Signature& query,
                                       const QueryContext& ctx) {
  const Metric metric = tree.options().metric;
  const auto [lo, hi] = tree.TransactionAreaBounds();
  std::vector<BoundedEntry> order;
  order.reserve(node.Count());
  for (size_t i = 0; i < node.Count(); ++i) {
    const EntryView entry = node.EntryAt(i);
    order.push_back({MinDistBoundAreaStatsOf(query, entry.sig, metric, lo, hi),
                     sig::Area(entry.sig), i});
  }
  ctx.CountBounds(order.size());
  std::sort(order.begin(), order.end(),
            [](const BoundedEntry& a, const BoundedEntry& b) {
              return a.bound != b.bound ? a.bound < b.bound
                                        : a.area < b.area;
            });
  return order;
}

// Pruning threshold: the local k-th-best distance, tightened by the
// cross-partition bound when one is attached. Subtrees are pruned only when
// their bound STRICTLY exceeds this — boundary-tied subtrees are descended
// so ties at the k-th distance resolve canonically by (distance, tid).
double PruneTau(const NeighborHeap& heap, const SharedPruneBound* shared) {
  const double tau = heap.Tau();
  return shared != nullptr ? std::min(tau, shared->Load()) : tau;
}

void DfsKnnRecurse(const SgTree& tree, PageId node_id, const Signature& query,
                   NeighborHeap* heap, const QueryContext& ctx,
                   SharedPruneBound* shared) {
  const NodeView node = tree.GetNode(node_id, ctx);
  ctx.CountNode(node.IsLeaf());
  const Metric metric = tree.options().metric;
  if (node.IsLeaf()) {
    ctx.CountVerified(node.Count());
    for (size_t i = 0; i < node.Count(); ++i) {
      const EntryView entry = node.EntryAt(i);
      heap->Offer({entry.ref, DistanceOf(query, entry.sig, metric)});
    }
    // Publishing inf (heap not yet full) is a no-op inside PublishMin.
    if (shared != nullptr) shared->PublishMin(heap->Tau());
    return;
  }
  const std::vector<BoundedEntry> order = SortedBounds(tree, node, query, ctx);
  for (size_t oi = 0; oi < order.size(); ++oi) {
    if (order[oi].bound > PruneTau(*heap, shared)) {
      // Later entries bound even higher: this entry and everything after it
      // is cut by the distance bound.
      ctx.CountPruned(order.size() - oi);
      break;
    }
    ctx.CountDescended(1);
    DfsKnnRecurse(tree,
                  static_cast<PageId>(node.EntryAt(order[oi].index).ref),
                  query, heap, ctx, shared);
  }
}

void RangeRecurse(const SgTree& tree, PageId node_id, const Signature& query,
                  double epsilon, std::vector<Neighbor>* result,
                  const QueryContext& ctx) {
  const NodeView node = tree.GetNode(node_id, ctx);
  ctx.CountNode(node.IsLeaf());
  const Metric metric = tree.options().metric;
  if (node.IsLeaf()) {
    ctx.CountVerified(node.Count());
    uint64_t matched = 0;
    for (size_t i = 0; i < node.Count(); ++i) {
      const EntryView entry = node.EntryAt(i);
      const double d = DistanceOf(query, entry.sig, metric);
      if (d <= epsilon) {
        result->push_back({entry.ref, d});
        ++matched;
      }
    }
    ctx.CountResults(matched);
    ctx.CountFalseDrops(node.Count() - matched);
    return;
  }
  ctx.CountBounds(node.Count());
  const auto [lo, hi] = tree.TransactionAreaBounds();
  for (size_t i = 0; i < node.Count(); ++i) {
    const EntryView entry = node.EntryAt(i);
    const double bound =
        MinDistBoundAreaStatsOf(query, entry.sig, metric, lo, hi);
    if (bound <= epsilon) {
      ctx.CountDescended(1);
      RangeRecurse(tree, static_cast<PageId>(entry.ref), query, epsilon,
                   result, ctx);
    } else {
      ctx.CountPruned(1);
    }
  }
}

void ContainRecurse(const SgTree& tree, PageId node_id, const Signature& query,
                    bool exact, std::vector<uint64_t>* result,
                    const QueryContext& ctx) {
  const NodeView node = tree.GetNode(node_id, ctx);
  ctx.CountNode(node.IsLeaf());
  if (node.IsLeaf()) {
    ctx.CountVerified(node.Count());
    uint64_t matched = 0;
    for (size_t i = 0; i < node.Count(); ++i) {
      const EntryView entry = node.EntryAt(i);
      const bool match = exact ? sig::Equal(entry.sig, query)
                               : sig::Contains(entry.sig, query);
      if (match) {
        result->push_back(entry.ref);
        ++matched;
      }
    }
    ctx.CountResults(matched);
    ctx.CountFalseDrops(node.Count() - matched);
    return;
  }
  ctx.CountBounds(node.Count());
  for (size_t i = 0; i < node.Count(); ++i) {
    const EntryView entry = node.EntryAt(i);
    // Only subtrees whose signature covers the query can hold supersets.
    if (sig::Contains(entry.sig, query)) {
      ctx.CountDescended(1);
      ContainRecurse(tree, static_cast<PageId>(entry.ref), query, exact,
                     result, ctx);
    } else {
      ctx.CountPruned(1);
    }
  }
}

void SubsetRecurse(const SgTree& tree, PageId node_id, const Signature& query,
                   std::vector<uint64_t>* result, const QueryContext& ctx) {
  const NodeView node = tree.GetNode(node_id, ctx);
  ctx.CountNode(node.IsLeaf());
  if (node.IsLeaf()) {
    ctx.CountVerified(node.Count());
    uint64_t matched = 0;
    for (size_t i = 0; i < node.Count(); ++i) {
      const EntryView entry = node.EntryAt(i);
      if (!sig::Empty(entry.sig) && sig::Contains(query, entry.sig)) {
        result->push_back(entry.ref);
        ++matched;
      }
    }
    ctx.CountResults(matched);
    ctx.CountFalseDrops(node.Count() - matched);
    return;
  }
  ctx.CountBounds(node.Count());
  for (size_t i = 0; i < node.Count(); ++i) {
    const EntryView entry = node.EntryAt(i);
    // A non-empty subset of the query must share at least one item with
    // the subtree's coverage — the only (weak) pruning available.
    if (sig::IntersectCount(entry.sig, query) > 0) {
      ctx.CountDescended(1);
      SubsetRecurse(tree, static_cast<PageId>(entry.ref), query, result, ctx);
    } else {
      ctx.CountPruned(1);
    }
  }
}

}  // namespace

Neighbor DfsNearest(const SgTree& tree, const Signature& query,
                    const QueryContext& ctx) {
  auto result = DfsKNearest(tree, query, 1, ctx);
  if (result.empty()) {
    return {0, std::numeric_limits<double>::infinity()};
  }
  return result.front();
}

std::vector<Neighbor> DfsKNearest(const SgTree& tree, const Signature& query,
                                  uint32_t k, const QueryContext& ctx,
                                  SharedPruneBound* shared) {
  NeighborHeap heap(k);
  if (tree.root() != kInvalidPageId && k > 0) {
    DfsKnnRecurse(tree, tree.root(), query, &heap, ctx, shared);
  }
  std::vector<Neighbor> result = std::move(heap).Sorted();
  ctx.CountResults(result.size());
  return result;
}

std::vector<Neighbor> BestFirstKNearest(const SgTree& tree,
                                        const Signature& query, uint32_t k,
                                        const QueryContext& ctx,
                                        SharedPruneBound* shared) {
  NeighborHeap heap(k);
  if (tree.root() == kInvalidPageId || k == 0) {
    return std::move(heap).Sorted();
  }
  const Metric metric = tree.options().metric;

  struct QueueItem {
    double bound;
    PageId node;
  };
  auto cmp = [](const QueueItem& a, const QueueItem& b) {
    return a.bound > b.bound;
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>, decltype(cmp)> queue(
      cmp);
  queue.push({0.0, tree.root()});
  bool at_root = true;  // The root is enqueued without a signature test.
  while (!queue.empty()) {
    const QueueItem item = queue.top();
    queue.pop();
    if (item.bound > PruneTau(heap, shared)) {
      // Optimal stopping condition (boundary-tied nodes are still visited
      // for canonical tie resolution). This item and everything left in the
      // queue was tested and enqueued but will never be visited.
      ctx.CountPruned(1 + queue.size());
      break;
    }
    if (at_root) {
      at_root = false;
    } else {
      ctx.CountDescended(1);
    }
    const NodeView node = tree.GetNode(item.node, ctx);
    ctx.CountNode(node.IsLeaf());
    if (node.IsLeaf()) {
      ctx.CountVerified(node.Count());
      for (size_t i = 0; i < node.Count(); ++i) {
        const EntryView entry = node.EntryAt(i);
        heap.Offer({entry.ref, DistanceOf(query, entry.sig, metric)});
      }
      if (shared != nullptr) shared->PublishMin(heap.Tau());
      continue;
    }
    ctx.CountBounds(node.Count());
    const auto [lo, hi] = tree.TransactionAreaBounds();
    for (size_t i = 0; i < node.Count(); ++i) {
      const EntryView entry = node.EntryAt(i);
      const double bound =
          MinDistBoundAreaStatsOf(query, entry.sig, metric, lo, hi);
      if (bound <= PruneTau(heap, shared)) {
        queue.push({bound, static_cast<PageId>(entry.ref)});
      } else {
        ctx.CountPruned(1);
      }
    }
  }
  std::vector<Neighbor> result = std::move(heap).Sorted();
  ctx.CountResults(result.size());
  return result;
}

std::vector<Neighbor> RangeSearch(const SgTree& tree, const Signature& query,
                                  double epsilon, const QueryContext& ctx) {
  std::vector<Neighbor> result;
  if (tree.root() != kInvalidPageId) {
    RangeRecurse(tree, tree.root(), query, epsilon, &result, ctx);
  }
  std::sort(result.begin(), result.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.tid < b.tid;
            });
  return result;
}

std::vector<uint64_t> ContainmentSearch(const SgTree& tree,
                                        const Signature& query,
                                        const QueryContext& ctx) {
  std::vector<uint64_t> result;
  if (tree.root() != kInvalidPageId) {
    ContainRecurse(tree, tree.root(), query, /*exact=*/false, &result, ctx);
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<uint64_t> ExactSearch(const SgTree& tree, const Signature& query,
                                  const QueryContext& ctx) {
  std::vector<uint64_t> result;
  if (tree.root() != kInvalidPageId) {
    ContainRecurse(tree, tree.root(), query, /*exact=*/true, &result, ctx);
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<uint64_t> SubsetSearch(const SgTree& tree, const Signature& query,
                                   const QueryContext& ctx) {
  std::vector<uint64_t> result;
  if (tree.root() != kInvalidPageId) {
    SubsetRecurse(tree, tree.root(), query, &result, ctx);
  }
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace sgtree
