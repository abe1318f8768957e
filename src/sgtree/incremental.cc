#include "sgtree/incremental.h"

#include <limits>
#include <utility>

#include "common/distance.h"

namespace sgtree {

NearestIterator::NearestIterator(const SgTree& tree, Signature query,
                                 const QueryContext& ctx)
    : tree_(tree), query_(std::move(query)), ctx_(ctx) {
  if (tree_.root() != kInvalidPageId) {
    queue_.push(Item{0.0, false, tree_.root()});
  }
}

void NearestIterator::ExpandUntilEntryOnTop() {
  const Metric metric = tree_.options().metric;
  const auto [area_lo, area_hi] = tree_.TransactionAreaBounds();
  while (!queue_.empty() && !queue_.top().is_entry) {
    const Item item = queue_.top();
    queue_.pop();
    const NodeView node = tree_.GetNode(static_cast<PageId>(item.ref), ctx_);
    ctx_.CountNode(node.IsLeaf());
    if (node.IsLeaf()) {
      ctx_.CountVerified(node.Count());
      for (const EntryView entry : node) {
        queue_.push(
            Item{DistanceOf(query_, entry.sig, metric), true, entry.ref});
      }
    } else {
      ctx_.CountBounds(node.Count());
      for (const EntryView entry : node) {
        queue_.push(Item{MinDistBoundAreaStatsOf(query_, entry.sig, metric,
                                                 area_lo, area_hi),
                         false, entry.ref});
      }
    }
  }
}

std::optional<Neighbor> NearestIterator::Next() {
  ExpandUntilEntryOnTop();
  if (queue_.empty()) return std::nullopt;
  const Item item = queue_.top();
  queue_.pop();
  return Neighbor{item.ref, item.key};
}

double NearestIterator::PeekDistance() {
  ExpandUntilEntryOnTop();
  return queue_.empty() ? std::numeric_limits<double>::infinity()
                        : queue_.top().key;
}

std::vector<Neighbor> AllNearest(const SgTree& tree, const Signature& query,
                                 const QueryContext& ctx) {
  std::vector<Neighbor> result;
  NearestIterator it(tree, query, ctx);
  const auto first = it.Next();
  if (!first.has_value()) return result;
  result.push_back(*first);
  // Drain every tie at the minimum distance.
  while (it.PeekDistance() == first->distance) {
    result.push_back(*it.Next());
  }
  return result;
}

}  // namespace sgtree
