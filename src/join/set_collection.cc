#include "join/set_collection.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/signature_ops.h"

namespace sgtree {
namespace {

// Sorts the parallel arrays by tid without copying the item vectors twice.
void SortByTid(SetCollection* collection) {
  const size_t n = collection->size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return collection->tids[x] < collection->tids[y];
  });
  std::vector<uint64_t> tids(n);
  std::vector<std::vector<ItemId>> items(n);
  for (size_t i = 0; i < n; ++i) {
    tids[i] = collection->tids[order[i]];
    items[i] = std::move(collection->items[order[i]]);
  }
  collection->tids = std::move(tids);
  collection->items = std::move(items);
}

void WalkLeaves(const SgTree& tree, const QueryContext& ctx, PageId id,
                SetCollection* out) {
  const NodeView node = tree.GetNode(id, ctx);
  ctx.CountNode(node.IsLeaf());
  if (node.IsLeaf()) {
    for (const EntryView entry : node) {
      out->tids.push_back(entry.ref);
      out->items.push_back(sig::Items(entry.sig));
    }
    return;
  }
  for (const EntryView entry : node) {
    WalkLeaves(tree, ctx, static_cast<PageId>(entry.ref), out);
  }
}

}  // namespace

SetCollection SetCollection::FromDataset(const Dataset& dataset) {
  SetCollection out;
  out.num_bits = dataset.num_items;
  out.tids.reserve(dataset.size());
  out.items.reserve(dataset.size());
  for (const Transaction& txn : dataset.transactions) {
    out.tids.push_back(txn.tid);
    std::vector<ItemId> items = txn.items;
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    out.items.push_back(std::move(items));
  }
  SortByTid(&out);
  return out;
}

SetCollection SetCollection::FromTree(const SgTree& tree,
                                      const QueryContext& ctx) {
  SetCollection out;
  out.num_bits = tree.num_bits();
  out.tids.reserve(tree.size());
  out.items.reserve(tree.size());
  if (tree.root() != kInvalidPageId) {
    WalkLeaves(tree, ctx, tree.root(), &out);
  }
  SortByTid(&out);
  return out;
}

}  // namespace sgtree
