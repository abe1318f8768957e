#include "join/fvt_join.h"

#include <algorithm>
#include <numeric>

namespace sgtree {
namespace {

// Mutable trie used during construction; flattened into FvtTrie's
// pointer-free arrays once the shape is final.
struct BuildNode {
  ItemId item = 0;
  std::vector<std::pair<ItemId, uint32_t>> children;  // Sorted by item.
  std::vector<uint32_t> ends;  // S rows terminating exactly here.
};

}  // namespace

FvtTrie::FvtTrie(const SetCollection& s) : s_(&s) {
  std::vector<BuildNode> build(1);  // Root.
  for (uint32_t row = 0; row < s.size(); ++row) {
    uint32_t node = 0;
    for (const ItemId item : s.items[row]) {
      auto& children = build[node].children;
      const auto it = std::lower_bound(
          children.begin(), children.end(), item,
          [](const std::pair<ItemId, uint32_t>& child, ItemId value) {
            return child.first < value;
          });
      if (it != children.end() && it->first == item) {
        node = it->second;
      } else {
        const uint32_t child = static_cast<uint32_t>(build.size());
        build[node].children.insert(it, {item, child});
        build.emplace_back();
        build.back().item = item;
        node = child;
      }
    }
    build[node].ends.push_back(row);
  }

  // Preorder flatten: a node's subtree rows are its own ends followed by
  // its children's, so every subtree is one contiguous slice. Each node's
  // child block is reserved before recursing so it stays contiguous, and
  // filled with the children's final indices as the recursion returns.
  nodes_.reserve(build.size());
  children_.reserve(build.size() - 1);
  subtree_ends_.reserve(s.size());
  auto flatten = [&](auto&& self, uint32_t b) -> uint32_t {
    const uint32_t idx = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();
    nodes_[idx].item = build[b].item;
    nodes_[idx].ends_begin = static_cast<uint32_t>(subtree_ends_.size());
    subtree_ends_.insert(subtree_ends_.end(), build[b].ends.begin(),
                         build[b].ends.end());
    const uint32_t block = static_cast<uint32_t>(children_.size());
    nodes_[idx].children_begin = block;
    nodes_[idx].children_end =
        block + static_cast<uint32_t>(build[b].children.size());
    children_.resize(children_.size() + build[b].children.size());
    for (size_t c = 0; c < build[b].children.size(); ++c) {
      children_[block + c] = self(self, build[b].children[c].second);
    }
    nodes_[idx].ends_end = static_cast<uint32_t>(subtree_ends_.size());
    return idx;
  };
  flatten(flatten, 0);
}

FvtJoinBackend::FvtJoinBackend(const SetCollection& r, const FvtTrie& s)
    : r_(&r), s_(&s) {
  probe_order_.resize(r.size());
  std::iota(probe_order_.begin(), probe_order_.end(), 0u);
  // Identical sets adjacent (ties keep row order): duplicates share one
  // trie descent in Run.
  std::stable_sort(probe_order_.begin(), probe_order_.end(),
                   [&](uint32_t x, uint32_t y) {
                     return r.items[x] < r.items[y];
                   });
}

std::string FvtJoinBackend::SupportReason(const JoinRequest& request) const {
  if (request.type == JoinType::kSimilarity) {
    return "fvt is a containment-only join; use the tree backend for "
           "similarity joins";
  }
  return std::string();
}

void FvtJoinBackend::Probe(uint32_t node_idx, std::span<const ItemId> probe,
                           size_t matched, const QueryContext& ctx,
                           std::vector<uint32_t>* hits) const {
  const FvtTrie::NodeRec& node = s_->node(node_idx);
  ctx.CountNode(node.children_begin == node.children_end);
  if (matched == probe.size()) {
    // Every set at or below this node extends the fully-matched path, so
    // the whole preorder slice joins — candidate-free emission.
    const std::span<const uint32_t> ends = s_->SubtreeEnds(node);
    hits->insert(hits->end(), ends.begin(), ends.end());
    return;
  }
  const ItemId want = probe[matched];
  for (const uint32_t child_idx : s_->Children(node)) {
    const ItemId item = s_->node(child_idx).item;
    ctx.CountBounds(1);
    if (item > want) {
      // Path items ascend: no set below any later child contains `want`.
      ctx.CountPruned(1);
      break;
    }
    ctx.CountDescended(1);
    Probe(child_idx, probe, matched + (item == want ? 1 : 0), ctx, hits);
  }
}

bool FvtJoinBackend::Run(const JoinRequest& /*request*/,
                         const QueryContext& ctx, JoinSink* sink) const {
  const SetCollection& s = s_->collection();
  std::vector<uint32_t> hits;
  size_t i = 0;
  while (i < probe_order_.size()) {
    const uint32_t first_row = probe_order_[i];
    const std::vector<ItemId>& probe = r_->items[first_row];
    size_t group_end = i + 1;
    while (group_end < probe_order_.size() &&
           r_->items[probe_order_[group_end]] == probe) {
      ++group_end;
    }
    hits.clear();
    Probe(0, probe, 0, ctx, &hits);
    const double gap_base = static_cast<double>(probe.size());
    for (; i < group_end; ++i) {
      const uint32_t r_row = probe_order_[i];
      for (const uint32_t s_row : hits) {
        ctx.CountVerified(1);
        ctx.CountResults(1);
        const double gap =
            static_cast<double>(s.items[s_row].size()) - gap_base;
        if (!sink->OnPair({r_->tids[r_row], s.tids[s_row], gap})) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace sgtree
