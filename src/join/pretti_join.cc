#include "join/pretti_join.h"

#include <algorithm>

namespace sgtree {
namespace {

const std::vector<uint32_t> kEmptyPosting;

}  // namespace

InvertedPostings::InvertedPostings(const SetCollection& s) : s_(&s) {
  postings_.resize(s.num_bits);
  for (uint32_t row = 0; row < s.size(); ++row) {
    for (const ItemId item : s.items[row]) {
      if (item >= postings_.size()) postings_.resize(item + size_t{1});
      postings_[item].push_back(row);
    }
  }
}

const std::vector<uint32_t>& InvertedPostings::Posting(ItemId item) const {
  if (item >= postings_.size()) return kEmptyPosting;
  return postings_[item];
}

size_t InvertedPostings::Frequency(ItemId item) const {
  return Posting(item).size();
}

PrettiJoinBackend::PrettiJoinBackend(const SetCollection& r,
                                     const InvertedPostings& s)
    : r_(&r), s_(&s) {
  nodes_.emplace_back();  // Root.
  std::vector<ItemId> path;
  for (uint32_t row = 0; row < r.size(); ++row) {
    // Rarest-in-S first: the first posting intersection is the smallest,
    // and every refinement can only shrink it. Ties break on item id so
    // identical sets deterministically share one path.
    path = r.items[row];
    std::sort(path.begin(), path.end(), [&](ItemId x, ItemId y) {
      const size_t fx = s.Frequency(x);
      const size_t fy = s.Frequency(y);
      if (fx != fy) return fx < fy;
      return x < y;
    });
    uint32_t node = 0;
    for (const ItemId item : path) {
      auto& children = nodes_[node].children;
      const auto it = std::lower_bound(
          children.begin(), children.end(), item,
          [](const std::pair<ItemId, uint32_t>& child, ItemId value) {
            return child.first < value;
          });
      if (it != children.end() && it->first == item) {
        node = it->second;
      } else {
        const uint32_t child = static_cast<uint32_t>(nodes_.size());
        nodes_[node].children.insert(it, {item, child});
        nodes_.emplace_back();
        nodes_.back().item = item;
        node = child;
      }
    }
    nodes_[node].ends.push_back(row);
  }
}

std::string PrettiJoinBackend::SupportReason(const JoinRequest& request) const {
  if (request.type == JoinType::kSimilarity) {
    return "pretti is a containment-only join; use the tree backend for "
           "similarity joins";
  }
  return std::string();
}

bool PrettiJoinBackend::Walk(uint32_t node_idx,
                             const std::vector<uint32_t>& candidates,
                             size_t depth, const QueryContext& ctx,
                             JoinSink* sink,
                             std::vector<std::vector<uint32_t>>* scratch) const {
  const TrieNode& node = nodes_[node_idx];
  ctx.CountNode(!node.ends.empty());
  const SetCollection& s = s_->collection();
  for (const uint32_t r_row : node.ends) {
    const double gap_base = static_cast<double>(r_->items[r_row].size());
    for (const uint32_t s_row : candidates) {
      ctx.CountVerified(1);
      ctx.CountResults(1);
      const double gap =
          static_cast<double>(s.items[s_row].size()) - gap_base;
      if (!sink->OnPair({r_->tids[r_row], s.tids[s_row], gap})) return false;
    }
  }
  for (const auto& [item, child] : node.children) {
    // One descend-or-prune decision per trie edge: intersect the surviving
    // candidates with the item's posting list (a simulated posting read).
    ctx.CountBounds(1);
    ctx.ChargeSimulatedIo(1);
    const std::vector<uint32_t>& posting = s_->Posting(item);
    // `scratch` was sized to the trie depth up front; growing it here would
    // move the inner vectors and dangle the caller's `candidates` reference.
    std::vector<uint32_t>& next = (*scratch)[depth];
    next.clear();
    std::set_intersection(candidates.begin(), candidates.end(),
                          posting.begin(), posting.end(),
                          std::back_inserter(next));
    if (next.empty()) {
      ctx.CountPruned(1);
      continue;
    }
    ctx.CountDescended(1);
    if (!Walk(child, next, depth + 1, ctx, sink, scratch)) return false;
  }
  return true;
}

bool PrettiJoinBackend::Run(const JoinRequest& /*request*/,
                            const QueryContext& ctx, JoinSink* sink) const {
  // Root candidates: every S row (the empty prefix is contained anywhere).
  std::vector<uint32_t> all(s_->collection().size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
  size_t max_depth = 0;
  for (const std::vector<ItemId>& items : r_->items) {
    max_depth = std::max(max_depth, items.size());
  }
  // One intersection buffer per trie level, sized once — Walk holds
  // references into this across recursion.
  std::vector<std::vector<uint32_t>> scratch(max_depth);
  return Walk(0, all, 0, ctx, sink, &scratch);
}

}  // namespace sgtree
