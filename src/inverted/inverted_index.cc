#include "inverted/inverted_index.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "common/check.h"

namespace sgtree {

InvertedIndex::InvertedIndex(const Dataset& dataset, uint32_t page_size)
    : page_size_(page_size), postings_(dataset.num_items) {
  for (const Transaction& txn : dataset.transactions) {
    Insert(txn);
  }
}

void InvertedIndex::Insert(const Transaction& txn) {
  for (ItemId item : txn.items) {
    SGTREE_ASSERT(item < postings_.size());
    auto& list = postings_[item];
    if (list.empty() || list.back() < txn.tid) {
      list.push_back(txn.tid);
    } else {
      list.insert(std::lower_bound(list.begin(), list.end(), txn.tid),
                  txn.tid);
    }
  }
  tids_.push_back(txn.tid);
  sizes_.push_back(static_cast<uint32_t>(txn.items.size()));
  const SizeEntry entry{static_cast<uint32_t>(txn.items.size()), txn.tid};
  by_size_.insert(std::lower_bound(by_size_.begin(), by_size_.end(), entry),
                  entry);
}

void InvertedIndex::ChargeList(ItemId item, const QueryContext& ctx) const {
  ctx.CountNode(/*leaf=*/true);
  const uint64_t bytes = 8 * postings_[item].size();
  ctx.ChargeSimulatedIo(std::max<uint64_t>(1, (bytes + page_size_ - 1) /
                                                  page_size_));
}

std::vector<uint64_t> InvertedIndex::Containing(
    const std::vector<ItemId>& query_items, const QueryContext& ctx) const {
  if (query_items.empty()) {
    std::vector<uint64_t> all = tids_;
    std::sort(all.begin(), all.end());
    return all;
  }
  // Intersect starting from the shortest posting list.
  ItemId shortest = query_items.front();
  for (ItemId item : query_items) {
    if (postings_[item].size() < postings_[shortest].size()) {
      shortest = item;
    }
  }
  for (ItemId item : query_items) ChargeList(item, ctx);

  std::vector<uint64_t> result;
  for (uint64_t tid : postings_[shortest]) {
    bool in_all = true;
    for (ItemId item : query_items) {
      if (item == shortest) continue;
      const auto& list = postings_[item];
      if (!std::binary_search(list.begin(), list.end(), tid)) {
        in_all = false;
        break;
      }
    }
    if (in_all) result.push_back(tid);
  }
  ctx.CountVerified(postings_[shortest].size());
  ctx.CountResults(result.size());
  ctx.CountFalseDrops(postings_[shortest].size() - result.size());
  return result;  // Already ascending (shortest list is sorted).
}

std::vector<uint64_t> InvertedIndex::ContainedIn(
    const std::vector<ItemId>& query_items, const QueryContext& ctx) const {
  // Count, per candidate, how many of its items fall inside the query; a
  // transaction is a subset iff all of its items do.
  std::unordered_map<uint64_t, uint32_t> hits;
  for (ItemId item : query_items) {
    ChargeList(item, ctx);
    for (uint64_t tid : postings_[item]) ++hits[tid];
  }
  ctx.CountVerified(hits.size());

  std::unordered_map<uint64_t, uint32_t> size_of;
  size_of.reserve(tids_.size());
  for (size_t i = 0; i < tids_.size(); ++i) size_of[tids_[i]] = sizes_[i];

  std::vector<uint64_t> result;
  for (const auto& [tid, count] : hits) {
    if (count == size_of[tid]) result.push_back(tid);
  }
  std::sort(result.begin(), result.end());
  ctx.CountResults(result.size());
  ctx.CountFalseDrops(hits.size() - result.size());
  return result;
}

std::vector<Neighbor> InvertedIndex::KNearest(
    const std::vector<ItemId>& query_items, uint32_t k,
    const QueryContext& ctx) const {
  std::vector<Neighbor> heap;  // Max-heap under less.
  auto less = [](const Neighbor& a, const Neighbor& b) {
    return a.distance != b.distance ? a.distance < b.distance : a.tid < b.tid;
  };
  auto tau = [&]() {
    return heap.size() < k ? std::numeric_limits<double>::infinity()
                           : heap.front().distance;
  };
  auto offer = [&](const Neighbor& candidate) {
    if (heap.size() < k) {
      heap.push_back(candidate);
      std::push_heap(heap.begin(), heap.end(), less);
    } else if (less(candidate, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), less);
      heap.back() = candidate;
      std::push_heap(heap.begin(), heap.end(), less);
    }
  };
  if (k == 0 || tids_.empty()) return heap;

  // Phase 1: overlap accumulation over the query's posting lists.
  std::unordered_map<uint64_t, uint32_t> overlap;
  for (ItemId item : query_items) {
    ChargeList(item, ctx);
    for (uint64_t tid : postings_[item]) ++overlap[tid];
  }
  std::unordered_map<uint64_t, uint32_t> size_of;
  size_of.reserve(tids_.size());
  for (size_t i = 0; i < tids_.size(); ++i) size_of[tids_[i]] = sizes_[i];

  const auto q_size = static_cast<double>(query_items.size());
  for (const auto& [tid, common] : overlap) {
    offer({tid, q_size + size_of[tid] - 2.0 * common});
  }
  ctx.CountVerified(overlap.size());

  // Phase 2: transactions sharing nothing with the query have distance
  // |q| + |t|; walk them in ascending size until they cannot improve.
  for (const SizeEntry& entry : by_size_) {
    const double d = q_size + entry.size;
    // Strict comparison: distance ties must still be offered so the
    // (distance, tid) tie-break matches the linear scan exactly.
    if (d > tau()) break;
    if (overlap.count(entry.tid) != 0) continue;
    offer({entry.tid, d});
    ctx.CountVerified(1);
  }

  std::sort(heap.begin(), heap.end(), less);
  ctx.CountResults(heap.size());
  return heap;
}

std::vector<Neighbor> InvertedIndex::Range(
    const std::vector<ItemId>& query_items, double epsilon,
    const QueryContext& ctx) const {
  std::vector<Neighbor> result;
  std::unordered_map<uint64_t, uint32_t> overlap;
  for (ItemId item : query_items) {
    ChargeList(item, ctx);
    for (uint64_t tid : postings_[item]) ++overlap[tid];
  }
  std::unordered_map<uint64_t, uint32_t> size_of;
  size_of.reserve(tids_.size());
  for (size_t i = 0; i < tids_.size(); ++i) size_of[tids_[i]] = sizes_[i];

  const auto q_size = static_cast<double>(query_items.size());
  uint64_t matched = 0;
  for (const auto& [tid, common] : overlap) {
    const double d = q_size + size_of[tid] - 2.0 * common;
    if (d <= epsilon) {
      result.push_back({tid, d});
      ++matched;
    }
  }
  ctx.CountVerified(overlap.size());
  ctx.CountFalseDrops(overlap.size() - matched);
  for (const SizeEntry& entry : by_size_) {
    const double d = q_size + entry.size;
    if (d > epsilon) break;
    if (overlap.count(entry.tid) != 0) continue;
    result.push_back({entry.tid, d});
    ++matched;
    ctx.CountVerified(1);
  }
  ctx.CountResults(matched);
  std::sort(result.begin(), result.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.tid < b.tid;
            });
  return result;
}

}  // namespace sgtree
