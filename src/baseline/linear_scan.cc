#include "baseline/linear_scan.h"

#include <algorithm>
#include <cstddef>
#include <limits>

namespace sgtree {

LinearScan::LinearScan(const Dataset& dataset) : num_bits_(dataset.num_items) {
  tids_.reserve(dataset.transactions.size());
  signatures_.reserve(dataset.transactions.size());
  for (const Transaction& txn : dataset.transactions) {
    tids_.push_back(txn.tid);
    signatures_.push_back(Signature::FromItems(txn.items, num_bits_));
  }
}

Neighbor LinearScan::Nearest(const Signature& query, Metric metric,
                             const QueryContext& ctx) const {
  Neighbor best{0, std::numeric_limits<double>::infinity()};
  for (size_t i = 0; i < signatures_.size(); ++i) {
    const double d = Distance(query, signatures_[i], metric);
    if (d < best.distance || (d == best.distance && tids_[i] < best.tid)) {
      best = {tids_[i], d};
    }
  }
  ctx.CountVerified(signatures_.size());
  ctx.CountResults(signatures_.empty() ? 0 : 1);
  return best;
}

std::vector<Neighbor> LinearScan::KNearest(const Signature& query, uint32_t k,
                                           Metric metric,
                                           const QueryContext& ctx) const {
  std::vector<Neighbor> all;
  all.reserve(signatures_.size());
  for (size_t i = 0; i < signatures_.size(); ++i) {
    all.push_back({tids_[i], Distance(query, signatures_[i], metric)});
  }
  ctx.CountVerified(signatures_.size());
  const size_t keep = std::min<size_t>(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(keep),
                    all.end(),
                    [](const Neighbor& a, const Neighbor& b) {
                      return a.distance != b.distance
                                 ? a.distance < b.distance
                                 : a.tid < b.tid;
                    });
  all.resize(keep);
  ctx.CountResults(all.size());
  return all;
}

std::vector<Neighbor> LinearScan::Range(const Signature& query, double epsilon,
                                        Metric metric,
                                        const QueryContext& ctx) const {
  std::vector<Neighbor> result;
  for (size_t i = 0; i < signatures_.size(); ++i) {
    const double d = Distance(query, signatures_[i], metric);
    if (d <= epsilon) result.push_back({tids_[i], d});
  }
  ctx.CountVerified(signatures_.size());
  ctx.CountResults(result.size());
  ctx.CountFalseDrops(signatures_.size() - result.size());
  std::sort(result.begin(), result.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.tid < b.tid;
            });
  return result;
}

std::vector<uint64_t> LinearScan::Containing(const Signature& query,
                                             const QueryContext& ctx) const {
  std::vector<uint64_t> result;
  for (size_t i = 0; i < signatures_.size(); ++i) {
    if (signatures_[i].Contains(query)) result.push_back(tids_[i]);
  }
  std::sort(result.begin(), result.end());
  ctx.CountVerified(signatures_.size());
  ctx.CountResults(result.size());
  ctx.CountFalseDrops(signatures_.size() - result.size());
  return result;
}

std::vector<uint64_t> LinearScan::ContainedIn(const Signature& query,
                                              const QueryContext& ctx) const {
  std::vector<uint64_t> result;
  for (size_t i = 0; i < signatures_.size(); ++i) {
    if (!signatures_[i].Empty() && query.Contains(signatures_[i])) {
      result.push_back(tids_[i]);
    }
  }
  std::sort(result.begin(), result.end());
  ctx.CountVerified(signatures_.size());
  ctx.CountResults(result.size());
  ctx.CountFalseDrops(signatures_.size() - result.size());
  return result;
}

}  // namespace sgtree
