#include "sgtable/sg_table.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

#include "storage/codec.h"

namespace sgtree {

SgTable::SgTable(const Dataset& dataset, const SgTableOptions& options)
    : options_(options), num_bits_(dataset.num_items) {
  CooccurrenceMatrix matrix(dataset, options_.cooccurrence_sample);
  groups_ = ClusterItems(matrix, options_.clustering);
  SGTREE_ASSERT_MSG(groups_.size() <= 64, "activation codes are 64-bit");
  group_bitmaps_.reserve(groups_.size());
  for (const VerticalSignature& group : groups_) {
    group_bitmaps_.push_back(Signature::FromItems(group.items, num_bits_));
  }
  for (const Transaction& txn : dataset.transactions) {
    Insert(txn);
  }
}

void SgTable::Insert(const Transaction& txn) {
  const Signature sig = Signature::FromItems(txn.items, num_bits_);
  Bucket& bucket = buckets_[ActivationCode(sig)];
  // Charge the uncompressed record size, matching the SG-tree's
  // uncompressed page layout so the I/O comparison is apples-to-apples.
  bucket.bytes += 8 + DenseEncodedSize(sig.num_bits());
  bucket.signatures.push_back(sig);
  bucket.tids.push_back(txn.tid);
  ++size_;
}

uint64_t SgTable::ActivationCode(const Signature& sig) const {
  uint64_t code = 0;
  for (size_t i = 0; i < group_bitmaps_.size(); ++i) {
    if (Signature::IntersectCount(sig, group_bitmaps_[i]) >=
        options_.activation_threshold) {
      code |= uint64_t{1} << i;
    }
  }
  return code;
}

double SgTable::BucketBound(const Signature& query, uint64_t code) const {
  // For each vertical signature V_i with x_i = |q AND V_i|, a transaction t
  // in this bucket has |t AND V_i| >= theta when bit i is set and <= theta-1
  // otherwise. The Hamming distance restricted to the (disjoint) item group
  // V_i is at least | x_i - |t AND V_i| |, minimized over the allowed range:
  //   bit = 1:  max(0, theta - x_i)
  //   bit = 0:  max(0, x_i - (theta - 1))
  // Summing over groups gives the optimistic bucket bound of Section 2.2.1.
  const auto theta = static_cast<int64_t>(options_.activation_threshold);
  int64_t bound = 0;
  for (size_t i = 0; i < group_bitmaps_.size(); ++i) {
    const auto x = static_cast<int64_t>(
        Signature::IntersectCount(query, group_bitmaps_[i]));
    if ((code >> i) & 1) {
      bound += std::max<int64_t>(0, theta - x);
    } else {
      bound += std::max<int64_t>(0, x - (theta - 1));
    }
  }
  return static_cast<double>(bound);
}

std::vector<SgTable::BoundedBucket> SgTable::SortedBuckets(
    const Signature& query, const QueryContext& ctx) const {
  std::vector<BoundedBucket> order;
  order.reserve(buckets_.size());
  for (const auto& [code, bucket] : buckets_) {
    order.push_back({BucketBound(query, code), &bucket});
  }
  ctx.CountBounds(order.size());
  std::sort(order.begin(), order.end(),
            [](const BoundedBucket& a, const BoundedBucket& b) {
              return a.bound < b.bound;
            });
  return order;
}

void SgTable::ChargeBucketRead(const Bucket& bucket,
                               const QueryContext& ctx) const {
  ctx.CountNode(/*leaf=*/true);
  ctx.CountVerified(bucket.signatures.size());
  // A bucket occupies ceil(bytes / page) pages on disk; reading it costs
  // that many random I/Os (at least one).
  ctx.ChargeSimulatedIo(
      std::max<uint64_t>(1, (bucket.bytes + options_.page_size - 1) /
                                options_.page_size));
}

Neighbor SgTable::Nearest(const Signature& query,
                          const QueryContext& ctx) const {
  auto result = KNearest(query, 1, ctx);
  if (result.empty()) {
    return {0, std::numeric_limits<double>::infinity()};
  }
  return result.front();
}

std::vector<Neighbor> SgTable::KNearest(const Signature& query, uint32_t k,
                                        const QueryContext& ctx) const {
  std::vector<Neighbor> heap;  // Max-heap under Less.
  auto less = [](const Neighbor& a, const Neighbor& b) {
    return a.distance != b.distance ? a.distance < b.distance : a.tid < b.tid;
  };
  auto tau = [&]() {
    return heap.size() < k ? std::numeric_limits<double>::infinity()
                           : heap.front().distance;
  };
  if (k == 0) return heap;

  const std::vector<BoundedBucket> order = SortedBuckets(query, ctx);
  for (size_t bi = 0; bi < order.size(); ++bi) {
    const BoundedBucket& bb = order[bi];
    // Buckets are in ascending bound order: once the bound reaches the k-th
    // best distance no remaining bucket can improve the result.
    if (bb.bound >= tau()) {
      ctx.CountPruned(order.size() - bi);
      break;
    }
    ctx.CountDescended(1);
    ChargeBucketRead(*bb.bucket, ctx);
    for (size_t i = 0; i < bb.bucket->signatures.size(); ++i) {
      const double d =
          Distance(query, bb.bucket->signatures[i], Metric::kHamming);
      const Neighbor candidate{bb.bucket->tids[i], d};
      if (heap.size() < k) {
        heap.push_back(candidate);
        std::push_heap(heap.begin(), heap.end(), less);
      } else if (less(candidate, heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), less);
        heap.back() = candidate;
        std::push_heap(heap.begin(), heap.end(), less);
      }
    }
  }
  std::sort(heap.begin(), heap.end(), less);
  ctx.CountResults(heap.size());
  return heap;
}

std::vector<Neighbor> SgTable::Range(const Signature& query, double epsilon,
                                     const QueryContext& ctx) const {
  std::vector<Neighbor> result;
  const std::vector<BoundedBucket> order = SortedBuckets(query, ctx);
  for (size_t bi = 0; bi < order.size(); ++bi) {
    const BoundedBucket& bb = order[bi];
    if (bb.bound > epsilon) {
      ctx.CountPruned(order.size() - bi);
      break;
    }
    ctx.CountDescended(1);
    ChargeBucketRead(*bb.bucket, ctx);
    uint64_t matched = 0;
    for (size_t i = 0; i < bb.bucket->signatures.size(); ++i) {
      const double d =
          Distance(query, bb.bucket->signatures[i], Metric::kHamming);
      if (d <= epsilon) {
        result.push_back({bb.bucket->tids[i], d});
        ++matched;
      }
    }
    ctx.CountResults(matched);
    ctx.CountFalseDrops(bb.bucket->signatures.size() - matched);
  }
  std::sort(result.begin(), result.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.tid < b.tid;
            });
  return result;
}

}  // namespace sgtree
