#ifndef SGTREE_BASELINE_LINEAR_SCAN_H_
#define SGTREE_BASELINE_LINEAR_SCAN_H_

#include <cstdint>
#include <vector>

#include "common/distance.h"
#include "common/signature.h"
#include "data/transaction.h"
#include "storage/query_context.h"

namespace sgtree {

/// A query answer: a transaction id with its exact distance to the query.
struct Neighbor {
  uint64_t tid = 0;
  double distance = 0;

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

/// Exact sequential-scan index. Serves as ground truth for the tests and as
/// the "no index" comparator in the benchmarks. It materializes one
/// signature per transaction and answers every query by a full scan.
class LinearScan {
 public:
  /// Builds signatures for all transactions of `dataset`.
  explicit LinearScan(const Dataset& dataset);

  uint32_t num_bits() const { return num_bits_; }
  size_t size() const { return signatures_.size(); }

  // Every query fills the context's QueryTrace: a full scan verifies every
  // transaction (no nodes, no pruning — the honest baseline trace).

  /// The single nearest neighbor (lowest tid wins ties).
  Neighbor Nearest(const Signature& query, Metric metric = Metric::kHamming,
                   const QueryContext& ctx = {}) const;

  /// The k nearest neighbors, ascending distance, ties by tid.
  std::vector<Neighbor> KNearest(const Signature& query, uint32_t k,
                                 Metric metric = Metric::kHamming,
                                 const QueryContext& ctx = {}) const;

  /// All transactions within distance `epsilon`, ascending distance.
  std::vector<Neighbor> Range(const Signature& query, double epsilon,
                              Metric metric = Metric::kHamming,
                              const QueryContext& ctx = {}) const;

  /// All transactions whose item set contains every item of `query`.
  std::vector<uint64_t> Containing(const Signature& query,
                                   const QueryContext& ctx = {}) const;

  /// All non-empty transactions whose item set is a subset of `query`.
  std::vector<uint64_t> ContainedIn(const Signature& query,
                                    const QueryContext& ctx = {}) const;

 private:
  uint32_t num_bits_ = 0;
  std::vector<uint64_t> tids_;
  std::vector<Signature> signatures_;
};

}  // namespace sgtree

#endif  // SGTREE_BASELINE_LINEAR_SCAN_H_
