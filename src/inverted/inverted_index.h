#ifndef SGTREE_INVERTED_INVERTED_INDEX_H_
#define SGTREE_INVERTED_INVERTED_INDEX_H_

#include <cstdint>
#include <vector>

#include "baseline/linear_scan.h"
#include "data/transaction.h"
#include "storage/page.h"
#include "storage/query_context.h"

namespace sgtree {

/// Inverted-file index over set data: one posting list (ascending tids) per
/// item. This is the comparator the paper's related work points at —
/// Helmer & Moerkotte [14] show that set *equality and subset/superset*
/// queries are best processed by inverted files, while the SG-tree is the
/// structure of choice for *similarity* search. Implemented here so the
/// benchmark harness can demonstrate both halves of that claim.
///
/// Queries supported:
///  - Superset (containment): transactions containing every query item =
///    intersection of the query items' posting lists (shortest first).
///  - Subset: transactions contained in the query = transactions whose
///    occurrence count over the query's posting lists equals their size.
///  - Hamming NN / k-NN / range: exact, via overlap-count accumulation over
///    the query's posting lists; transactions sharing no item are covered
///    by the |q| + |t| fallback using the size-sorted transaction list.
///
/// I/O accounting: reading item i's posting list costs
/// ceil(bytes / page_size) random I/Os, 8 bytes per posting.
class InvertedIndex {
 public:
  explicit InvertedIndex(const Dataset& dataset,
                         uint32_t page_size = kDefaultPageSize);

  /// Appends a transaction (posting lists stay sorted as tids grow; out-of-
  /// order tids are inserted in position).
  void Insert(const Transaction& txn);

  size_t size() const { return sizes_.size(); }
  uint32_t num_items() const {
    return static_cast<uint32_t>(postings_.size());
  }

  // Every query fills the context's QueryTrace: posting lists count as
  // leaf nodes, their simulated page reads as buffer misses, and candidate
  // accumulation as verification (the index has no signature pruning, so
  // the subtree counters stay zero).

  /// Transactions containing every item of `query_items` (sorted tids).
  std::vector<uint64_t> Containing(const std::vector<ItemId>& query_items,
                                   const QueryContext& ctx = {}) const;

  /// Non-empty transactions whose items are all in `query_items`.
  std::vector<uint64_t> ContainedIn(const std::vector<ItemId>& query_items,
                                    const QueryContext& ctx = {}) const;

  /// Exact Hamming k-NN, ascending (distance, tid).
  std::vector<Neighbor> KNearest(const std::vector<ItemId>& query_items,
                                 uint32_t k,
                                 const QueryContext& ctx = {}) const;

  /// Exact Hamming range query, ascending (distance, tid).
  std::vector<Neighbor> Range(const std::vector<ItemId>& query_items,
                              double epsilon,
                              const QueryContext& ctx = {}) const;

 private:
  struct SizeEntry {
    uint32_t size;
    uint64_t tid;
    bool operator<(const SizeEntry& other) const {
      return size != other.size ? size < other.size : tid < other.tid;
    }
  };

  /// Dense tid -> index mapping is not assumed; candidates are accumulated
  /// in a hash map keyed by tid.
  void ChargeList(ItemId item, const QueryContext& ctx) const;

  uint32_t page_size_;
  std::vector<std::vector<uint64_t>> postings_;  // Per item, sorted tids.
  std::vector<uint64_t> tids_;                   // Insertion order.
  std::vector<uint32_t> sizes_;                  // Parallel to tids_.
  std::vector<SizeEntry> by_size_;               // Sorted by (size, tid).
};

}  // namespace sgtree

#endif  // SGTREE_INVERTED_INVERTED_INDEX_H_
