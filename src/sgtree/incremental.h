#ifndef SGTREE_SGTREE_INCREMENTAL_H_
#define SGTREE_SGTREE_INCREMENTAL_H_

#include <optional>
#include <queue>
#include <vector>

#include "baseline/linear_scan.h"
#include "sgtree/sg_tree.h"

namespace sgtree {

/// Incremental nearest-neighbor iteration ("distance browsing", Hjaltason
/// & Samet TODS'99 — the paper's reference [15] for the optimal search).
/// Yields the indexed transactions in ascending distance from the query,
/// expanding tree nodes lazily: fetching the first few neighbors of a
/// large collection touches only a handful of nodes, and the caller can
/// stop at any point — the natural building block for "give me results
/// until I say stop" interfaces and for all-ties NN semantics.
///
/// The iterator holds a reference to the tree; it must not outlive it, and
/// the tree must not be modified while iterating.
class NearestIterator {
 public:
  /// Node accesses are charged to `ctx` (see search.h), each node at most
  /// once per iterator; a pool in `ctx` only matters to keep a buffer warm
  /// across iterators.
  NearestIterator(const SgTree& tree, Signature query,
                  const QueryContext& ctx = {});

  /// The next closest transaction, or nullopt when exhausted. Equal
  /// distances are yielded in ascending tid order.
  std::optional<Neighbor> Next();

  /// Lower bound on the distance of whatever Next() would return, without
  /// advancing (infinity when exhausted).
  double PeekDistance();

 private:
  struct Item {
    double key;          // Exact distance (entries) or lower bound (nodes).
    bool is_entry;
    uint64_t ref;        // Tid for entries, PageId for nodes.

    // Min-queue order: smaller key first; at equal key expand nodes before
    // yielding entries (a node may still contain an equal-distance, lower-
    // tid transaction), then ascending tid.
    bool operator>(const Item& other) const {
      if (key != other.key) return key > other.key;
      if (is_entry != other.is_entry) return is_entry && !other.is_entry;
      return ref > other.ref;
    }
  };

  void ExpandUntilEntryOnTop();

  const SgTree& tree_;
  Signature query_;
  QueryContext ctx_;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue_;
};

/// All nearest neighbors that tie at the minimum distance (the paper's
/// Section 4.1 "all nearest neighbors with the same minimum distance"
/// variant), in ascending tid order. Empty for an empty tree.
std::vector<Neighbor> AllNearest(const SgTree& tree, const Signature& query,
                                 const QueryContext& ctx = {});

}  // namespace sgtree

#endif  // SGTREE_SGTREE_INCREMENTAL_H_
