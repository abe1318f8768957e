#ifndef SGTREE_STORAGE_QUERY_CONTEXT_H_
#define SGTREE_STORAGE_QUERY_CONTEXT_H_

#include <cstdint>

#include "obs/query_trace.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace sgtree {

/// Per-query execution context: where node accesses are buffered and where
/// the per-query counters accumulate. Search functions take one of these
/// instead of mutating state owned by a const tree, which is what makes a
/// const SgTree genuinely thread-safe to read — concurrent queries each
/// bring their own context, with a private pool and a private trace.
///
/// Both pointers may be null: a null `pool` charges every read as a miss,
/// a null `trace` skips the counters. The no-pool rule is the paper's
/// per-query cold buffer: each search (sgtree/search.cc) and
/// NearestIterator reads a node at most once per query — every node has
/// one parent, and best-first search enqueues each child once — so a
/// cleared pool of any size would miss on every read too. A pool is only
/// worth passing where pages are read again: across queries (the
/// warm-buffer experiment) or within a join. ChargeRead is the one place a
/// read is counted, and the Count*/Charge* helpers below are the single
/// place the search code reports through — a default-constructed context
/// makes every one of them a no-op, which is the "metrics off" mode the
/// differential tests compare against.
struct QueryContext {
  BufferPool* pool = nullptr;
  QueryTrace* trace = nullptr;

  /// Charges one page read. With a pool it touches the pool and records
  /// the hit/miss split; without one every read is a miss. Either way
  /// trace->buffer_misses is this query's random I/O count.
  void ChargeRead(PageId id) const {
    if (pool != nullptr) {
      const bool hit = pool->Touch(id);
      if (trace != nullptr) ++(hit ? trace->buffer_hits : trace->buffer_misses);
    } else if (trace != nullptr) {
      ++trace->buffer_misses;
    }
  }

  /// Charges `pages` random I/Os without a pool — the simulated multi-page
  /// bucket/posting-list reads of the table and inverted backends. Every
  /// page counts as a miss (those backends model no buffer).
  void ChargeSimulatedIo(uint64_t pages) const {
    if (trace != nullptr) trace->buffer_misses += pages;
  }

  /// One node (or bucket / posting list) was read and examined.
  void CountNode(bool leaf) const {
    if (trace != nullptr) {
      ++(leaf ? trace->leaf_nodes_visited : trace->dir_nodes_visited);
    }
  }

  /// `n` entry signatures had a descend-or-prune bound/predicate computed.
  void CountBounds(uint64_t n) const {
    if (trace != nullptr) trace->signatures_tested += n;
  }

  /// `n` leaf candidates had their exact distance/predicate evaluated.
  void CountVerified(uint64_t n) const {
    if (trace != nullptr) trace->candidates_verified += n;
  }

  void CountDescended(uint64_t n) const {
    if (trace != nullptr) trace->subtrees_descended += n;
  }
  void CountPruned(uint64_t n) const {
    if (trace != nullptr) trace->subtrees_pruned += n;
  }
  void CountFalseDrops(uint64_t n) const {
    if (trace != nullptr) trace->false_drops += n;
  }
  void CountResults(uint64_t n) const {
    if (trace != nullptr) trace->results += n;
  }
};

}  // namespace sgtree

#endif  // SGTREE_STORAGE_QUERY_CONTEXT_H_
