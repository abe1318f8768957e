#ifndef SGTREE_STORAGE_BUFFER_POOL_H_
#define SGTREE_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "storage/io_stats.h"
#include "storage/page.h"

namespace sgtree {

/// LRU buffer-pool simulator with exact random-I/O accounting.
///
/// The SG-tree keeps decoded nodes in memory (laptop-scale reproduction) but
/// can route node accesses through this pool: an access to a page that is
/// not among the `capacity` most-recently-used pages is charged as one
/// random I/O, exactly what the same access pattern would cost a paginated
/// on-disk tree with an LRU buffer of that many frames. Capacity 0 disables
/// buffering (every access is an I/O). Single queries need no pool — they
/// read no page twice, so a context without one charges the same cold-cache
/// cost (see QueryContext); the pool serves where pages are read again: the
/// tree's update path, the warm-buffer experiment and the tree joins.
///
/// The recency list is an intrusive doubly-linked list threaded through a
/// flat frame array: all frames live in one contiguous allocation sized at
/// construction, and moving a page to the front is three index swaps with no
/// allocation or pointer chasing — roughly twice as fast as the previous
/// std::list implementation, and the layout one would use for a real frame
/// table. Not thread-safe by design: every pool is thread-private — a
/// tree's own pool, a join's per-run pools, or one a caller brings to
/// Execute — so no access ever needs a latch.
class BufferPool {
 public:
  explicit BufferPool(uint32_t capacity);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  uint32_t capacity() const { return capacity_; }

  /// Records an access to `id`. Returns true on a buffer hit.
  bool Touch(PageId id);

  /// Records a write of `id` (also makes the page resident).
  void TouchWrite(PageId id);

  /// Drops `id` from the buffer (page freed).
  void Evict(PageId id);

  /// Empties the buffer (but keeps cumulative stats).
  void Clear();

  /// Changes the number of frames; shrinking evicts LRU pages.
  void Resize(uint32_t capacity);

  const IoStats& stats() const { return stats_; }
  IoStats* mutable_stats() { return &stats_; }

  uint32_t ResidentPages() const {
    return static_cast<uint32_t>(index_.size());
  }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Frame {
    PageId page = kInvalidPageId;
    uint32_t prev = kNil;
    uint32_t next = kNil;
  };

  /// Makes `id` resident in a free or recycled frame at the list head.
  void Insert(PageId id);
  /// Unlinks frame `f` from the recency list.
  void Unlink(uint32_t f);
  /// Links frame `f` at the head (MRU end) of the recency list.
  void LinkFront(uint32_t f);
  /// Evicts the tail (LRU) frame and returns its index for reuse.
  uint32_t EvictTail();

  uint32_t capacity_;
  IoStats stats_;
  std::vector<Frame> frames_;  // Flat frame table, size == capacity_.
  uint32_t head_ = kNil;       // MRU frame index.
  uint32_t tail_ = kNil;       // LRU frame index.
  uint32_t free_head_ = kNil;  // Free frames chained through Frame::next.
  std::unordered_map<PageId, uint32_t> index_;  // page -> frame index.
};

}  // namespace sgtree

#endif  // SGTREE_STORAGE_BUFFER_POOL_H_
