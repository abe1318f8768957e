#include "storage/buffer_pool.h"

#include <algorithm>

#include "common/check.h"

namespace sgtree {

BufferPool::BufferPool(uint32_t capacity) : capacity_(capacity) {
  frames_.resize(capacity_);
  for (uint32_t f = 0; f < capacity_; ++f) {
    frames_[f].next = f + 1 < capacity_ ? f + 1 : kNil;
  }
  free_head_ = capacity_ > 0 ? 0 : kNil;
  index_.reserve(capacity_);
}

bool BufferPool::Touch(PageId id) {
  auto it = index_.find(id);
  if (it != index_.end()) {
    const uint32_t f = it->second;
    if (f != head_) {
      Unlink(f);
      LinkFront(f);
    }
    return true;
  }
  Insert(id);
  return false;
}

void BufferPool::Evict(PageId id) {
  auto it = index_.find(id);
  if (it == index_.end()) return;
  const uint32_t f = it->second;
  index_.erase(it);
  Unlink(f);
  frames_[f].page = kInvalidPageId;
  frames_[f].next = free_head_;
  free_head_ = f;
}

void BufferPool::Clear() {
  index_.clear();
  head_ = tail_ = kNil;
  for (uint32_t f = 0; f < capacity_; ++f) {
    frames_[f].page = kInvalidPageId;
    frames_[f].prev = kNil;
    frames_[f].next = f + 1 < capacity_ ? f + 1 : kNil;
  }
  free_head_ = capacity_ > 0 ? 0 : kNil;
}

void BufferPool::Resize(uint32_t capacity) {
  // Snapshot resident pages MRU-first, then rebuild the frame table at the
  // new size and re-insert the survivors. Resize only happens in benchmark
  // setup, so simplicity beats in-place surgery.
  std::vector<PageId> resident;
  resident.reserve(index_.size());
  for (uint32_t f = head_; f != kNil; f = frames_[f].next) {
    resident.push_back(frames_[f].page);
  }
  capacity_ = capacity;
  frames_.assign(capacity_, Frame{});
  Clear();
  // Insert LRU-first so the MRU-first snapshot ends up in original order,
  // dropping the oldest pages when shrinking.
  const size_t keep = std::min<size_t>(resident.size(), capacity_);
  for (size_t i = keep; i-- > 0;) {
    Insert(resident[i]);
  }
}

void BufferPool::Insert(PageId id) {
  if (capacity_ == 0) return;
  uint32_t f;
  if (free_head_ != kNil) {
    f = free_head_;
    free_head_ = frames_[f].next;
  } else {
    f = EvictTail();
  }
  frames_[f].page = id;
  LinkFront(f);
  index_[id] = f;
}

void BufferPool::Unlink(uint32_t f) {
  Frame& frame = frames_[f];
  if (frame.prev != kNil) {
    frames_[frame.prev].next = frame.next;
  } else {
    head_ = frame.next;
  }
  if (frame.next != kNil) {
    frames_[frame.next].prev = frame.prev;
  } else {
    tail_ = frame.prev;
  }
  frame.prev = frame.next = kNil;
}

void BufferPool::LinkFront(uint32_t f) {
  Frame& frame = frames_[f];
  frame.prev = kNil;
  frame.next = head_;
  if (head_ != kNil) frames_[head_].prev = f;
  head_ = f;
  if (tail_ == kNil) tail_ = f;
}

uint32_t BufferPool::EvictTail() {
  SGTREE_ASSERT(tail_ != kNil);
  const uint32_t f = tail_;
  index_.erase(frames_[f].page);
  Unlink(f);
  frames_[f].page = kInvalidPageId;
  return f;
}

}  // namespace sgtree
