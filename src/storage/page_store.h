#ifndef SGTREE_STORAGE_PAGE_STORE_H_
#define SGTREE_STORAGE_PAGE_STORE_H_

#include <cstdint>
#include <vector>

#include "storage/page.h"

namespace sgtree {

/// The simulated in-memory disk under an SgTree: a growable array of page
/// slots with a free list. The tree uses it as its page-id allocator — node
/// payloads stay decoded in memory and I/O is charged through the
/// BufferPool. Payloads are capped at the page size.
class MemPageStore {
 public:
  explicit MemPageStore(uint32_t page_size = kDefaultPageSize)
      : page_size_(page_size) {}

  MemPageStore(const MemPageStore&) = delete;
  MemPageStore& operator=(const MemPageStore&) = delete;
  MemPageStore(MemPageStore&&) = default;
  MemPageStore& operator=(MemPageStore&&) = default;

  uint32_t page_size() const { return page_size_; }

  /// Allocates a page (reusing freed ids first) and returns its id.
  PageId Allocate();

  /// Marks a specific id live, allocating slots as needed (ids skipped over
  /// become free pages). Returns false if already live. The thaw uses this
  /// to rebuild a tree whose page ids equal the image's node indexes.
  bool Reserve(PageId id);

  /// Returns a page to the free list. The id may be reused by Allocate.
  void Free(PageId id);

  /// Stores `payload` into page `id`. Returns false if it does not fit in
  /// one page or the id is invalid or freed.
  bool Write(PageId id, std::vector<uint8_t> payload);

  /// Reads the payload of page `id`. Returns false for invalid/freed ids.
  bool Read(PageId id, std::vector<uint8_t>* payload) const;

  /// Number of live (allocated, not freed) pages.
  uint32_t LivePages() const;

  /// Total allocated page slots including freed ones.
  uint32_t TotalPages() const { return static_cast<uint32_t>(pages_.size()); }

 private:
  struct Slot {
    std::vector<uint8_t> payload;
    bool live = false;
  };

  uint32_t page_size_;
  std::vector<Slot> pages_;
  std::vector<PageId> free_list_;
};

}  // namespace sgtree

#endif  // SGTREE_STORAGE_PAGE_STORE_H_
