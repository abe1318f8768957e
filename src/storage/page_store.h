#ifndef SGTREE_STORAGE_PAGE_STORE_H_
#define SGTREE_STORAGE_PAGE_STORE_H_

#include <cstdint>
#include <vector>

#include "storage/page.h"

namespace sgtree {

/// Abstract store of variable-payload pages with a free list. Payloads are
/// capped at the page size; callers that need the raw bytes of a node image
/// go through a page store (persistence does), while the hot path keeps
/// decoded nodes in memory and charges I/O through the BufferPool.
///
/// Implementations:
///   * MemPageStore (below)            — the simulated in-memory disk;
///   * FilePageStore (durability/)     — real file-backed slotted pages with
///     checksums, the checkpoint target of the durable tree;
///   * FaultInjectingPageStore (durability/) — wrapper injecting
///     deterministic write/read faults for crash testing.
class PageStoreInterface {
 public:
  virtual ~PageStoreInterface() = default;

  virtual uint32_t page_size() const = 0;

  /// Allocates a page (reusing freed ids first) and returns its id.
  virtual PageId Allocate() = 0;

  /// Marks a specific id live, allocating backing space as needed (ids
  /// skipped over become free pages). Returns false if already live or the
  /// id cannot be materialized. Recovery uses this to rebuild a store whose
  /// page ids must match the ones recorded in the log.
  virtual bool Reserve(PageId id) = 0;

  /// Returns a page to the free list. The id may be reused by Allocate.
  virtual void Free(PageId id) = 0;

  /// Stores `payload` into page `id`. The payload must fit in one page.
  /// Returns false if it does not, or if the id is invalid/freed, or on
  /// I/O failure.
  virtual bool Write(PageId id, std::vector<uint8_t> payload) = 0;

  /// Reads the payload of page `id`. Returns false for invalid/freed ids
  /// and (file-backed stores) for pages whose checksum does not match.
  virtual bool Read(PageId id, std::vector<uint8_t>* payload) const = 0;

  /// Number of live (allocated, not freed) pages.
  virtual uint32_t LivePages() const = 0;

  /// Total allocated page slots including freed ones.
  virtual uint32_t TotalPages() const = 0;
};

/// The simulated in-memory disk: a growable array of page slots. This is
/// the default store under an SgTree (pure id allocator — node payloads
/// stay decoded in memory).
class MemPageStore final : public PageStoreInterface {
 public:
  explicit MemPageStore(uint32_t page_size = kDefaultPageSize)
      : page_size_(page_size) {}

  MemPageStore(const MemPageStore&) = delete;
  MemPageStore& operator=(const MemPageStore&) = delete;

  uint32_t page_size() const override { return page_size_; }
  PageId Allocate() override;
  bool Reserve(PageId id) override;
  void Free(PageId id) override;
  bool Write(PageId id, std::vector<uint8_t> payload) override;
  bool Read(PageId id, std::vector<uint8_t>* payload) const override;
  uint32_t LivePages() const override;
  uint32_t TotalPages() const override {
    return static_cast<uint32_t>(pages_.size());
  }

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
