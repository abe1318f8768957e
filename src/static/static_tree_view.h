#ifndef SGTREE_STATIC_STATIC_TREE_VIEW_H_
#define SGTREE_STATIC_STATIC_TREE_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bit_ops.h"
#include "common/signature.h"
#include "durability/env.h"
#include "sgtree/node.h"
#include "sgtree/options.h"
#include "static/static_format.h"
#include "storage/page.h"
#include "storage/query_context.h"

namespace sgtree {

struct StaticOpenOptions {
  /// Runtime tree options (metric, area-stats switches, buffer pages...).
  /// num_bits 0 adopts the file's width; a non-zero width must match it.
  /// max_entries is always adopted from the file.
  SgTreeOptions tree;

  /// Verify the body CRC over the whole image at open. Structural
  /// validation (offsets, levels, reachability) always runs regardless, so
  /// an opened view can never index out of bounds — disabling this only
  /// skips the whole-file checksum pass for faster cold starts.
  bool verify_checksums = true;
};

/// Read-only, zero-copy view of a static SG-tree image (static_format.h).
///
/// Open() maps the file through Env::MapReadOnly — a true mmap under the
/// POSIX env, a read-into-aligned-buffer fallback under wrapping envs — and
/// validates the image before the first query can touch it. The view
/// implements the read surface of SgTree (root / GetNode / options /
/// TransactionAreaBounds), so the templated search cores run against it
/// unchanged, and node indexes double as PageIds: charging them to a
/// query's buffer pool reproduces the dynamic tree's LRU behavior exactly.
///
/// A fully validated view is immutable and safe to share across any number
/// of concurrent query threads without synchronization.
class StaticTreeView {
 public:
  /// Opens and validates `path`. Returns nullptr with `*error` set (when
  /// non-null) to "path: reason" on failure.
  static std::unique_ptr<StaticTreeView> Open(Env* env,
                                              const std::string& path,
                                              const StaticOpenOptions& options,
                                              std::string* error);

  /// Validates an in-memory image, copying it into an owned aligned buffer.
  /// Error reasons are bare (no path prefix). Used by tests and the fuzz
  /// harness.
  static std::unique_ptr<StaticTreeView> OpenFromBytes(
      const uint8_t* data, size_t size, const StaticOpenOptions& options,
      std::string* error);

  PageId root() const {
    return root_ == static_format::kInvalidRoot ? kInvalidPageId
                                                : static_cast<PageId>(root_);
  }

  /// The node's record, read in place: the same NodeView the dynamic tree
  /// returns, over the same record layout (sgtree/node.h).
  NodeView GetNode(PageId id, const QueryContext& ctx) const {
    ctx.ChargeRead(id);
    return GetNodeNoCharge(id);
  }

  NodeView GetNodeNoCharge(PageId id) const {
    return {reinterpret_cast<const uint64_t*>(data_ + index_[id]),
            num_bits_};
  }

  const SgTreeOptions& options() const { return options_; }

  /// Same resolution the dynamic tree applies (fixed dimensionality, then
  /// the stored area window under use_area_stats, then the generic bound).
  std::pair<uint32_t, uint32_t> TransactionAreaBounds() const;

  uint32_t num_bits() const { return num_bits_; }
  uint32_t max_entries() const { return max_entries_; }
  uint32_t min_entries() const { return options_.ResolvedMinEntries(); }
  uint32_t height() const { return height_; }
  uint64_t size() const { return size_; }
  uint64_t node_count() const { return node_count_; }
  uint64_t file_size() const { return file_size_; }
  /// The area window as stored in the header, before any resolution.
  std::pair<uint32_t, uint32_t> stored_area_window() const {
    return {area_lo_, area_hi_};
  }

  /// Every node index below node_count(): an image has no free nodes.
  std::vector<PageId> LiveNodes() const;

  /// True when the bytes are served from an actual memory mapping rather
  /// than a private buffer.
  bool zero_copy() const {
    return mapping_ != nullptr && mapping_->zero_copy();
  }

 private:
  StaticTreeView() = default;

  /// Parses + validates the image and fills the member fields; `data` must
  /// be 8-byte aligned. Returns false with a bare one-line reason.
  bool Init(const uint8_t* data, size_t size, const StaticOpenOptions& options,
            std::string* error);

  std::unique_ptr<FileMapping> mapping_;  // Open() path.
  std::vector<uint64_t> owned_words_;     // OpenFromBytes() path.
  const uint8_t* data_ = nullptr;
  size_t data_size_ = 0;
  const uint64_t* index_ = nullptr;  // node_count_ file offsets.

  SgTreeOptions options_;
  uint32_t num_bits_ = 0;
  uint32_t max_entries_ = 0;
  uint32_t height_ = 0;
  uint32_t root_ = static_format::kInvalidRoot;
  uint64_t size_ = 0;
  uint64_t node_count_ = 0;
  uint64_t file_size_ = 0;
  uint32_t area_lo_ = 0;
  uint32_t area_hi_ = 0;
};

}  // namespace sgtree

#endif  // SGTREE_STATIC_STATIC_TREE_VIEW_H_
