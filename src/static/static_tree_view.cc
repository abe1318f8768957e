#include "static/static_tree_view.h"

#include <cstring>

#include "common/bit_ops.h"
#include "common/crc32.h"
#include "sgtree/node.h"

namespace sgtree {

namespace {

namespace sf = static_format;

bool Fail(std::string* error, const std::string& reason) {
  if (error != nullptr) *error = reason;
  return false;
}

}  // namespace

bool StaticTreeView::Init(const uint8_t* data, size_t size,
                          const StaticOpenOptions& options,
                          std::string* error) {
  // The magic is read as soon as it is there, before the header-size
  // check: a short foreign file is named foreign, not truncated, and an
  // empty tree's SGTREE01 file is only 45 bytes.
  if (size >= sizeof(sf::kMagic)) {
    if (std::memcmp(data, sf::kRetiredSnapshotMagic,
                    sizeof(sf::kRetiredSnapshotMagic)) == 0) {
      return Fail(error,
                  "retired SGTREE01 snapshot format; rebuild the index to "
                  "write a static image");
    }
    if (std::memcmp(data + sf::kMagicOffset, sf::kMagic,
                    sizeof(sf::kMagic)) != 0) {
      return Fail(error, "not a static SG-tree (bad magic)");
    }
  }
  if (size < sf::kHeaderSize) {
    return Fail(error, "truncated file (no header)");
  }
  const uint32_t header_crc = sf::LoadU32(data + sf::kHeaderCrcOffset);
  if (Crc32c(data, sf::kHeaderCrcOffset) != header_crc) {
    return Fail(error, "header checksum mismatch");
  }
  const uint32_t version = sf::LoadU32(data + sf::kVersionOffset);
  if (version != sf::kVersion) {
    return Fail(error, "unsupported static format version " +
                           std::to_string(version));
  }
  const uint32_t flags = sf::LoadU32(data + sf::kFlagsOffset);
  if (flags != 0) {
    return Fail(error, "unsupported format flags");
  }

  num_bits_ = sf::LoadU32(data + sf::kNumBitsOffset);
  max_entries_ = sf::LoadU32(data + sf::kMaxEntriesOffset);
  height_ = sf::LoadU32(data + sf::kHeightOffset);
  const uint32_t root = sf::LoadU32(data + sf::kRootOffset);
  size_ = sf::LoadU64(data + sf::kSizeOffset);
  node_count_ = sf::LoadU64(data + sf::kNodeCountOffset);
  const uint64_t index_offset = sf::LoadU64(data + sf::kIndexOffsetOffset);
  const uint64_t nodes_offset = sf::LoadU64(data + sf::kNodesOffsetOffset);
  file_size_ = sf::LoadU64(data + sf::kFileSizeOffset);
  area_lo_ = sf::LoadU32(data + sf::kAreaLoOffset);
  area_hi_ = sf::LoadU32(data + sf::kAreaHiOffset);

  if (file_size_ != size) {
    // A short body is a truncated file, and says so.
    const std::string prefix = size < file_size_ ? "truncated file: " : "";
    return Fail(error, prefix + "file size mismatch (header says " +
                           std::to_string(file_size_) + ", file has " +
                           std::to_string(size) + " bytes)");
  }
  if (num_bits_ == 0 || num_bits_ > sf::kMaxNumBits) {
    return Fail(error, "invalid signature width " +
                           std::to_string(num_bits_));
  }
  // A capacity below 2 leaves no legal minimum fill (m <= M/2, m >= 1),
  // and one above kMaxNodeEntries no 16-bit count for an overflowing node,
  // so no tree, and no builder, can have one.
  if (max_entries_ < 2 || max_entries_ > kMaxNodeEntries) {
    return Fail(error, "invalid node capacity " +
                           std::to_string(max_entries_));
  }
  if (index_offset != sf::kHeaderSize) {
    return Fail(error, "malformed header (index offset)");
  }
  // All arithmetic stays in uint64_t, guarded against overflow by the cap
  // on node_count derivable from the file size itself.
  if (node_count_ > (size - sf::kHeaderSize) / 8) {
    return Fail(error, "malformed header (node count exceeds file)");
  }
  if (nodes_offset != sf::kHeaderSize + node_count_ * 8) {
    return Fail(error, "malformed header (nodes offset)");
  }
  if (node_count_ == 0) {
    if (root != sf::kInvalidRoot || height_ != 0 || size_ != 0) {
      return Fail(error, "malformed header (empty tree with root)");
    }
  } else {
    if (root != 0) {
      // BFS order puts the root first; anything else is not our builder's
      // output and breaks the acyclicity argument below.
      return Fail(error, "malformed header (root is not node 0)");
    }
  }

  if (options.verify_checksums) {
    const uint32_t body_crc = sf::LoadU32(data + sf::kBodyCrcOffset);
    if (Crc32c(data + sf::kHeaderSize, size - sf::kHeaderSize) != body_crc) {
      return Fail(error, "body checksum mismatch (file is corrupt)");
    }
  }

  // Structural walk: after this loop every node record is known to lie
  // in bounds with a sane entry count, so query-time access never needs a
  // bounds check.
  const uint64_t words = WordsForBits(num_bits_);
  index_ = reinterpret_cast<const uint64_t*>(data + sf::kHeaderSize);
  std::vector<uint16_t> levels(node_count_, 0);
  std::vector<uint32_t> counts(node_count_, 0);
  for (uint64_t i = 0; i < node_count_; ++i) {
    const uint64_t off = index_[i];
    if (off % 8 != 0) {
      return Fail(error, "node " + std::to_string(i) +
                             ": misaligned record offset");
    }
    if (off < nodes_offset || off + 8 > size) {
      return Fail(error, "node " + std::to_string(i) +
                             ": record offset out of bounds");
    }
    const NodeView node(reinterpret_cast<const uint64_t*>(data + off),
                        num_bits_);
    const uint16_t level = node.level();
    const uint32_t count = node.Count();
    if (count > max_entries_) {
      return Fail(error, "node " + std::to_string(i) +
                             ": entry count exceeds capacity");
    }
    if (NodeRecordWords(count, words) * 8 > size - off) {
      return Fail(error, "node " + std::to_string(i) +
                             ": record extends past end of file");
    }
    levels[i] = level;
    counts[i] = count;
  }

  // Tree shape: the root carries the height; every directory entry points
  // strictly forward (acyclic by construction) one level down; every
  // non-root node has exactly one parent. Together these make the node set
  // a single tree rooted at node 0.
  std::vector<uint8_t> in_degree(node_count_, 0);
  uint64_t leaf_entries = 0;
  for (uint64_t i = 0; i < node_count_; ++i) {
    const NodeView node{reinterpret_cast<const uint64_t*>(data + index_[i]),
                        num_bits_};
    if (node.IsLeaf()) {
      leaf_entries += counts[i];
      continue;
    }
    for (uint32_t e = 0; e < counts[i]; ++e) {
      const uint64_t child = node.EntryAt(e).ref;
      if (child >= node_count_ || child <= i) {
        return Fail(error, "node " + std::to_string(i) +
                               ": child reference out of order");
      }
      if (levels[child] + 1 != levels[i]) {
        return Fail(error, "node " + std::to_string(i) +
                               ": child level mismatch");
      }
      if (in_degree[child] != 0) {
        return Fail(error, "node " + std::to_string(child) +
                               ": multiple parents");
      }
      in_degree[child] = 1;
    }
  }
  for (uint64_t i = 1; i < node_count_; ++i) {
    if (in_degree[i] == 0) {
      return Fail(error, "node " + std::to_string(i) + ": unreachable");
    }
  }
  if (node_count_ > 0) {
    if (static_cast<uint32_t>(levels[0]) + 1 != height_) {
      return Fail(error, "malformed header (height does not match root)");
    }
  }
  if (leaf_entries != size_) {
    return Fail(error, "transaction count mismatch (header says " +
                           std::to_string(size_) + ", leaves hold " +
                           std::to_string(leaf_entries) + ")");
  }

  // Runtime options: adopt the file's width when the caller left it unset,
  // insist on agreement otherwise; the node capacity always comes from the
  // file.
  options_ = options.tree;
  if (options_.num_bits == 0) options_.num_bits = num_bits_;
  if (options_.num_bits != num_bits_) {
    return Fail(error, "signature width mismatch (file has " +
                           std::to_string(num_bits_) + " bits)");
  }
  options_.max_entries = max_entries_;

  data_ = data;
  if (error != nullptr) error->clear();
  return true;
}

std::unique_ptr<StaticTreeView> StaticTreeView::Open(
    Env* env, const std::string& path, const StaticOpenOptions& options,
    std::string* error) {
  std::unique_ptr<FileMapping> mapping = env->MapReadOnly(path);
  if (mapping == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return nullptr;
  }
  std::unique_ptr<StaticTreeView> view(new StaticTreeView());
  std::string reason;
  if (!view->Init(mapping->data(), mapping->size(), options, &reason)) {
    if (error != nullptr) *error = path + ": " + reason;
    return nullptr;
  }
  view->mapping_ = std::move(mapping);
  return view;
}

std::unique_ptr<StaticTreeView> StaticTreeView::OpenFromBytes(
    const uint8_t* data, size_t size, const StaticOpenOptions& options,
    std::string* error) {
  std::unique_ptr<StaticTreeView> view(new StaticTreeView());
  // Copy into an owned word buffer so validated reads are always aligned,
  // whatever the caller's buffer alignment.
  view->owned_words_.assign((size + sizeof(uint64_t) - 1) / sizeof(uint64_t),
                            0);
  if (size > 0) {
    std::memcpy(view->owned_words_.data(), data, size);
  }
  if (!view->Init(reinterpret_cast<const uint8_t*>(view->owned_words_.data()),
                  size, options, error)) {
    return nullptr;
  }
  return view;
}

}  // namespace sgtree
