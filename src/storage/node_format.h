#ifndef SGTREE_STORAGE_NODE_FORMAT_H_
#define SGTREE_STORAGE_NODE_FORMAT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/signature.h"

namespace sgtree {

/// Storage-neutral image of one SG-tree node in the paper's §3.2 page
/// layout. No file stores it: the §3.2 ablation (bench_ablation_choices)
/// measures the encoding on a tree's nodes, and the fuzzers exercise it.
/// `ref` is a child PageId for directory entries and a transaction id for
/// leaf entries.
struct NodeRecord {
  uint16_t level = 0;  // 0 = leaf.
  std::vector<std::pair<uint64_t, Signature>> entries;
};

/// On-page node layout:
///   uint16 level | uint16 num_entries | entries...
/// Each entry: uint64 ref (little endian) followed by the signature encoding
/// (dense always when `compress` is false; adaptive sparse/dense otherwise,
/// Section 3.2).
void EncodeNode(const NodeRecord& record, bool compress,
                std::vector<uint8_t>* out);

/// Decodes a node image produced by EncodeNode. Returns false on malformed
/// input. `num_bits` is the tree-wide signature width (stored once in the
/// tree header, not per node). When `consumed` is non-null it receives the
/// number of bytes the decoder read, so callers (the invariant auditor, the
/// fuzz harnesses) can reject images with trailing garbage.
bool DecodeNode(const std::vector<uint8_t>& data, uint32_t num_bits,
                NodeRecord* record, size_t* consumed = nullptr);

/// Exact size EncodeNode would produce.
size_t EncodedNodeSize(const NodeRecord& record, bool compress);

/// Bytes one entry occupies on a page without compression. Used to derive
/// the node capacity from the page size.
size_t UncompressedEntrySize(uint32_t num_bits);

}  // namespace sgtree

#endif  // SGTREE_STORAGE_NODE_FORMAT_H_
