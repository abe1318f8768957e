#ifndef SGTREE_STATIC_STATIC_FORMAT_H_
#define SGTREE_STATIC_STATIC_FORMAT_H_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace sgtree {
namespace static_format {

/// On-disk layout of the immutable static SG-tree image (version 1).
///
/// All integers are little-endian with explicit widths. Every structure is
/// 8-byte aligned so a mapped image can be read through aligned uint64_t
/// pointers (the zero-copy contract of Env::FileMapping).
///
///   offset  size  field
///   ------  ----  -----------------------------------------------------
///        0     8  magic "SGSTATIC"
///        8     4  u32 version            (= 1)
///       12     4  u32 flags              (= 0: signatures are dense; an
///                                         image with any flag set is
///                                         refused)
///       16     4  u32 num_bits           signature width W in bits
///       20     4  u32 max_entries        node capacity M (2 .. 65534,
///                                         kMaxNodeEntries in sgtree/node.h)
///       24     4  u32 height             0 for an empty tree
///       28     4  u32 root               node index, 0xffffffff = empty
///       32     8  u64 size               indexed transactions
///       40     8  u64 node_count
///       48     8  u64 index_offset       (= 88)
///       56     8  u64 nodes_offset       (= 88 + node_count * 8)
///       64     8  u64 file_size
///       72     4  u32 area_lo            resolved transaction-area window
///       76     4  u32 area_hi            (see SgTree::TransactionAreaBounds)
///       80     4  u32 body_crc32         CRC-32C of bytes [88, file_size)
///       84     4  u32 header_crc32       CRC-32C of bytes [0, 84)
///
/// The node index at `index_offset` is node_count u64 absolute file offsets,
/// one per node, in BFS order from the root (the root is node 0; every
/// child's index is strictly greater than its parent's, so reachability
/// implies acyclicity). Each node record at its offset is one node record
/// in the layout sgtree/node.h defines, the same records the dynamic tree
/// keeps in memory:
///
///   u16 level (0 = leaf), u16 count, u32 reserved (0),
///   then count entries of: u64 ref, then ceil(W/64) u64 signature words.
///
/// Directory entries' `ref` is the child's node index; leaf entries' `ref`
/// is the transaction id. Node indexes double as the PageIds the search
/// layer charges to a query's buffer pool, preserving the dynamic tree's
/// LRU hit/miss pattern node for node.
inline constexpr char kMagic[8] = {'S', 'G', 'S', 'T', 'A', 'T', 'I', 'C'};
/// Magic of the retired SGTREE01 snapshot format, which had no checksum.
/// The reader recognizes it only to refuse it with a reason.
inline constexpr char kRetiredSnapshotMagic[8] = {'S', 'G', 'T', 'R',
                                                  'E', 'E', '0', '1'};
inline constexpr uint32_t kVersion = 1;
inline constexpr size_t kHeaderSize = 88;

// Header field offsets; exported so the format-conformance tests can patch
// individual fields without duplicating the layout.
inline constexpr size_t kMagicOffset = 0;
inline constexpr size_t kVersionOffset = 8;
inline constexpr size_t kFlagsOffset = 12;
inline constexpr size_t kNumBitsOffset = 16;
inline constexpr size_t kMaxEntriesOffset = 20;
inline constexpr size_t kHeightOffset = 24;
inline constexpr size_t kRootOffset = 28;
inline constexpr size_t kSizeOffset = 32;
inline constexpr size_t kNodeCountOffset = 40;
inline constexpr size_t kIndexOffsetOffset = 48;
inline constexpr size_t kNodesOffsetOffset = 56;
inline constexpr size_t kFileSizeOffset = 64;
inline constexpr size_t kAreaLoOffset = 72;
inline constexpr size_t kAreaHiOffset = 76;
inline constexpr size_t kBodyCrcOffset = 80;
inline constexpr size_t kHeaderCrcOffset = 84;

inline constexpr uint32_t kInvalidRoot = 0xffffffffu;

/// Cap that keeps a hostile header from overflowing size arithmetic: widths
/// beyond 2^24 bits would overflow WordsForBits' uint32 math.
inline constexpr uint32_t kMaxNumBits = 1u << 24;

// Little-endian field accessors for the header. Node records are copied
// as words by the builder and read in place by the zero-copy view, which is
// only correct on a little-endian host — enforced at compile time.
static_assert(std::endian::native == std::endian::little,
              "the static SG-tree image is little-endian and the zero-copy "
              "reader assumes a little-endian host");

inline void StoreU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

inline void StoreU64(uint8_t* p, uint64_t v) {
  StoreU32(p, static_cast<uint32_t>(v));
  StoreU32(p + 4, static_cast<uint32_t>(v >> 32));
}

inline uint16_t LoadU16(const uint8_t* p) {
  return static_cast<uint16_t>(uint32_t{p[0]} | (uint32_t{p[1]} << 8));
}

inline uint32_t LoadU32(const uint8_t* p) {
  return uint32_t{p[0]} | (uint32_t{p[1]} << 8) | (uint32_t{p[2]} << 16) |
         (uint32_t{p[3]} << 24);
}

inline uint64_t LoadU64(const uint8_t* p) {
  return uint64_t{LoadU32(p)} | (uint64_t{LoadU32(p + 4)} << 32);
}

}  // namespace static_format
}  // namespace sgtree

#endif  // SGTREE_STATIC_STATIC_FORMAT_H_
