#ifndef SGTREE_COMMON_CRC32_H_
#define SGTREE_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sgtree {

/// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected). Used to checksum
/// durable bytes: WAL record payloads, page-file slots, the page-file
/// header and static images. Castagnoli has better error-detection
/// properties than the zlib polynomial for the short records a log
/// produces, and is what modern storage engines checksum with.
///
/// `seed` chains computations: Crc32c(b, n2, Crc32c(a, n1)) equals the CRC
/// of the concatenation a|b.
///
/// Runs on the SSE4.2 `crc32` instruction, eight bytes at a time, when the
/// build targets it (every x86-64 build does: it is fixed at x86-64-v2),
/// and on a byte table elsewhere.
uint32_t Crc32c(const uint8_t* data, size_t size, uint32_t seed = 0);

inline uint32_t Crc32c(const std::vector<uint8_t>& data, uint32_t seed = 0) {
  return Crc32c(data.data(), data.size(), seed);
}

/// The byte-table loop, one byte per step. Same result as Crc32c; kept as
/// the portable path and as the reference the hardware path is tested
/// against.
uint32_t Crc32cTable(const uint8_t* data, size_t size, uint32_t seed = 0);

}  // namespace sgtree

#endif  // SGTREE_COMMON_CRC32_H_
