#include "common/crc32.h"

#include <array>
#include <cstring>

#if defined(__SSE4_2__)
#include <nmmintrin.h>
#endif

namespace sgtree {
namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // 0x1EDC6F41 reflected.

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) != 0 ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

}  // namespace

uint32_t Crc32cTable(const uint8_t* data, size_t size, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ data[i]) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__SSE4_2__)
uint32_t Crc32c(const uint8_t* data, size_t size, uint32_t seed) {
  uint64_t crc = ~seed;
  for (; size >= 8; data += 8, size -= 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto tail = static_cast<uint32_t>(crc);
  for (; size > 0; ++data, --size) tail = _mm_crc32_u8(tail, *data);
  return ~tail;
}
#else
uint32_t Crc32c(const uint8_t* data, size_t size, uint32_t seed) {
  return Crc32cTable(data, size, seed);
}
#endif

}  // namespace sgtree
