#ifndef SGTREE_DURABILITY_BYTE_IO_H_
#define SGTREE_DURABILITY_BYTE_IO_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sgtree {

/// Little-endian scalar framing shared by the WAL records and the serving
/// protocol. All readers are bounds-checked and advance `*offset` only on
/// success, so decoders stop cleanly on truncated input — the property the
/// WAL torn-tail scan and the fuzz harnesses rely on.

inline void AppendU8(uint8_t v, std::vector<uint8_t>* out) {
  out->push_back(v);
}

inline void AppendU16(uint16_t v, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(v & 0xff));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

inline void AppendU32(uint32_t v, std::vector<uint8_t>* out) {
  for (int b = 0; b < 4; ++b) {
    out->push_back(static_cast<uint8_t>(v >> (8 * b)));
  }
}

inline void AppendU64(uint64_t v, std::vector<uint8_t>* out) {
  for (int b = 0; b < 8; ++b) {
    out->push_back(static_cast<uint8_t>(v >> (8 * b)));
  }
}

inline bool ReadU8(const std::vector<uint8_t>& data, size_t* offset,
                   uint8_t* v) {
  if (*offset + 1 > data.size()) return false;
  *v = data[*offset];
  *offset += 1;
  return true;
}

inline bool ReadU16(const std::vector<uint8_t>& data, size_t* offset,
                    uint16_t* v) {
  if (*offset + 2 > data.size()) return false;
  *v = static_cast<uint16_t>(data[*offset] | (data[*offset + 1] << 8));
  *offset += 2;
  return true;
}

inline bool ReadU32(const std::vector<uint8_t>& data, size_t* offset,
                    uint32_t* v) {
  if (*offset + 4 > data.size()) return false;
  uint32_t value = 0;
  for (int b = 0; b < 4; ++b) {
    value |= static_cast<uint32_t>(data[*offset + static_cast<size_t>(b)])
             << (8 * b);
  }
  *offset += 4;
  *v = value;
  return true;
}

inline bool ReadU64(const std::vector<uint8_t>& data, size_t* offset,
                    uint64_t* v) {
  if (*offset + 8 > data.size()) return false;
  uint64_t value = 0;
  for (int b = 0; b < 8; ++b) {
    value |= static_cast<uint64_t>(data[*offset + static_cast<size_t>(b)])
             << (8 * b);
  }
  *offset += 8;
  *v = value;
  return true;
}

}  // namespace sgtree

#endif  // SGTREE_DURABILITY_BYTE_IO_H_
