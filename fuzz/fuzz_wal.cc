// Fuzz harness for the write-ahead-log format (durability/wal.h).
//
// The WAL is the one file format that is read back after arbitrary
// truncation and corruption (that is its job), so its decoder and scanner
// must never crash, over-read, or allocation-bomb on hostile input.
//
// Input layout: byte 0 selects the mode mix; the remainder is (a) scanned
// raw by WalScanner — every record it accepts must satisfy the framing
// invariants and re-encode canonically; (b) fed raw to DecodeWalRecord;
// and (c) deterministically shaped into records that are framed, scanned
// back, and compared.

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/crc32.h"
#include "durability/byte_io.h"
#include "durability/wal.h"

namespace {

using sgtree::AppendU32;
using sgtree::Crc32c;
using sgtree::DecodeWalRecord;
using sgtree::EncodeWalRecord;
using sgtree::kMaxWalRecordSize;
using sgtree::WalRecord;
using sgtree::WalRecordType;
using sgtree::WalScanner;

bool SameRecord(const WalRecord& a, const WalRecord& b) {
  return a.type == b.type && a.checkpoint_seq == b.checkpoint_seq &&
         a.op_seq == b.op_seq && a.tid == b.tid &&
         a.positions == b.positions;
}

// Scans arbitrary bytes; checks the scanner's own invariants and that every
// accepted record survives an encode/decode round trip.
void ScanArbitrary(const std::vector<uint8_t>& region) {
  WalScanner scanner(region.data(), region.size());
  WalRecord record;
  uint64_t records = 0;
  while (scanner.Next(&record)) {
    ++records;
    std::vector<uint8_t> reencoded;
    EncodeWalRecord(record, &reencoded);
    SGTREE_ASSERT_MSG(reencoded.size() <= kMaxWalRecordSize,
                      "accepted record re-encodes over the size cap");
    WalRecord decoded;
    SGTREE_ASSERT_MSG(DecodeWalRecord(reencoded, &decoded),
                      "accepted record does not re-decode");
    SGTREE_ASSERT_MSG(SameRecord(record, decoded),
                      "wal record round trip changed the record");
  }
  SGTREE_ASSERT_MSG(scanner.valid_end() <= region.size(),
                    "scanner accepted more bytes than exist");
  SGTREE_ASSERT_MSG(scanner.records() == records,
                    "scanner record count disagrees with Next calls");
  SGTREE_ASSERT_MSG(scanner.torn() == (scanner.valid_end() < region.size()),
                    "torn flag disagrees with the accepted prefix");
}

WalRecord ShapeRecord(const uint8_t* data, size_t size, size_t* offset) {
  auto take = [&]() -> uint8_t {
    return *offset < size ? data[(*offset)++] : 0;
  };
  WalRecord record;
  const auto kind = static_cast<uint8_t>(take() % 3);
  switch (kind) {
    case 0:
      record.type = WalRecordType::kCheckpoint;
      record.checkpoint_seq = take() | (uint64_t(take()) << 32);
      record.op_seq = take() | (uint64_t(take()) << 40);
      break;
    default: {
      record.type = kind == 1 ? WalRecordType::kInsert : WalRecordType::kErase;
      record.tid = take() | (uint64_t(take()) << 56);
      // Strictly increasing positions, as the decoder requires.
      const size_t count = take() % 48u;
      uint32_t position = take();
      for (size_t i = 0; i < count; ++i) {
        record.positions.push_back(position);
        position += 1 + uint32_t(take()) * 37;
      }
      break;
    }
  }
  return record;
}

// Frames shaped records exactly as Wal::Append does, scans them back, and
// requires a byte-perfect round trip; then corrupts one byte and requires
// the scan to stop at or before the corrupted frame.
void RoundTripShaped(const uint8_t* data, size_t size) {
  size_t offset = 0;
  std::vector<WalRecord> records;
  const size_t count = size == 0 ? 0 : data[0] % 5;
  offset = 1;
  for (size_t i = 0; i < count; ++i) {
    records.push_back(ShapeRecord(data, size, &offset));
  }
  std::vector<uint8_t> region;
  for (const WalRecord& record : records) {
    std::vector<uint8_t> payload;
    EncodeWalRecord(record, &payload);
    AppendU32(static_cast<uint32_t>(payload.size()), &region);
    AppendU32(Crc32c(payload), &region);
    region.insert(region.end(), payload.begin(), payload.end());
  }

  WalScanner scanner(region.data(), region.size());
  WalRecord decoded;
  for (const WalRecord& record : records) {
    SGTREE_ASSERT_MSG(scanner.Next(&decoded),
                      "framed record stream scans short");
    SGTREE_ASSERT_MSG(SameRecord(record, decoded),
                      "framed round trip changed a record");
  }
  SGTREE_ASSERT_MSG(!scanner.Next(&decoded), "scan past the last record");
  SGTREE_ASSERT_MSG(!scanner.torn(), "clean stream reported torn");

  if (!region.empty()) {
    std::vector<uint8_t> corrupt = region;
    const size_t pos = offset < size ? data[offset] % corrupt.size() : 0;
    corrupt[pos] ^= 0x40;
    ScanArbitrary(corrupt);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  const std::vector<uint8_t> payload(data + 1, data + size);
  ScanArbitrary(payload);
  WalRecord record;
  DecodeWalRecord(payload, &record);
  RoundTripShaped(data, size);
  return 0;
}
