// Unit tests for the durability subsystem: CRC framing, the posix Env, the
// file-backed page store (slotted layout, ping-pong headers, free-list
// persistence, checksum detection), the write-ahead log (framing, torn-tail
// scan, reset), metadata round-trips, and the DurableTree write path
// (log-before-apply, group commit, checkpoint, reopen). Crash-schedule
// sweeps live in test_recovery_torture.cc.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/file_util.h"
#include "common/rng.h"
#include "common/signature.h"
#include "data/transaction.h"
#include "durability/byte_io.h"
#include "durability/durable_tree.h"
#include "durability/env.h"
#include "durability/fault_injection.h"
#include "durability/file_page_store.h"
#include "durability/meta.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "obs/metrics.h"
#include "sgtree/search.h"
#include "sgtree/sg_tree.h"
#include "storage/page_store.h"

namespace sgtree {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Transaction MakeTxn(uint64_t tid, std::vector<ItemId> items) {
  Transaction txn;
  txn.tid = tid;
  txn.items = std::move(items);
  return txn;
}

// ---------------------------------------------------------------------------
// CRC-32C.
// ---------------------------------------------------------------------------

TEST(Crc32Test, KnownVectors) {
  // The classic CRC-32C check value for "123456789".
  const char* digits = "123456789";
  EXPECT_EQ(Crc32c(reinterpret_cast<const uint8_t*>(digits), 9), 0xE3069283u);
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  std::vector<uint8_t> data(64);
  for (size_t i = 0; i < data.size(); ++i) data[i] = uint8_t(i * 7);
  const uint32_t clean = Crc32c(data);
  for (size_t bit = 0; bit < data.size() * 8; bit += 37) {
    std::vector<uint8_t> flipped = data;
    flipped[bit / 8] ^= uint8_t(1u << (bit % 8));
    EXPECT_NE(Crc32c(flipped), clean) << "bit " << bit;
  }
}

TEST(Crc32Test, HardwarePathMatchesTheTable) {
  // Crc32c takes eight bytes per step on the crc32 instruction where the
  // build has SSE4.2; the byte table is the reference. Random lengths hit
  // every tail length, start offsets every alignment, and each result seeds
  // the next call, as chained computations do.
  const char* digits = "123456789";
  EXPECT_EQ(Crc32cTable(reinterpret_cast<const uint8_t*>(digits), 9),
            0xE3069283u);
  Rng rng(41);
  std::vector<uint8_t> buffer(4096 + 7);
  for (uint8_t& byte : buffer) byte = static_cast<uint8_t>(rng.NextU64());
  uint32_t seed = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    const size_t offset = rng.UniformInt(8);
    const size_t length = rng.UniformInt(4097);
    const uint8_t* data = buffer.data() + offset;
    const uint32_t expected = Crc32cTable(data, length, seed);
    ASSERT_EQ(Crc32c(data, length, seed), expected)
        << "offset " << offset << ", length " << length << ", seed " << seed;
    seed = expected;
  }
}

// ---------------------------------------------------------------------------
// Byte framing.
// ---------------------------------------------------------------------------

TEST(ByteIoTest, RoundTrip) {
  std::vector<uint8_t> buf;
  AppendU8(0xAB, &buf);
  AppendU16(0xBEEF, &buf);
  AppendU32(0xDEADBEEFu, &buf);
  AppendU64(0x0123456789ABCDEFull, &buf);
  size_t offset = 0;
  uint8_t v8 = 0;
  uint16_t v16 = 0;
  uint32_t v32 = 0;
  uint64_t v64 = 0;
  ASSERT_TRUE(ReadU8(buf, &offset, &v8));
  ASSERT_TRUE(ReadU16(buf, &offset, &v16));
  ASSERT_TRUE(ReadU32(buf, &offset, &v32));
  ASSERT_TRUE(ReadU64(buf, &offset, &v64));
  EXPECT_EQ(v8, 0xAB);
  EXPECT_EQ(v16, 0xBEEF);
  EXPECT_EQ(v32, 0xDEADBEEFu);
  EXPECT_EQ(v64, 0x0123456789ABCDEFull);
  EXPECT_EQ(offset, buf.size());
}

TEST(ByteIoTest, TruncatedReadsFailWithoutAdvancing) {
  std::vector<uint8_t> buf = {1, 2, 3};
  size_t offset = 0;
  uint64_t v64 = 0;
  EXPECT_FALSE(ReadU64(buf, &offset, &v64));
  EXPECT_EQ(offset, 0u);
  uint32_t v32 = 0;
  EXPECT_FALSE(ReadU32(buf, &offset, &v32));
  EXPECT_EQ(offset, 0u);
  uint16_t v16 = 0;
  EXPECT_TRUE(ReadU16(buf, &offset, &v16));
  EXPECT_EQ(offset, 2u);
}

// ---------------------------------------------------------------------------
// Env.
// ---------------------------------------------------------------------------

TEST(EnvTest, WriteReadAppendTruncate) {
  Env* env = Env::Posix();
  const std::string path = TempPath("env_basic.bin");
  env->Delete(path);
  auto file = env->Open(path, /*create=*/true);
  ASSERT_NE(file, nullptr);
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(file->WriteAt(0, payload.data(), payload.size()));
  ASSERT_TRUE(file->Append(payload.data(), payload.size()));
  EXPECT_EQ(file->Size(), 10u);

  std::vector<uint8_t> got;
  ASSERT_TRUE(file->ReadAt(5, 5, &got));
  EXPECT_EQ(got, payload);
  // Short read at EOF returns the available prefix, not an error.
  ASSERT_TRUE(file->ReadAt(8, 100, &got));
  EXPECT_EQ(got.size(), 2u);

  ASSERT_TRUE(file->Truncate(3));
  EXPECT_EQ(file->Size(), 3u);
  ASSERT_TRUE(file->Sync());
  EXPECT_TRUE(env->FileExists(path));
  EXPECT_TRUE(env->SyncDir(path));
  EXPECT_TRUE(env->Delete(path));
  EXPECT_FALSE(env->FileExists(path));
}

TEST(EnvTest, OpenWithoutCreateFails) {
  Env* env = Env::Posix();
  EXPECT_EQ(env->Open(TempPath("definitely_missing.bin"), false), nullptr);
}

TEST(FileUtilTest, AtomicWriteFileReplacesAndReportsErrors) {
  const std::string path = TempPath("atomic.bin");
  std::string error;
  ASSERT_TRUE(AtomicWriteFile(path, {1, 2, 3}, &error)) << error;
  ASSERT_TRUE(AtomicWriteFile(path, {9, 9}, &error)) << error;
  Env* env = Env::Posix();
  auto file = env->Open(path, false);
  ASSERT_NE(file, nullptr);
  std::vector<uint8_t> got;
  ASSERT_TRUE(file->ReadAt(0, 100, &got));
  EXPECT_EQ(got, (std::vector<uint8_t>{9, 9}));
  // The staging file must not linger.
  EXPECT_FALSE(env->FileExists(path + ".tmp"));
  EXPECT_FALSE(AtomicWriteFile(TempPath("no_such_dir") + "/x", {1}, &error));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// File page store.
// ---------------------------------------------------------------------------

TEST(FilePageStoreTest, CreateWriteReopenRead) {
  Env* env = Env::Posix();
  const std::string path = TempPath("store_basic.sgp");
  env->Delete(path);
  std::string error;
  auto store = FilePageStore::Create(env, path, 256, &error);
  ASSERT_NE(store, nullptr) << error;
  const PageId a = store->Allocate();
  const PageId b = store->Allocate();
  ASSERT_TRUE(store->Write(a, {1, 2, 3}));
  ASSERT_TRUE(store->Write(b, std::vector<uint8_t>(256, 0x5A)));
  ASSERT_TRUE(store->WriteMeta({7, 7, 7}));
  ASSERT_TRUE(store->Sync());
  EXPECT_EQ(store->LivePages(), 2u);
  store.reset();

  store = FilePageStore::Open(env, path, &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->page_size(), 256u);
  EXPECT_EQ(store->LivePages(), 2u);
  EXPECT_EQ(store->meta(), (std::vector<uint8_t>{7, 7, 7}));
  std::vector<uint8_t> payload;
  ASSERT_TRUE(store->Read(a, &payload));
  EXPECT_EQ(payload, (std::vector<uint8_t>{1, 2, 3}));
  ASSERT_TRUE(store->Read(b, &payload));
  EXPECT_EQ(payload, std::vector<uint8_t>(256, 0x5A));
}

TEST(FilePageStoreTest, FreeListSurvivesReopen) {
  Env* env = Env::Posix();
  const std::string path = TempPath("store_freelist.sgp");
  env->Delete(path);
  std::string error;
  auto store = FilePageStore::Create(env, path, 128, &error);
  ASSERT_NE(store, nullptr) << error;
  const PageId a = store->Allocate();
  const PageId b = store->Allocate();
  const PageId c = store->Allocate();
  ASSERT_TRUE(store->Write(a, {1}));
  ASSERT_TRUE(store->Write(b, {2}));
  ASSERT_TRUE(store->Write(c, {3}));
  store->Free(b);
  ASSERT_TRUE(store->WriteMeta({}));
  ASSERT_TRUE(store->Sync());
  store.reset();

  store = FilePageStore::Open(env, path, &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->LivePages(), 2u);
  std::vector<uint8_t> payload;
  EXPECT_FALSE(store->Read(b, &payload));
  // The freed slot is reusable after reopen.
  const PageId again = store->Allocate();
  EXPECT_EQ(again, b);
}

TEST(FilePageStoreTest, ReserveAndPut) {
  Env* env = Env::Posix();
  const std::string path = TempPath("store_reserve.sgp");
  env->Delete(path);
  std::string error;
  auto store = FilePageStore::Create(env, path, 128, &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_TRUE(store->Reserve(5));
  EXPECT_FALSE(store->Reserve(5));  // already live
  ASSERT_TRUE(store->Put(9, {42}));
  std::vector<uint8_t> payload;
  ASSERT_TRUE(store->Read(9, &payload));
  EXPECT_EQ(payload, (std::vector<uint8_t>{42}));
  // Holes below the reserved ids are allocatable.
  const PageId id = store->Allocate();
  EXPECT_LT(id, 9u);
  EXPECT_NE(id, 5u);
}

TEST(FilePageStoreTest, ChecksumMismatchDetected) {
  Env* env = Env::Posix();
  const std::string path = TempPath("store_crc.sgp");
  env->Delete(path);
  std::string error;
  auto store = FilePageStore::Create(env, path, 128, &error);
  ASSERT_NE(store, nullptr) << error;
  const PageId a = store->Allocate();
  ASSERT_TRUE(store->Write(a, {10, 20, 30, 40}));
  ASSERT_TRUE(store->WriteMeta({}));
  ASSERT_TRUE(store->Sync());
  store.reset();

  // Flip one payload byte behind the store's back: slot 0 payload starts at
  // 4096 + 16.
  auto file = env->Open(path, false);
  ASSERT_NE(file, nullptr);
  const uint8_t evil = 99;
  ASSERT_TRUE(file->WriteAt(4096 + 16, &evil, 1));
  file.reset();

  store = FilePageStore::Open(env, path, &error);
  ASSERT_NE(store, nullptr) << error;
  std::vector<uint8_t> payload;
  EXPECT_FALSE(store->Read(a, &payload));
  EXPECT_NE(store->last_error().find("checksum"), std::string::npos);
  EXPECT_EQ(store->crc_failures(), 1u);
}

TEST(FilePageStoreTest, HeaderPingPongSurvivesTornHeaderWrite) {
  Env* env = Env::Posix();
  const std::string path = TempPath("store_header.sgp");
  env->Delete(path);
  std::string error;
  auto store = FilePageStore::Create(env, path, 128, &error);
  ASSERT_NE(store, nullptr) << error;
  ASSERT_TRUE(store->WriteMeta({1}));  // seq 1 -> copy B
  ASSERT_TRUE(store->WriteMeta({2}));  // seq 2 -> copy A
  ASSERT_TRUE(store->Sync());
  const uint64_t seq = store->meta_seq();
  store.reset();

  // Corrupt the copy holding the newest meta (seq % 2 == 0 -> copy A at 0).
  auto file = env->Open(path, false);
  ASSERT_NE(file, nullptr);
  const uint64_t offset = (seq % 2 == 0) ? 0 : 2048;
  std::vector<uint8_t> garbage(32, 0xFF);
  ASSERT_TRUE(file->WriteAt(offset + 8, garbage.data(), garbage.size()));
  file.reset();

  // The surviving copy wins: one meta step back, never an open failure.
  store = FilePageStore::Open(env, path, &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->meta_seq(), seq - 1);
  EXPECT_EQ(store->meta(), (std::vector<uint8_t>{1}));
}

TEST(MemPageStoreTest, ReserveMatchesFileStoreSemantics) {
  MemPageStore store(128);
  EXPECT_TRUE(store.Reserve(3));
  EXPECT_FALSE(store.Reserve(3));
  ASSERT_TRUE(store.Write(3, {1}));
  const PageId low = store.Allocate();
  EXPECT_LT(low, 3u);
}

// ---------------------------------------------------------------------------
// WAL records and scanner.
// ---------------------------------------------------------------------------

WalRecord ImageRecord(PageId page, std::vector<uint8_t> image) {
  WalRecord record;
  record.type = WalRecordType::kPageImage;
  record.page = page;
  record.image = std::move(image);
  return record;
}

TEST(WalRecordTest, AllTypesRoundTrip) {
  std::vector<WalRecord> records;
  WalRecord cp;
  cp.type = WalRecordType::kCheckpoint;
  cp.checkpoint_seq = 42;
  records.push_back(cp);
  WalRecord alloc;
  alloc.type = WalRecordType::kAlloc;
  alloc.page = 7;
  records.push_back(alloc);
  records.push_back(ImageRecord(9, {1, 2, 3, 4}));
  WalRecord free_rec;
  free_rec.type = WalRecordType::kFree;
  free_rec.page = 3;
  records.push_back(free_rec);
  WalRecord meta;
  meta.type = WalRecordType::kTreeMeta;
  meta.meta.op_seq = 17;
  meta.meta.root = 2;
  meta.meta.height = 1;
  meta.meta.size = 100;
  meta.meta.area_lo = 5;
  meta.meta.area_hi = 90;
  meta.meta.node_count = 3;
  records.push_back(meta);

  for (const WalRecord& record : records) {
    std::vector<uint8_t> payload;
    EncodeWalRecord(record, &payload);
    WalRecord decoded;
    ASSERT_TRUE(DecodeWalRecord(payload, &decoded));
    EXPECT_EQ(decoded.type, record.type);
    EXPECT_EQ(decoded.page, record.page);
    EXPECT_EQ(decoded.checkpoint_seq, record.checkpoint_seq);
    EXPECT_EQ(decoded.image, record.image);
    EXPECT_EQ(decoded.meta, record.meta);
  }
}

TEST(WalRecordTest, MalformedPayloadsRejected) {
  WalRecord decoded;
  EXPECT_FALSE(DecodeWalRecord({}, &decoded));
  EXPECT_FALSE(DecodeWalRecord({0}, &decoded));     // type 0 invalid
  EXPECT_FALSE(DecodeWalRecord({99}, &decoded));    // unknown type
  EXPECT_FALSE(DecodeWalRecord({2}, &decoded));     // kAlloc missing page
  // Trailing junk after a fixed-size record is corruption, not padding.
  std::vector<uint8_t> payload;
  WalRecord alloc;
  alloc.type = WalRecordType::kAlloc;
  alloc.page = 1;
  EncodeWalRecord(alloc, &payload);
  payload.push_back(0);
  EXPECT_FALSE(DecodeWalRecord(payload, &decoded));
}

TEST(WalTest, AppendScanRoundTrip) {
  Env* env = Env::Posix();
  const std::string path = TempPath("wal_roundtrip.sgw");
  env->Delete(path);
  std::string error;
  auto wal = Wal::Create(env, path, &error);
  ASSERT_NE(wal, nullptr) << error;
  WalRecord cp;
  cp.type = WalRecordType::kCheckpoint;
  cp.checkpoint_seq = 1;
  ASSERT_TRUE(wal->Append(cp));
  ASSERT_TRUE(wal->Append(ImageRecord(4, {9, 8, 7})));
  ASSERT_TRUE(wal->Commit());
  EXPECT_EQ(wal->records_appended(), 2u);
  wal.reset();

  std::vector<uint8_t> region;
  ASSERT_TRUE(Wal::ReadRecordRegion(env, path, &region, &error)) << error;
  WalScanner scanner(region.data(), region.size());
  WalRecord record;
  ASSERT_TRUE(scanner.Next(&record));
  EXPECT_EQ(record.type, WalRecordType::kCheckpoint);
  EXPECT_EQ(record.checkpoint_seq, 1u);
  ASSERT_TRUE(scanner.Next(&record));
  EXPECT_EQ(record.type, WalRecordType::kPageImage);
  EXPECT_EQ(record.image, (std::vector<uint8_t>{9, 8, 7}));
  EXPECT_FALSE(scanner.Next(&record));
  EXPECT_FALSE(scanner.torn());
  EXPECT_EQ(scanner.valid_end(), region.size());
  EXPECT_EQ(scanner.records(), 2u);
}

TEST(WalTest, ScannerStopsAtTornTail) {
  Env* env = Env::Posix();
  const std::string path = TempPath("wal_torn.sgw");
  env->Delete(path);
  std::string error;
  auto wal = Wal::Create(env, path, &error);
  ASSERT_NE(wal, nullptr) << error;
  ASSERT_TRUE(wal->Append(ImageRecord(1, {1, 1})));
  const uint64_t clean_size = wal->size_bytes();
  ASSERT_TRUE(wal->Append(ImageRecord(2, std::vector<uint8_t>(64, 2))));
  ASSERT_TRUE(wal->Commit());
  wal.reset();

  // Tear the second record in half.
  auto file = env->Open(path, false);
  ASSERT_NE(file, nullptr);
  ASSERT_TRUE(file->Truncate(clean_size + 10));
  file.reset();

  std::vector<uint8_t> region;
  ASSERT_TRUE(Wal::ReadRecordRegion(env, path, &region, &error)) << error;
  WalScanner scanner(region.data(), region.size());
  WalRecord record;
  ASSERT_TRUE(scanner.Next(&record));
  EXPECT_FALSE(scanner.Next(&record));
  EXPECT_TRUE(scanner.torn());
  EXPECT_EQ(scanner.valid_end() + Wal::RecordRegionStart(), clean_size);
  EXPECT_EQ(scanner.records(), 1u);
}

TEST(WalTest, ScannerStopsAtCorruptPayloadAndInsaneLength) {
  Env* env = Env::Posix();
  const std::string path = TempPath("wal_corrupt.sgw");
  env->Delete(path);
  std::string error;
  auto wal = Wal::Create(env, path, &error);
  ASSERT_NE(wal, nullptr) << error;
  ASSERT_TRUE(wal->Append(ImageRecord(1, {5})));
  ASSERT_TRUE(wal->Append(ImageRecord(2, {6})));
  ASSERT_TRUE(wal->Commit());
  const uint64_t second_frame =
      Wal::RecordRegionStart() + (wal->size_bytes() - Wal::RecordRegionStart()) / 2;
  wal.reset();

  // Flip a payload byte of the second record: the first still scans.
  auto file = env->Open(path, false);
  ASSERT_NE(file, nullptr);
  const uint8_t evil = 0xEE;
  ASSERT_TRUE(file->WriteAt(second_frame + 9, &evil, 1));
  file.reset();

  std::vector<uint8_t> region;
  ASSERT_TRUE(Wal::ReadRecordRegion(env, path, &region, &error)) << error;
  WalScanner scanner(region.data(), region.size());
  WalRecord record;
  EXPECT_TRUE(scanner.Next(&record));
  EXPECT_FALSE(scanner.Next(&record));
  EXPECT_TRUE(scanner.torn());
  EXPECT_EQ(scanner.records(), 1u);

  // A length field past kMaxWalRecordSize is corruption, not an allocation
  // request.
  std::vector<uint8_t> insane;
  AppendU32(kMaxWalRecordSize + 1, &insane);
  AppendU32(0, &insane);
  insane.resize(insane.size() + 32, 0);
  WalScanner scanner2(insane.data(), insane.size());
  EXPECT_FALSE(scanner2.Next(&record));
  EXPECT_TRUE(scanner2.torn());
  EXPECT_EQ(scanner2.valid_end(), 0u);
}

TEST(WalTest, OpenForAppendTruncatesTornTailAndResetFolds) {
  Env* env = Env::Posix();
  const std::string path = TempPath("wal_append.sgw");
  env->Delete(path);
  std::string error;
  auto wal = Wal::Create(env, path, &error);
  ASSERT_NE(wal, nullptr) << error;
  ASSERT_TRUE(wal->Append(ImageRecord(1, {1})));
  const uint64_t clean = wal->size_bytes();
  ASSERT_TRUE(wal->Append(ImageRecord(2, {2})));
  ASSERT_TRUE(wal->Commit());
  wal.reset();

  auto file = env->Open(path, false);
  ASSERT_TRUE(file->Truncate(clean + 3));
  file.reset();

  wal = Wal::OpenForAppend(env, path, clean - Wal::RecordRegionStart(),
                           &error);
  ASSERT_NE(wal, nullptr) << error;
  EXPECT_EQ(wal->size_bytes(), clean);
  ASSERT_TRUE(wal->Append(ImageRecord(3, {3})));
  ASSERT_TRUE(wal->Commit());

  ASSERT_TRUE(wal->Reset(9));
  wal.reset();
  std::vector<uint8_t> region;
  ASSERT_TRUE(Wal::ReadRecordRegion(env, path, &region, &error)) << error;
  WalScanner scanner(region.data(), region.size());
  WalRecord record;
  ASSERT_TRUE(scanner.Next(&record));
  EXPECT_EQ(record.type, WalRecordType::kCheckpoint);
  EXPECT_EQ(record.checkpoint_seq, 9u);
  EXPECT_FALSE(scanner.Next(&record));
  EXPECT_FALSE(scanner.torn());
}

TEST(WalTest, MissingFileIsAnEmptyLog) {
  std::vector<uint8_t> region = {1, 2, 3};
  std::string error;
  ASSERT_TRUE(Wal::ReadRecordRegion(Env::Posix(), TempPath("wal_none.sgw"),
                                    &region, &error))
      << error;
  EXPECT_TRUE(region.empty());
}

// ---------------------------------------------------------------------------
// Metadata.
// ---------------------------------------------------------------------------

TEST(MetaTest, RoundTripAndTruncationRejected) {
  DurableTreeMeta meta;
  meta.num_bits = 128;
  meta.max_entries = 50;
  meta.compress = 1;
  meta.checkpoint_seq = 12;
  meta.tree.op_seq = 99;
  meta.tree.root = 4;
  meta.tree.height = 2;
  meta.tree.size = 1000;
  meta.tree.area_lo = 3;
  meta.tree.area_hi = 80;
  meta.tree.node_count = 17;

  std::vector<uint8_t> blob;
  EncodeDurableTreeMeta(meta, &blob);
  DurableTreeMeta decoded;
  ASSERT_TRUE(DecodeDurableTreeMeta(blob, &decoded));
  EXPECT_EQ(decoded.num_bits, meta.num_bits);
  EXPECT_EQ(decoded.max_entries, meta.max_entries);
  EXPECT_EQ(decoded.compress, meta.compress);
  EXPECT_EQ(decoded.checkpoint_seq, meta.checkpoint_seq);
  EXPECT_EQ(decoded.tree, meta.tree);

  for (size_t cut = 0; cut < blob.size(); ++cut) {
    std::vector<uint8_t> truncated(blob.begin(),
                                   blob.begin() + ptrdiff_t(cut));
    EXPECT_FALSE(DecodeDurableTreeMeta(truncated, &decoded)) << cut;
  }
}

TEST(MetaTest, DefaultAreaWindowIsEmptySentinel) {
  TreeMeta meta;
  EXPECT_GT(meta.area_lo, meta.area_hi);
}

// ---------------------------------------------------------------------------
// Fault injection primitives.
// ---------------------------------------------------------------------------

TEST(FaultStateTest, KillAndTornSemantics) {
  FaultPlan plan;
  plan.kill_at_write = 3;
  plan.torn_prefix_bytes = 4;
  FaultState state(plan);
  bool fail = false;
  EXPECT_EQ(state.OnWrite(10, &fail), 10u);
  EXPECT_FALSE(fail);
  EXPECT_EQ(state.OnWrite(10, &fail), 10u);
  EXPECT_FALSE(fail);
  // The fatal write applies only the torn prefix and reports failure.
  EXPECT_EQ(state.OnWrite(10, &fail), 4u);
  EXPECT_TRUE(fail);
  EXPECT_TRUE(state.dead());
  // Everything after the crash fails outright (and is not counted: the
  // counter reports writes the process issued while alive, the number a
  // clean-run sweep needs).
  EXPECT_EQ(state.OnWrite(10, &fail), 0u);
  EXPECT_TRUE(fail);
  EXPECT_EQ(state.writes_issued(), 3u);
}

TEST(FaultStateTest, ReadBitFlip) {
  FaultPlan plan;
  plan.flip_at_read = 2;
  plan.flip_bit = 9;
  FaultState state(plan);
  std::vector<uint8_t> buf = {0, 0};
  state.OnRead(&buf);
  EXPECT_EQ(buf, (std::vector<uint8_t>{0, 0}));
  state.OnRead(&buf);
  EXPECT_EQ(buf, (std::vector<uint8_t>{0, 2}));  // bit 9 = byte 1, bit 1
  state.OnRead(&buf);
  EXPECT_EQ(buf, (std::vector<uint8_t>{0, 2}));
}

// ---------------------------------------------------------------------------
// DurableTree end to end.
// ---------------------------------------------------------------------------

SgTreeOptions SmallOptions() {
  SgTreeOptions options;
  options.num_bits = 64;
  options.page_size = 512;
  return options;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = TempPath(name);
  Env* env = Env::Posix();
  env->Delete(DurableTree::PagePathFor(dir));
  env->Delete(DurableTree::WalPathFor(dir));
  return dir;
}

TEST(DurableTreeTest, InsertEraseSurviveReopen) {
  const std::string dir = FreshDir("dt_basic");
  DurableTree::Options options;
  options.tree = SmallOptions();
  std::string error;
  auto durable = DurableTree::Open(Env::Posix(), dir, options, &error);
  ASSERT_NE(durable, nullptr) << error;
  for (uint64_t tid = 0; tid < 30; ++tid) {
    ASSERT_TRUE(durable->Insert(
        MakeTxn(tid, {ItemId(tid % 64), ItemId((tid * 5) % 64)})));
  }
  ASSERT_TRUE(durable->Erase(MakeTxn(4, {4, 20})));
  EXPECT_FALSE(durable->Erase(MakeTxn(999, {1, 2})));  // absent: not logged
  const uint64_t ops = durable->op_seq();
  EXPECT_EQ(ops, 31u);
  durable.reset();

  // Reopen replays the whole log (no checkpoint was taken).
  durable = DurableTree::Open(Env::Posix(), dir, options, &error);
  ASSERT_NE(durable, nullptr) << error;
  EXPECT_EQ(durable->op_seq(), ops);
  EXPECT_EQ(durable->recovery_report().ops_committed, ops);
  EXPECT_EQ(durable->tree().size(), 29u);
  const std::vector<ItemId> gone_items = {4, 20};
  const Signature gone = Signature::FromItems(gone_items, 64);
  EXPECT_TRUE(ExactSearch(durable->tree(), gone,
                          durable->tree().OwnPoolContext())
                  .empty());
  const std::vector<ItemId> kept_items = {5, 25};
  const Signature kept = Signature::FromItems(kept_items, 64);
  EXPECT_EQ(ExactSearch(durable->tree(), kept,
                        durable->tree().OwnPoolContext()),
            (std::vector<uint64_t>{5}));
}

TEST(DurableTreeTest, CheckpointTruncatesLogAndReopensClean) {
  const std::string dir = FreshDir("dt_ckpt");
  DurableTree::Options options;
  options.tree = SmallOptions();
  std::string error;
  auto durable = DurableTree::Open(Env::Posix(), dir, options, &error);
  ASSERT_NE(durable, nullptr) << error;
  std::vector<Transaction> batch;
  for (uint64_t tid = 0; tid < 50; ++tid) {
    batch.push_back(MakeTxn(tid, {ItemId(tid % 64), ItemId((tid * 3) % 64),
                                  ItemId((tid * 11) % 64)}));
  }
  ASSERT_EQ(durable->InsertBatch(batch), batch.size());
  const uint64_t cp_before = durable->checkpoint_seq();
  ASSERT_TRUE(durable->Checkpoint(&error)) << error;
  EXPECT_GT(durable->checkpoint_seq(), cp_before);
  durable.reset();

  durable = DurableTree::Open(Env::Posix(), dir, options, &error);
  ASSERT_NE(durable, nullptr) << error;
  // Everything lives in the page file now; replay has nothing to do.
  EXPECT_EQ(durable->recovery_report().records_replayed, 0u);
  EXPECT_EQ(durable->tree().size(), 50u);
  EXPECT_EQ(durable->op_seq(), 50u);

  // Updates after a checkpoint keep working and keep recovering.
  ASSERT_TRUE(durable->Insert(MakeTxn(100, {1, 2, 3})));
  durable.reset();
  durable = DurableTree::Open(Env::Posix(), dir, options, &error);
  ASSERT_NE(durable, nullptr) << error;
  EXPECT_EQ(durable->tree().size(), 51u);
}

TEST(DurableTreeTest, OpenWithoutOptionsAdoptsStoredShape) {
  const std::string dir = FreshDir("dt_shapeless");
  DurableTree::Options options;
  options.tree = SmallOptions();
  std::string error;
  auto durable = DurableTree::Open(Env::Posix(), dir, options, &error);
  ASSERT_NE(durable, nullptr) << error;
  ASSERT_TRUE(durable->Insert(MakeTxn(1, {3, 9})));
  durable.reset();

  DurableTree::Options shapeless;  // num_bits == 0: take it from the meta
  durable = DurableTree::Open(Env::Posix(), dir, shapeless, &error);
  ASSERT_NE(durable, nullptr) << error;
  EXPECT_EQ(durable->tree().num_bits(), 64u);
  EXPECT_EQ(durable->tree().size(), 1u);

  // A fresh directory without a shape is an error, not a guess.
  const std::string empty_dir = FreshDir("dt_shapeless_fresh");
  EXPECT_EQ(DurableTree::Open(Env::Posix(), empty_dir, shapeless, &error),
            nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(DurableTreeTest, MismatchedOptionsRejected) {
  const std::string dir = FreshDir("dt_mismatch");
  DurableTree::Options options;
  options.tree = SmallOptions();
  std::string error;
  auto durable = DurableTree::Open(Env::Posix(), dir, options, &error);
  ASSERT_NE(durable, nullptr) << error;
  ASSERT_TRUE(durable->Insert(MakeTxn(1, {3, 9})));
  durable.reset();

  DurableTree::Options wrong = options;
  wrong.tree.num_bits = 128;
  EXPECT_EQ(DurableTree::Open(Env::Posix(), dir, wrong, &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(DurableTreeTest, WalMetricsFlow) {
  const std::string dir = FreshDir("dt_metrics");
  obs::MetricsRegistry registry;
  DurableTree::Options options;
  options.tree = SmallOptions();
  options.metrics = &registry;
  std::string error;
  auto durable = DurableTree::Open(Env::Posix(), dir, options, &error);
  ASSERT_NE(durable, nullptr) << error;
  ASSERT_TRUE(durable->Insert(MakeTxn(1, {1, 5})));
  ASSERT_TRUE(durable->Insert(MakeTxn(2, {2, 6})));
  EXPECT_GE(registry.GetCounter("wal.appends")->Value(), 4u);
  EXPECT_GE(registry.GetCounter("wal.fsyncs")->Value(), 2u);
  EXPECT_GT(registry.GetCounter("wal.bytes")->Value(), 0u);
  ASSERT_TRUE(durable->Checkpoint(&error)) << error;
  EXPECT_EQ(registry.GetCounter("checkpoint.count")->Value(), 1u);
}

TEST(DurableTreeTest, AdoptBulkLoadedIsCheckpointedAndRecoverable) {
  const std::string dir = FreshDir("dt_bulk");
  DurableTree::Options options;
  options.tree = SmallOptions();
  std::string error;
  auto durable = DurableTree::Open(Env::Posix(), dir, options, &error);
  ASSERT_NE(durable, nullptr) << error;

  auto loaded = std::make_unique<SgTree>(options.tree);
  for (uint64_t tid = 0; tid < 80; ++tid) {
    loaded->Insert(MakeTxn(tid, {ItemId(tid % 64), ItemId((tid * 13) % 64)}));
  }
  ASSERT_TRUE(durable->AdoptBulkLoaded(std::move(loaded), &error)) << error;
  EXPECT_EQ(durable->tree().size(), 80u);
  durable.reset();

  durable = DurableTree::Open(Env::Posix(), dir, options, &error);
  ASSERT_NE(durable, nullptr) << error;
  EXPECT_EQ(durable->tree().size(), 80u);
  EXPECT_EQ(durable->recovery_report().records_replayed, 0u);
  ASSERT_TRUE(durable->Insert(MakeTxn(500, {7, 11})));
  durable.reset();
  durable = DurableTree::Open(Env::Posix(), dir, options, &error);
  ASSERT_NE(durable, nullptr) << error;
  EXPECT_EQ(durable->tree().size(), 81u);
}

TEST(RecoveryTest, RejectsGarbagePageFile) {
  const std::string dir = FreshDir("dt_garbage");
  ASSERT_TRUE(Env::Posix()->CreateDir(dir));
  ASSERT_TRUE(AtomicWriteFile(DurableTree::PagePathFor(dir),
                              std::vector<uint8_t>(64, 0xAB)));
  std::string error;
  EXPECT_EQ(RecoverTree(Env::Posix(), DurableTree::PagePathFor(dir),
                        DurableTree::WalPathFor(dir), &error),
            nullptr);
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// AdoptNode / page-id-stable rebuild.
// ---------------------------------------------------------------------------

TEST(SgTreeAdoptTest, AdoptNodePreservesIds) {
  SgTreeOptions options = SmallOptions();
  SgTree tree(options, std::make_unique<MemPageStore>(options.page_size));
  Node* high = tree.AdoptNode(7, 0);
  ASSERT_NE(high, nullptr);
  EXPECT_EQ(high->id, 7u);
  EXPECT_EQ(high->level, 0);
  Node* low = tree.AdoptNode(2, 1);
  EXPECT_EQ(low->id, 2u);
  EXPECT_EQ(tree.node_count(), 2u);
  // Fresh allocations steer around adopted ids.
  const PageId fresh = tree.AllocateNode(0);
  EXPECT_NE(fresh, 7u);
  EXPECT_NE(fresh, 2u);
}

}  // namespace
}  // namespace sgtree
