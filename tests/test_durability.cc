// Unit tests for the durability subsystem: CRC framing, the posix Env and
// its atomic publish, checkpoint images (verified reopen, thaw ids,
// checksum refusal, crash-atomic publication), the write-ahead log
// (record codec, framing, torn-tail scan, publication), and the
// DurableTree write path (log-before-acknowledge, group commit,
// checkpoint, reopen, refusals). Crash-schedule sweeps live in
// test_recovery_torture.cc, whole histories in test_durable_history.cc.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/signature.h"
#include "data/transaction.h"
#include "durability/byte_io.h"
#include "durability/durable_tree.h"
#include "durability/env.h"
#include "durability/fault_injection.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "obs/metrics.h"
#include "sgtree/invariant_auditor.h"
#include "sgtree/search.h"
#include "sgtree/sg_tree.h"
#include "static/static_tree_builder.h"
#include "static/static_tree_view.h"
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

SgTreeOptions SmallOptions() {
  SgTreeOptions options;
  options.num_bits = 64;
  options.page_size = 512;
  return options;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::vector<uint8_t> bytes;
  auto file = Env::Posix()->Open(path, /*create=*/false);
  if (file != nullptr) file->ReadAt(0, size_t(file->Size()), &bytes);
  return bytes;
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  ASSERT_TRUE(AtomicWriteFile(Env::Posix(), path, bytes));
}

// Every file of `dir` with its bytes: the refusal tests require a refused
// directory to stay exactly as it was.
std::vector<std::pair<std::string, std::vector<uint8_t>>> DirContents(
    const std::string& dir) {
  std::vector<std::pair<std::string, std::vector<uint8_t>>> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.emplace_back(entry.path().filename().string(),
                       ReadBytes(entry.path().string()));
  }
  std::sort(files.begin(), files.end());
  return files;
}

// The durable tree the checkpoint-image tests share: `n` logged inserts of
// small transactions into 64-bit signatures and 512-byte pages.
std::unique_ptr<DurableTree> OpenWithInserts(const std::string& dir,
                                             uint64_t n) {
  DurableTree::Options options;
  options.tree = SmallOptions();
  std::string error;
  auto durable = DurableTree::Open(Env::Posix(), dir, options, &error);
  EXPECT_NE(durable, nullptr) << error;
  if (durable == nullptr) return nullptr;
  for (uint64_t tid = 0; tid < n; ++tid) {
    EXPECT_TRUE(durable->Insert(MakeTxn(
        tid, {ItemId(tid % 64), ItemId((tid * 7 + 3) % 64),
              ItemId((tid * 13 + 5) % 64)})));
  }
  return durable;
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
  Env* env = Env::Posix();
  std::string error;
  ASSERT_TRUE(AtomicWriteFile(env, path, {1, 2, 3}, &error)) << error;
  ASSERT_TRUE(AtomicWriteFile(env, path, {9, 9}, &error)) << error;
  auto file = env->Open(path, false);
  ASSERT_NE(file, nullptr);
  std::vector<uint8_t> got;
  ASSERT_TRUE(file->ReadAt(0, 100, &got));
  EXPECT_EQ(got, (std::vector<uint8_t>{9, 9}));
  // The staging file must not linger.
  EXPECT_FALSE(env->FileExists(path + ".tmp"));
  EXPECT_FALSE(
      AtomicWriteFile(env, TempPath("no_such_dir") + "/x", {1}, &error));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// Checkpoint images. (The suite keeps the name of the page file these
// tests covered before checkpoints became static images.)
// ---------------------------------------------------------------------------

TEST(FilePageStoreTest, CreateWriteReopenRead) {
  const std::string dir = FreshDir("ckpt_basic");
  auto durable = OpenWithInserts(dir, 40);
  ASSERT_NE(durable, nullptr);
  std::string error;
  ASSERT_TRUE(durable->Checkpoint(&error)) << error;

  // The checkpoint is the live tree's static image, byte for byte, and it
  // opens with its checksums verified.
  const std::string path = CheckpointPathFor(dir, durable->checkpoint_seq());
  const std::vector<uint8_t> image = BuildStaticImage(durable->tree());
  EXPECT_EQ(ReadBytes(path), image);
  StaticOpenOptions open_options;
  open_options.verify_checksums = true;
  auto view = StaticTreeView::Open(Env::Posix(), path, open_options, &error);
  ASSERT_NE(view, nullptr) << error;
  EXPECT_EQ(view->size(), 40u);
  // Only the newest checkpoint is kept.
  EXPECT_FALSE(Env::Posix()->FileExists(
      CheckpointPathFor(dir, durable->checkpoint_seq() - 1)));
}

TEST(FilePageStoreTest, FreeListSurvivesReopen) {
  // An erase-heavy history frees and reuses nodes; the checkpoint holds the
  // live nodes only, and the reopened tree is the live tree.
  const std::string dir = FreshDir("ckpt_erase_heavy");
  auto durable = OpenWithInserts(dir, 120);
  ASSERT_NE(durable, nullptr);
  for (uint64_t tid = 0; tid < 120; tid += 4) {
    if (tid % 3 == 0) continue;
    ASSERT_TRUE(durable->Erase(MakeTxn(
        tid, {ItemId(tid % 64), ItemId((tid * 7 + 3) % 64),
              ItemId((tid * 13 + 5) % 64)})));
  }
  for (uint64_t tid = 200; tid < 220; ++tid) {
    ASSERT_TRUE(durable->Insert(MakeTxn(tid, {ItemId(tid % 64), 9})));
  }
  std::string error;
  ASSERT_TRUE(durable->Checkpoint(&error)) << error;
  const uint64_t live_nodes = durable->tree().node_count();
  const size_t live_size = durable->tree().size();
  durable.reset();

  DurableTree::Options options;
  options.tree = SmallOptions();
  durable = DurableTree::Open(Env::Posix(), dir, options, &error);
  ASSERT_NE(durable, nullptr) << error;
  EXPECT_EQ(durable->tree().node_count(), live_nodes);
  EXPECT_EQ(durable->tree().size(), live_size);
  const AuditReport audit = AuditTree(durable->tree());
  EXPECT_TRUE(audit.ok()) << audit.FirstMessage();
}

TEST(FilePageStoreTest, ReserveAndPut) {
  // A thawed tree adopts the image's node indexes as page ids; the nodes
  // later splits allocate must collide with none of them.
  const std::string dir = FreshDir("ckpt_thaw_ids");
  auto durable = OpenWithInserts(dir, 60);
  ASSERT_NE(durable, nullptr);
  std::string error;
  ASSERT_TRUE(durable->Checkpoint(&error)) << error;
  durable.reset();

  DurableTree::Options options;
  options.tree = SmallOptions();
  durable = DurableTree::Open(Env::Posix(), dir, options, &error);
  ASSERT_NE(durable, nullptr) << error;
  const std::vector<PageId> adopted = durable->tree().LiveNodes();
  for (uint64_t tid = 1000; tid < 1200; ++tid) {
    ASSERT_TRUE(durable->Insert(MakeTxn(
        tid, {ItemId(tid % 64), ItemId((tid * 11) % 64), 40})));
  }
  // A split that reused an adopted id would replace that node: the live
  // node map would then hold fewer nodes than were allocated.
  const std::vector<PageId> after = durable->tree().LiveNodes();
  EXPECT_GT(after.size(), adopted.size());
  EXPECT_EQ(after.size(), durable->tree().node_count());
  const AuditReport audit = AuditTree(durable->tree());
  EXPECT_TRUE(audit.ok()) << audit.FirstMessage();
}

TEST(FilePageStoreTest, ChecksumMismatchDetected) {
  const std::string dir = FreshDir("ckpt_crc");
  auto durable = OpenWithInserts(dir, 30);
  ASSERT_NE(durable, nullptr);
  std::string error;
  ASSERT_TRUE(durable->Checkpoint(&error)) << error;
  const std::string path = CheckpointPathFor(dir, durable->checkpoint_seq());
  durable.reset();

  // Flip one byte of the last node record behind the tree's back.
  std::vector<uint8_t> bytes = ReadBytes(path);
  ASSERT_GT(bytes.size(), 200u);
  bytes[bytes.size() - 3] ^= 0x20;
  WriteBytes(path, bytes);

  DurableTree::Options options;
  options.tree = SmallOptions();
  EXPECT_EQ(DurableTree::Open(Env::Posix(), dir, options, &error), nullptr);
  EXPECT_NE(error.find("body checksum mismatch"), std::string::npos)
      << error;
}

TEST(FilePageStoreTest, HeaderPingPongSurvivesTornHeaderWrite) {
  // A kill at every write of a checkpoint's publications (image, then log),
  // torn or whole, still recovers every acknowledged operation.
  const std::string reference_dir = FreshDir("ckpt_kill_count");
  FaultState state;
  FaultInjectingEnv env(Env::Posix(), &state);
  DurableTree::Options options;
  options.tree = SmallOptions();
  std::string error;
  uint64_t ops_writes = 0;
  {
    auto durable = OpenWithInserts(reference_dir, 25);
    ASSERT_NE(durable, nullptr);
  }
  {
    state.Reset();
    auto durable = DurableTree::Open(&env, reference_dir, options, &error);
    ASSERT_NE(durable, nullptr) << error;
    ops_writes = state.writes_issued();
    ASSERT_TRUE(durable->Checkpoint(&error)) << error;
  }
  const uint64_t checkpoint_writes = state.writes_issued() - ops_writes;
  // Temp file truncate + append + rename, once for the image and once for
  // the log.
  ASSERT_EQ(checkpoint_writes, 6u);

  for (uint64_t kill = 1; kill <= checkpoint_writes; ++kill) {
    for (const uint64_t torn : {UINT64_MAX, uint64_t{9}}) {
      SCOPED_TRACE("kill " + std::to_string(kill) + " torn " +
                   std::to_string(torn));
      const std::string dir = FreshDir("ckpt_kill");
      {
        auto durable = OpenWithInserts(dir, 25);
        ASSERT_NE(durable, nullptr);
      }
      state.Reset();
      FaultPlan plan;
      plan.kill_at_write = kill;
      plan.torn_prefix_bytes = torn;
      state.set_plan(plan);
      {
        auto durable = DurableTree::Open(&env, dir, options, &error);
        ASSERT_NE(durable, nullptr) << error;
        EXPECT_FALSE(durable->Checkpoint(&error));
      }
      state.set_plan(FaultPlan{});
      auto durable = DurableTree::Open(Env::Posix(), dir, options, &error);
      ASSERT_NE(durable, nullptr) << error;
      EXPECT_EQ(durable->tree().size(), 25u);
      EXPECT_EQ(durable->op_seq(), 25u);
    }
  }
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

WalRecord Marker(uint64_t checkpoint_seq, uint64_t op_seq) {
  WalRecord record;
  record.type = WalRecordType::kCheckpoint;
  record.checkpoint_seq = checkpoint_seq;
  record.op_seq = op_seq;
  return record;
}

WalRecord OpRecord(WalRecordType type, uint64_t tid,
                   std::vector<uint32_t> positions) {
  WalRecord record;
  record.type = type;
  record.tid = tid;
  record.positions = std::move(positions);
  return record;
}

void ExpectSameRecord(const WalRecord& a, const WalRecord& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.checkpoint_seq, b.checkpoint_seq);
  EXPECT_EQ(a.op_seq, b.op_seq);
  EXPECT_EQ(a.tid, b.tid);
  EXPECT_EQ(a.positions, b.positions);
}

TEST(WalRecordTest, AllTypesRoundTrip) {
  const std::vector<WalRecord> records = {
      Marker(42, 1'000'000'007),
      OpRecord(WalRecordType::kInsert, 9, {0, 3, 63}),
      OpRecord(WalRecordType::kErase, uint64_t{1} << 40, {17}),
      OpRecord(WalRecordType::kInsert, 5, {}),
  };
  for (const WalRecord& record : records) {
    std::vector<uint8_t> payload;
    EncodeWalRecord(record, &payload);
    WalRecord decoded;
    ASSERT_TRUE(DecodeWalRecord(payload, &decoded));
    ExpectSameRecord(decoded, record);
  }
  // A framed insert of |t| items is 21 + 4|t| bytes.
  std::vector<uint8_t> payload;
  EncodeWalRecord(records[1], &payload);
  EXPECT_EQ(8 + payload.size(), 21u + 4u * 3u);
}

TEST(WalRecordTest, MalformedPayloadsRejected) {
  WalRecord decoded;
  EXPECT_FALSE(DecodeWalRecord({}, &decoded));
  EXPECT_FALSE(DecodeWalRecord({0}, &decoded));     // type 0 invalid
  EXPECT_FALSE(DecodeWalRecord({99}, &decoded));    // unknown type
  // The retired page-image log's record types are never read.
  for (const uint8_t retired : {2, 3, 4, 5}) {
    std::vector<uint8_t> payload = {retired};
    AppendU32(1, &payload);
    EXPECT_FALSE(DecodeWalRecord(payload, &decoded)) << int(retired);
  }
  std::vector<uint8_t> payload;
  EncodeWalRecord(OpRecord(WalRecordType::kInsert, 1, {4, 8}), &payload);
  // Trailing junk after a record is corruption, not padding.
  std::vector<uint8_t> longer = payload;
  longer.push_back(0);
  EXPECT_FALSE(DecodeWalRecord(longer, &decoded));
  // A count that disagrees with the payload is not an allocation request.
  std::vector<uint8_t> lying = payload;
  lying[9] = 0xFF;
  lying[12] = 0x7F;
  EXPECT_FALSE(DecodeWalRecord(lying, &decoded));
  // Positions must be strictly increasing.
  for (const std::vector<uint32_t>& positions :
       {std::vector<uint32_t>{8, 4}, std::vector<uint32_t>{4, 4}}) {
    std::vector<uint8_t> unordered;
    EncodeWalRecord(OpRecord(WalRecordType::kErase, 1, positions),
                    &unordered);
    EXPECT_FALSE(DecodeWalRecord(unordered, &decoded));
  }
}

TEST(WalTest, AppendScanRoundTrip) {
  Env* env = Env::Posix();
  const std::string path = TempPath("wal_roundtrip.sgw");
  env->Delete(path);
  obs::MetricsRegistry registry;
  std::string error;
  auto wal = Wal::Publish(env, path, Marker(1, 0), &registry, &error);
  ASSERT_NE(wal, nullptr) << error;
  const WalRecord insert = OpRecord(WalRecordType::kInsert, 4, {9, 18, 27});
  ASSERT_TRUE(wal->Append(insert));
  ASSERT_TRUE(wal->Commit());
  EXPECT_EQ(wal->records_appended(), 1u);
  // The published marker is not an append.
  EXPECT_EQ(registry.GetCounter("wal.appends")->Value(), 1u);
  wal.reset();

  std::vector<uint8_t> region;
  ASSERT_TRUE(Wal::ReadRecordRegion(env, path, &region, &error)) << error;
  WalScanner scanner(region.data(), region.size());
  WalRecord record;
  ASSERT_TRUE(scanner.Next(&record));
  ExpectSameRecord(record, Marker(1, 0));
  ASSERT_TRUE(scanner.Next(&record));
  ExpectSameRecord(record, insert);
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
  auto wal = Wal::Publish(env, path, Marker(1, 0), nullptr, &error);
  ASSERT_NE(wal, nullptr) << error;
  ASSERT_TRUE(wal->Append(OpRecord(WalRecordType::kInsert, 1, {1})));
  const uint64_t clean_size = wal->size_bytes();
  std::vector<uint32_t> many;
  for (uint32_t i = 0; i < 16; ++i) many.push_back(i * 3);
  ASSERT_TRUE(wal->Append(OpRecord(WalRecordType::kInsert, 2, many)));
  ASSERT_TRUE(wal->Commit());
  wal.reset();

  // Tear the last record in half.
  auto file = env->Open(path, false);
  ASSERT_NE(file, nullptr);
  ASSERT_TRUE(file->Truncate(clean_size + 10));
  file.reset();

  std::vector<uint8_t> region;
  ASSERT_TRUE(Wal::ReadRecordRegion(env, path, &region, &error)) << error;
  WalScanner scanner(region.data(), region.size());
  WalRecord record;
  ASSERT_TRUE(scanner.Next(&record));
  ASSERT_TRUE(scanner.Next(&record));
  EXPECT_FALSE(scanner.Next(&record));
  EXPECT_TRUE(scanner.torn());
  EXPECT_EQ(scanner.valid_end() + Wal::RecordRegionStart(), clean_size);
  EXPECT_EQ(scanner.records(), 2u);
}

TEST(WalTest, ScannerStopsAtCorruptPayloadAndInsaneLength) {
  Env* env = Env::Posix();
  const std::string path = TempPath("wal_corrupt.sgw");
  env->Delete(path);
  std::string error;
  auto wal = Wal::Publish(env, path, Marker(1, 0), nullptr, &error);
  ASSERT_NE(wal, nullptr) << error;
  ASSERT_TRUE(wal->Append(OpRecord(WalRecordType::kInsert, 1, {5})));
  const uint64_t last_frame = wal->size_bytes();
  ASSERT_TRUE(wal->Append(OpRecord(WalRecordType::kInsert, 2, {6})));
  ASSERT_TRUE(wal->Commit());
  wal.reset();

  // Flip a payload byte of the last record: the ones before it still scan.
  auto file = env->Open(path, false);
  ASSERT_NE(file, nullptr);
  const uint8_t evil = 0xEE;
  ASSERT_TRUE(file->WriteAt(last_frame + 9, &evil, 1));
  file.reset();

  std::vector<uint8_t> region;
  ASSERT_TRUE(Wal::ReadRecordRegion(env, path, &region, &error)) << error;
  WalScanner scanner(region.data(), region.size());
  WalRecord record;
  EXPECT_TRUE(scanner.Next(&record));
  EXPECT_TRUE(scanner.Next(&record));
  EXPECT_FALSE(scanner.Next(&record));
  EXPECT_TRUE(scanner.torn());
  EXPECT_EQ(scanner.records(), 2u);

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
  auto wal = Wal::Publish(env, path, Marker(8, 30), nullptr, &error);
  ASSERT_NE(wal, nullptr) << error;
  ASSERT_TRUE(wal->Append(OpRecord(WalRecordType::kInsert, 1, {1})));
  const uint64_t clean = wal->size_bytes();
  ASSERT_TRUE(wal->Append(OpRecord(WalRecordType::kInsert, 2, {2})));
  ASSERT_TRUE(wal->Commit());
  wal.reset();

  auto file = env->Open(path, false);
  ASSERT_TRUE(file->Truncate(clean + 3));
  file.reset();

  wal = Wal::OpenForAppend(env, path, clean - Wal::RecordRegionStart(),
                           nullptr, &error);
  ASSERT_NE(wal, nullptr) << error;
  EXPECT_EQ(wal->size_bytes(), clean);
  EXPECT_EQ(ReadBytes(path).size(), clean);
  ASSERT_TRUE(wal->Append(OpRecord(WalRecordType::kErase, 1, {1})));
  ASSERT_TRUE(wal->Commit());
  wal.reset();

  // A checkpoint publishes a new log holding only its marker over the old
  // one; the old file is replaced whole, not truncated in place.
  wal = Wal::Publish(env, path, Marker(9, 31), nullptr, &error);
  ASSERT_NE(wal, nullptr) << error;
  wal.reset();
  EXPECT_FALSE(env->FileExists(path + ".tmp"));
  std::vector<uint8_t> region;
  ASSERT_TRUE(Wal::ReadRecordRegion(env, path, &region, &error)) << error;
  WalScanner scanner(region.data(), region.size());
  WalRecord record;
  ASSERT_TRUE(scanner.Next(&record));
  ExpectSameRecord(record, Marker(9, 31));
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
// The log's commit records. (The suite keeps the name of the tree meta
// blob the retired page file committed with.)
// ---------------------------------------------------------------------------

TEST(MetaTest, RoundTripAndTruncationRejected) {
  for (const WalRecord& record :
       {Marker(12, 99), OpRecord(WalRecordType::kInsert, 7, {3, 40, 80}),
        OpRecord(WalRecordType::kErase, 1000, {127})}) {
    std::vector<uint8_t> payload;
    EncodeWalRecord(record, &payload);
    WalRecord decoded;
    ASSERT_TRUE(DecodeWalRecord(payload, &decoded));
    ExpectSameRecord(decoded, record);
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      const std::vector<uint8_t> prefix(payload.begin(),
                                        payload.begin() + ptrdiff_t(cut));
      EXPECT_FALSE(DecodeWalRecord(prefix, &decoded)) << cut;
    }
  }
}

TEST(MetaTest, DefaultAreaWindowIsEmptySentinel) {
  // An empty durable tree's checkpoint stores the trivial window [0, bits],
  // and the reopened empty tree notes no transaction area from it.
  const std::string dir = FreshDir("ckpt_empty_window");
  DurableTree::Options options;
  options.tree = SmallOptions();
  std::string error;
  {
    auto durable = DurableTree::Open(Env::Posix(), dir, options, &error);
    ASSERT_NE(durable, nullptr) << error;
  }
  auto view = StaticTreeView::Open(Env::Posix(), CheckpointPathFor(dir, 1),
                                   StaticOpenOptions{}, &error);
  ASSERT_NE(view, nullptr) << error;
  EXPECT_EQ(view->size(), 0u);
  EXPECT_EQ(view->stored_area_window(), std::make_pair(0u, 64u));
  view.reset();
  auto durable = DurableTree::Open(Env::Posix(), dir, options, &error);
  ASSERT_NE(durable, nullptr) << error;
  ASSERT_TRUE(durable->Insert(MakeTxn(1, {3, 9})));
  EXPECT_EQ(durable->tree().TransactionAreaBounds(),
            std::make_pair(2u, 2u));
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
  EXPECT_EQ(durable->recovery_report().records_replayed, ops);
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
  // Everything lives in the checkpoint image now; replay has nothing to
  // do.
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

  DurableTree::Options shapeless;  // num_bits == 0: take it from the image
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
  // The node capacity is compared too: LoadTree alone would silently take
  // the image's.
  wrong = options;
  wrong.tree.max_entries = SmallOptions().ResolvedMaxEntries() + 1;
  EXPECT_EQ(DurableTree::Open(Env::Posix(), dir, wrong, &error), nullptr);
  EXPECT_NE(error.find("node capacity"), std::string::npos) << error;
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
  // One record per operation: 21 + 4 * 2 bytes each.
  EXPECT_EQ(registry.GetCounter("wal.appends")->Value(), 2u);
  EXPECT_GE(registry.GetCounter("wal.fsyncs")->Value(), 2u);
  const uint64_t bytes = registry.GetCounter("wal.bytes")->Value();
  EXPECT_EQ(bytes, 2u * 29u);
  ASSERT_TRUE(durable->Checkpoint(&error)) << error;
  EXPECT_EQ(registry.GetCounter("checkpoint.count")->Value(), 1u);
  // The log a checkpoint publishes counts into the same registry.
  ASSERT_TRUE(durable->Insert(MakeTxn(3, {3, 7})));
  EXPECT_EQ(registry.GetCounter("wal.appends")->Value(), 3u);
  EXPECT_GT(registry.GetCounter("wal.bytes")->Value(), bytes);
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
  // A garbage checkpoint image is refused, not thawed.
  const std::string dir = FreshDir("dt_garbage");
  {
    auto durable = OpenWithInserts(dir, 5);
    ASSERT_NE(durable, nullptr);
  }
  WriteBytes(CheckpointPathFor(dir, 1), std::vector<uint8_t>(64, 0xAB));
  std::string error;
  EXPECT_EQ(RecoverTree(Env::Posix(), dir, &error), nullptr);
  EXPECT_NE(error.find(CheckpointPathFor(dir, 1)), std::string::npos)
      << error;
}

TEST(DurableTreeTest, UnreadableCheckpointMarkerIsRefused) {
  // One flipped bit in the first frame makes the marker unreadable. The
  // log must be refused, never taken for an empty one: that would drop
  // every acknowledged insert and overwrite the log.
  const std::string dir = FreshDir("dt_bad_marker");
  {
    auto durable = OpenWithInserts(dir, 42);
    ASSERT_NE(durable, nullptr);
  }
  const std::string wal_path = WalPathFor(dir);
  std::vector<uint8_t> wal = ReadBytes(wal_path);
  ASSERT_GT(wal.size(), Wal::RecordRegionStart() + 12);
  wal[Wal::RecordRegionStart() + 8 + 3] ^= 0x04;  // Marker payload byte 3.
  WriteBytes(wal_path, wal);
  const auto before = DirContents(dir);

  DurableTree::Options options;
  options.tree = SmallOptions();
  std::string error;
  EXPECT_EQ(DurableTree::Open(Env::Posix(), dir, options, &error), nullptr);
  EXPECT_EQ(error, "wal " + wal_path + ": unreadable checkpoint marker");
  error.clear();
  EXPECT_EQ(RecoverTree(Env::Posix(), dir, &error), nullptr);
  EXPECT_EQ(error, "wal " + wal_path + ": unreadable checkpoint marker");
  EXPECT_EQ(DirContents(dir), before);

  // A log cut short of its marker is refused the same way.
  WriteBytes(wal_path, std::vector<uint8_t>(wal.begin(), wal.begin() + 4));
  EXPECT_EQ(DurableTree::Open(Env::Posix(), dir, options, &error), nullptr);
  EXPECT_EQ(error, "wal " + wal_path + ": unreadable checkpoint marker");
}

TEST(DurableTreeTest, RetiredPageFileDirectoryIsRefused) {
  // A directory written by the page-file DurableTree (pages.sgp + a log of
  // page images) is refused, and nothing is created beside it.
  const std::string dir = FreshDir("dt_retired");
  std::filesystem::copy(std::string(SGTREE_GOLDEN_DIR) + "/durable_v1_small",
                        dir);
  const auto before = DirContents(dir);
  DurableTree::Options options;
  options.tree = SmallOptions();
  std::string error;
  EXPECT_EQ(DurableTree::Open(Env::Posix(), dir, options, &error), nullptr);
  EXPECT_EQ(error, dir + ": retired page-file format (pages.sgp); rebuild "
                         "the index from its data");
  EXPECT_EQ(DurableTree::Open(Env::Posix(), dir, DurableTree::Options{},
                              &error),
            nullptr);
  EXPECT_EQ(RecoverTree(Env::Posix(), dir, &error), nullptr);
  EXPECT_NE(error.find("retired page-file format"), std::string::npos);
  EXPECT_EQ(DirContents(dir), before);
}

TEST(DurableTreeTest, ForeignLogIsRefused) {
  // Replaying a log on an image it does not belong to would double-apply
  // or miss operations; an erase that finds nothing gives it away.
  const std::string dir = FreshDir("dt_foreign");
  {
    auto durable = OpenWithInserts(dir, 10);
    ASSERT_NE(durable, nullptr);
    ASSERT_TRUE(durable->Erase(MakeTxn(3, {3, 24, 44})));
  }
  // Pair the log with an empty image under the marker's name.
  SgTree empty(SmallOptions());
  std::string error;
  ASSERT_TRUE(BuildStaticTree(empty, CheckpointPathFor(dir, 1), &error));
  {
    // Drop the inserts: keep the marker and the erase only.
    std::vector<uint8_t> region;
    ASSERT_TRUE(Wal::ReadRecordRegion(Env::Posix(), WalPathFor(dir), &region,
                                      &error));
    WalScanner scanner(region.data(), region.size());
    WalRecord marker;
    ASSERT_TRUE(scanner.Next(&marker));
    WalRecord record;
    while (scanner.Next(&record)) {
    }
    ASSERT_EQ(record.type, WalRecordType::kErase);
    auto wal = Wal::Publish(Env::Posix(), WalPathFor(dir), marker, nullptr,
                            &error);
    ASSERT_NE(wal, nullptr) << error;
    ASSERT_TRUE(wal->Append(record));
    ASSERT_TRUE(wal->Commit());
  }
  EXPECT_EQ(RecoverTree(Env::Posix(), dir, &error), nullptr);
  EXPECT_NE(error.find("erases tid 3, which is not indexed"),
            std::string::npos)
      << error;

  // A position beyond the image's signature width gives it away as well.
  ASSERT_TRUE(BuildStaticTree(SgTree([] {
                                SgTreeOptions narrow = SmallOptions();
                                narrow.num_bits = 16;
                                return narrow;
                              }()),
                              CheckpointPathFor(dir, 1), &error));
  EXPECT_EQ(RecoverTree(Env::Posix(), dir, &error), nullptr);
  EXPECT_NE(error.find("sets bit 44 of a 16-bit signature"),
            std::string::npos)
      << error;
}

// ---------------------------------------------------------------------------
// AdoptNode: the thaw's page-id-stable rebuild.
// ---------------------------------------------------------------------------

TEST(SgTreeAdoptTest, AdoptNodePreservesIds) {
  SgTreeOptions options = SmallOptions();
  SgTree tree(options);
  const MutableNodeView high = tree.AdoptNode(7, 0, 0);
  EXPECT_EQ(high.level(), 0);
  EXPECT_EQ(high.Count(), 0u);
  const MutableNodeView low = tree.AdoptNode(2, 1, 0);
  EXPECT_EQ(low.level(), 1);
  EXPECT_EQ(tree.node_count(), 2u);
  // The nodes live at exactly the adopted ids.
  EXPECT_EQ(tree.LiveNodes(), (std::vector<PageId>{2, 7}));
  EXPECT_EQ(tree.GetNodeNoCharge(7).level(), 0);
  EXPECT_EQ(tree.GetNodeNoCharge(2).level(), 1);
  // Fresh allocations steer around adopted ids.
  const PageId fresh = tree.AllocateNode(0);
  EXPECT_NE(fresh, 7u);
  EXPECT_NE(fresh, 2u);
}

// A record adopted with less room than an overflowing node needs (as the
// thaw adopts every record, at its stored size) is widened at its first
// edit: an adopted root leaf takes M+1 entries and splits.
TEST(SgTreeAdoptTest, AdoptedRecordWidensAtFirstEdit) {
  SgTree tree(SmallOptions());
  tree.AdoptNode(4, 0, 0);
  tree.SetRoot(4, 1, 0);
  for (uint64_t tid = 0; tid <= tree.max_entries(); ++tid) {
    tree.Insert(Transaction{tid, {static_cast<ItemId>(tid % 64)}});
  }
  EXPECT_EQ(tree.height(), 2u);
  EXPECT_EQ(tree.size(), tree.max_entries() + size_t{1});
  const AuditReport audit = AuditTree(tree);
  EXPECT_TRUE(audit.ok()) << audit.FirstMessage();
}

}  // namespace
}  // namespace sgtree
