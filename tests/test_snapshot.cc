// Snapshot tests: saving a tree as a static image and loading it back by
// thawing (static/static_tree_builder.h). Covers the round trip, the thaw's
// byte-for-byte property, crash-atomic saves, truncated / foreign / corrupt
// files, and the refusal of the retired SGTREE01 snapshot format by every
// reader. Carries the `static` ctest label with the other image suites.

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/linear_scan.h"
#include "common/rng.h"
#include "durability/env.h"
#include "sgtree/bulk_load.h"
#include "sgtree/invariant_auditor.h"
#include "sgtree/search.h"
#include "sgtree/sg_tree.h"
#include "shard/sharded_index.h"
#include "static/static_tree_builder.h"
#include "static/static_tree_view.h"
#include "storage/codec.h"
#include "tests/test_util.h"
#include "tools/cli.h"

namespace sgtree {
namespace {

using ::sgtree::testing::ClusteredDataset;
using ::sgtree::testing::RandomSignature;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

SgTreeOptions SmallOptions(uint32_t num_bits = 120) {
  SgTreeOptions options;
  options.num_bits = num_bits;
  options.max_entries = 8;
  return options;
}

// Capacity derived from a small page rather than set outright.
SgTreeOptions PageOptions() {
  SgTreeOptions options;
  options.num_bits = 64;
  options.page_size = 512;
  return options;
}

Transaction MakeTxn(uint64_t tid, std::vector<ItemId> items) {
  Transaction txn;
  txn.tid = tid;
  txn.items = std::move(items);
  return txn;
}

// ---------------------------------------------------------------------------
// Save and load.
// ---------------------------------------------------------------------------

// The parameter picks the data: sparse transactions that §3.2 would
// compress (about 8 items of 1000), or dense ones that it would store raw
// (about 40 items of 120). Snapshots are dense static images either way,
// so both trees must round trip the same way.
class PersistenceTest : public ::testing::TestWithParam<bool> {};

TEST_P(PersistenceTest, SaveLoadRoundTripPreservesStructure) {
  const bool sparse = GetParam();
  const uint32_t num_bits = sparse ? 1000 : 120;
  const Dataset dataset =
      ClusteredDataset(10, 400, num_bits, 8, sparse ? 8 : 40, 2);
  for (const Transaction& txn : dataset.transactions) {
    const Signature sig = Signature::FromItems(txn.items, num_bits);
    if (sparse) {
      ASSERT_LT(EncodedSize(sig), DenseEncodedSize(num_bits));
    } else {
      ASSERT_EQ(EncodedSize(sig), DenseEncodedSize(num_bits));
    }
  }
  const SgTreeOptions options = SmallOptions(num_bits);
  SgTree tree(options);
  for (const Transaction& txn : dataset.transactions) tree.Insert(txn);

  // Parameter-unique path: ctest runs the two instances concurrently, and
  // a shared file would race between one instance's save and the other's
  // cleanup.
  const std::string path = TempPath(sparse ? "sgtree_save_compressed.bin"
                                           : "sgtree_save_dense.bin");
  ASSERT_TRUE(BuildStaticTree(tree, path));
  auto loaded = LoadTree(path, options);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->size(), tree.size());
  EXPECT_EQ(loaded->height(), tree.height());
  EXPECT_EQ(loaded->node_count(), tree.node_count());
  const AuditReport report = AuditTree(*loaded);
  EXPECT_TRUE(report.ok()) << report.FirstMessage();

  // Loaded tree answers identically.
  LinearScan scan(dataset);
  Rng rng(11);
  for (int q = 0; q < 20; ++q) {
    const Signature query =
        RandomSignature(rng, num_bits, sparse ? 0.008 : 0.3);
    EXPECT_DOUBLE_EQ(DfsNearest(*loaded, query).distance,
                     scan.Nearest(query).distance);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(CompressOnOff, PersistenceTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "compressed" : "dense";
                         });

TEST(PersistenceTest, EmptyTreeRoundTrip) {
  SgTree tree(SmallOptions());
  const std::string path = TempPath("sgtree_empty.bin");
  ASSERT_TRUE(BuildStaticTree(tree, path));
  auto loaded = LoadTree(path, SmallOptions());
  ASSERT_NE(loaded, nullptr);
  EXPECT_TRUE(loaded->empty());
  std::remove(path.c_str());
}

TEST(PersistenceTest, LoadRejectsGarbage) {
  const std::string path = TempPath("sgtree_garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a tree";
  }
  EXPECT_EQ(LoadTree(path, SmallOptions()), nullptr);
  std::remove(path.c_str());
}

TEST(PersistenceTest, LoadRejectsWidthMismatch) {
  SgTree tree(SmallOptions(120));
  tree.Insert(Signature::FromItems(std::vector<uint32_t>{3}, 120), 1);
  const std::string path = TempPath("sgtree_width.bin");
  ASSERT_TRUE(BuildStaticTree(tree, path));
  SgTreeOptions wrong = SmallOptions(200);
  EXPECT_EQ(LoadTree(path, wrong), nullptr);
  std::remove(path.c_str());
}

TEST(PersistenceTest, LoadedTreeAcceptsFurtherUpdates) {
  const Dataset dataset = ClusteredDataset(12, 300, 120, 6, 10, 2);
  SgTree tree(SmallOptions());
  for (const Transaction& txn : dataset.transactions) tree.Insert(txn);
  const std::string path = TempPath("sgtree_update.bin");
  ASSERT_TRUE(BuildStaticTree(tree, path));
  auto loaded = LoadTree(path, SmallOptions());
  ASSERT_NE(loaded, nullptr);

  Rng rng(13);
  for (uint64_t i = 0; i < 200; ++i) {
    Signature sig = RandomSignature(rng, 120, 0.07);
    if (sig.Empty()) sig.Set(1);
    loaded->Insert(sig, 1000 + i);
  }
  ASSERT_TRUE(loaded->Erase(dataset.transactions[0]));
  EXPECT_EQ(loaded->size(), 300u + 200u - 1u);
  const AuditReport report = AuditTree(*loaded);
  EXPECT_TRUE(report.ok()) << report.FirstMessage();
  std::remove(path.c_str());
}

TEST(PersistenceTest, SaveIsAtomicAndLoadReportsTruncation) {
  SgTreeOptions options = PageOptions();
  SgTree tree(options);
  for (uint64_t tid = 0; tid < 40; ++tid) {
    tree.Insert(MakeTxn(tid, {ItemId(tid % 64), ItemId((tid * 7) % 64)}));
  }
  const std::string path = TempPath("snapshot.sgt");
  std::string error = "stale";
  ASSERT_TRUE(BuildStaticTree(tree, path, &error));
  EXPECT_TRUE(error.empty());
  EXPECT_FALSE(Env::Posix()->FileExists(path + ".tmp"));

  auto loaded = LoadTree(path, options, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_EQ(loaded->size(), tree.size());

  // Every truncation point must be rejected with a clear diagnostic.
  auto file = Env::Posix()->Open(path, false);
  ASSERT_NE(file, nullptr);
  const uint64_t full = file->Size();
  file.reset();
  for (uint64_t cut : {full - 1, full / 2, uint64_t{10}, uint64_t{3}}) {
    auto trunc = Env::Posix()->Open(path, false);
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(trunc->ReadAt(0, full, &bytes));
    trunc.reset();
    const std::string cut_path = TempPath("snapshot_cut.sgt");
    bytes.resize(cut);
    ASSERT_TRUE(AtomicWriteFile(Env::Posix(), cut_path, bytes));
    EXPECT_EQ(LoadTree(cut_path, options, &error), nullptr) << cut;
    EXPECT_NE(error.find("truncated"), std::string::npos)
        << "cut " << cut << ": " << error;
  }
}

TEST(PersistenceTest, BadMagicAndShapeMismatchReported) {
  const std::string path = TempPath("not_a_tree.sgt");
  ASSERT_TRUE(AtomicWriteFile(
      Env::Posix(), path, std::vector<uint8_t>{'n', 'o', 'p', 'e', 0, 0, 0, 0, 0, 0}));
  std::string error;
  SgTreeOptions options = PageOptions();
  EXPECT_EQ(LoadTree(path, options, &error), nullptr);
  EXPECT_NE(error.find("magic"), std::string::npos) << error;

  SgTree tree(options);
  tree.Insert(MakeTxn(1, {1, 2}));
  const std::string good = TempPath("width.sgt");
  ASSERT_TRUE(BuildStaticTree(tree, good, &error));
  SgTreeOptions wrong = options;
  wrong.num_bits = 128;
  EXPECT_EQ(LoadTree(good, wrong, &error), nullptr);
  EXPECT_NE(error.find("width"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Corruption injection.
// ---------------------------------------------------------------------------

class PersistenceCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const Dataset dataset = ClusteredDataset(510, 300, 120, 6, 10, 2);
    SgTreeOptions options;
    options.num_bits = 120;
    options.max_entries = 8;
    tree_ = std::make_unique<SgTree>(options);
    for (const Transaction& txn : dataset.transactions) tree_->Insert(txn);
    // Test-unique path: ctest runs the fixture's tests concurrently, and a
    // shared file would race between one test's writes and the other's
    // TearDown cleanup.
    path_ = ::testing::TempDir() + "/sgtree_corrupt_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".bin";
    ASSERT_TRUE(BuildStaticTree(*tree_, path_));
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in), {});
    options_ = options;
  }

  void TearDown() override { std::remove(path_.c_str()); }

  void WriteBytes(const std::vector<char>& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::unique_ptr<SgTree> tree_;
  SgTreeOptions options_;
  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(PersistenceCorruptionTest, TruncationsNeverCrash) {
  // Truncate at a spread of offsets; loading must fail cleanly or, for a
  // full-length file, succeed.
  for (size_t cut = 0; cut < bytes_.size(); cut += 97) {
    WriteBytes(std::vector<char>(bytes_.begin(), bytes_.begin() + cut));
    EXPECT_EQ(LoadTree(path_, options_), nullptr) << "cut=" << cut;
  }
  WriteBytes(bytes_);
  EXPECT_NE(LoadTree(path_, options_), nullptr);
}

TEST_F(PersistenceCorruptionTest, BitFlipsLoadCleanlyOrFail) {
  // Flip one byte at a spread of positions. The loader may reject the file
  // or produce a tree; it must never crash, and an accepted tree must pass
  // at least basic accounting (the audit's traversal terminates).
  for (size_t pos = 8; pos < bytes_.size(); pos += 131) {
    std::vector<char> mutated = bytes_;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5a);
    WriteBytes(mutated);
    auto loaded = LoadTree(path_, options_);
    if (loaded != nullptr) {
      (void)AuditTree(*loaded);  // Must terminate without crashing.
    }
  }
}

// ---------------------------------------------------------------------------
// The thaw's property: image -> tree -> image is the identity.
// ---------------------------------------------------------------------------

TEST(ThawTest, RebuildsTheImageByteForByteAndAuditsClean) {
  const Dataset dataset = ClusteredDataset(21, 500, 120, 8, 10, 2);
  const SgTreeOptions options = SmallOptions();
  std::vector<std::pair<std::string, std::unique_ptr<SgTree>>> trees;

  auto inserted = std::make_unique<SgTree>(options);
  for (const Transaction& txn : dataset.transactions) inserted->Insert(txn);
  trees.emplace_back("inserted", std::move(inserted));

  for (const BulkLoadOrder order :
       {BulkLoadOrder::kGrayCode, BulkLoadOrder::kClusterPartition,
        BulkLoadOrder::kMinHash}) {
    BulkLoadOptions bulk;
    bulk.order = order;
    trees.emplace_back("bulk order " + std::to_string(static_cast<int>(order)),
                       BulkLoad(dataset, options, bulk));
  }

  // Erases dissolve underflowing nodes and free their pages, so the live
  // page ids are no longer dense; the image renumbers them.
  auto erased = std::make_unique<SgTree>(options);
  for (const Transaction& txn : dataset.transactions) erased->Insert(txn);
  for (size_t i = 0; i < dataset.transactions.size(); i += 3) {
    ASSERT_TRUE(erased->Erase(dataset.transactions[i]));
  }
  trees.emplace_back("after erases", std::move(erased));

  trees.emplace_back("empty", std::make_unique<SgTree>(options));

  for (const auto& [label, tree] : trees) {
    SCOPED_TRACE(label);
    const std::vector<uint8_t> image = BuildStaticImage(*tree);
    std::string error;
    StaticOpenOptions open_options;
    open_options.tree = options;
    auto view = StaticTreeView::OpenFromBytes(image.data(), image.size(),
                                              open_options, &error);
    ASSERT_NE(view, nullptr) << error;

    const std::unique_ptr<SgTree> thawed = ThawStatic(std::move(view));
    EXPECT_EQ(thawed->size(), tree->size());
    EXPECT_EQ(BuildStaticImage(*thawed), image);
    const AuditReport audit = AuditTree(*thawed);
    EXPECT_TRUE(audit.ok()) << audit.Summary();
  }
}

// ---------------------------------------------------------------------------
// Migration: the retired SGTREE01 snapshot format.
// ---------------------------------------------------------------------------

std::string GoldenPath(const std::string& name) {
  return std::string(SGTREE_GOLDEN_DIR) + "/" + name;
}

// One line that names the retired format and says to rebuild.
void ExpectRetiredFormatReason(const std::string& text) {
  EXPECT_NE(text.find("SGTREE01"), std::string::npos) << text;
  EXPECT_NE(text.find("retired"), std::string::npos) << text;
  EXPECT_NE(text.find("rebuild"), std::string::npos) << text;
  const size_t newline = text.find('\n');
  EXPECT_TRUE(newline == std::string::npos || newline + 1 == text.size())
      << "more than one line: " << text;
}

struct CliRun {
  int code;
  std::string out;
  std::string err;
};

CliRun RunCliArgs(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = RunCli(args, out, err);
  return {code, out.str(), err.str()};
}

// Files written by SaveTree before the format was retired:
// DeterministicTree(20) of test_static_format.cc (96 bits, capacity 8,
// compressed) and an empty tree, whose file is only the 45-byte header.
TEST(SnapshotMigrationTest, Sgtree01FilesAreRefusedByEveryReader) {
  for (const std::string name :
       {"snapshot_sgtree01_small.bin", "snapshot_sgtree01_empty.bin"}) {
    SCOPED_TRACE(name);
    const std::string path = GoldenPath(name);
    ASSERT_TRUE(Env::Posix()->FileExists(path));

    std::string error;
    EXPECT_EQ(LoadTree(path, SgTreeOptions{}, &error), nullptr);
    ExpectRetiredFormatReason(error);

    for (const std::vector<std::string>& args :
         {std::vector<std::string>{"query", "nn", "--index", path, "--q", "3"},
          std::vector<std::string>{"stats", "--index", path},
          std::vector<std::string>{"check", "--index", path}}) {
      const CliRun run = RunCliArgs(args);
      EXPECT_EQ(run.code, 1) << args[0];
      EXPECT_EQ(run.out, "") << args[0];
      ExpectRetiredFormatReason(run.err);
    }
  }

  // A v1 shard manifest naming an SGTREE01 file is refused the same way.
  std::ifstream golden(GoldenPath("snapshot_sgtree01_small.bin"),
                       std::ios::binary);
  const std::vector<uint8_t> old_bytes(
      (std::istreambuf_iterator<char>(golden)),
      std::istreambuf_iterator<char>());
  const std::string manifest = TempPath("sgtree01_manifest.idx");
  const std::string text = "sgshard 1\nshards 1\n";
  ASSERT_TRUE(AtomicWriteFile(
      Env::Posix(), manifest, std::vector<uint8_t>(text.begin(), text.end())));
  ASSERT_TRUE(AtomicWriteFile(Env::Posix(),
                              ShardedIndex::ShardSnapshotPath(manifest, 0),
                              old_bytes));
  std::string error;
  EXPECT_EQ(ShardedIndex::Load(manifest, ShardedIndexOptions{}, &error),
            nullptr);
  ExpectRetiredFormatReason(error);
  const CliRun run = RunCliArgs(
      {"query", "nn", "--index", manifest, "--shards", "1", "--q", "3"});
  EXPECT_EQ(run.code, 1);
  ExpectRetiredFormatReason(run.err);
  std::remove(manifest.c_str());
  std::remove(ShardedIndex::ShardSnapshotPath(manifest, 0).c_str());
}

}  // namespace
}  // namespace sgtree
