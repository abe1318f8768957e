// Format-conformance tests for the static SG-tree image (static_format.h):
// the builder's byte-stability promise pinned by golden files, version /
// magic / truncation gating with one-line reasons,
// and exhaustive single-bit corruption — every flip must be rejected
// cleanly with checksums on, and must never crash with checksums off.
//
// Regenerate the golden fixtures after a deliberate format change with
//   SGTREE_REGEN_GOLDEN=1 ctest -R StaticGolden
// and review the binary diff like any other format review.

#include "static/static_format.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "exec/index_backend.h"
#include "exec/query_api.h"
#include "sgtree/sg_tree.h"
#include "static/static_tree_backend.h"
#include "static/static_tree_builder.h"
#include "static/static_tree_view.h"
#include "storage/buffer_pool.h"

namespace sgtree {
namespace {

namespace sf = ::sgtree::static_format;

constexpr uint32_t kBits = 96;

SgTreeOptions TreeOptions() {
  SgTreeOptions options;
  options.num_bits = kBits;
  options.max_entries = 8;
  return options;
}

// Hardcoded arithmetic transactions — deliberately not Rng-driven, so the
// golden bytes cannot drift with the random number generator.
std::vector<Transaction> DeterministicTransactions(uint32_t n) {
  std::vector<Transaction> txns;
  txns.reserve(n);
  for (uint32_t t = 0; t < n; ++t) {
    Transaction txn;
    txn.tid = t;
    const uint32_t count = 3 + t % 5;
    for (uint32_t i = 0; i < count; ++i) {
      const auto item = static_cast<ItemId>((t * 7 + i * 13) % kBits);
      if (std::find(txn.items.begin(), txn.items.end(), item) ==
          txn.items.end()) {
        txn.items.push_back(item);
      }
    }
    std::sort(txn.items.begin(), txn.items.end());
    txns.push_back(std::move(txn));
  }
  return txns;
}

std::unique_ptr<SgTree> DeterministicTree(uint32_t n) {
  auto tree = std::make_unique<SgTree>(TreeOptions());
  for (const Transaction& txn : DeterministicTransactions(n)) {
    tree->Insert(txn);
  }
  return tree;
}

std::vector<uint8_t> BuildImage(const SgTree& tree) {
  return BuildStaticImage(tree);
}

// Recomputes the header CRC after a test patched a header field, so the
// patched field itself — not the checksum guard — is what the open rejects.
void FixHeaderCrc(std::vector<uint8_t>* bytes) {
  sf::StoreU32(bytes->data() + sf::kHeaderCrcOffset,
               Crc32c(bytes->data(), sf::kHeaderCrcOffset));
}

std::unique_ptr<StaticTreeView> OpenImage(const std::vector<uint8_t>& bytes,
                                          std::string* error,
                                          bool verify_checksums = true) {
  StaticOpenOptions options;
  options.tree = TreeOptions();
  options.verify_checksums = verify_checksums;
  return StaticTreeView::OpenFromBytes(bytes.data(), bytes.size(), options,
                                       error);
}

std::string GoldenPath(const std::string& name) {
  return std::string(SGTREE_GOLDEN_DIR) + "/" + name;
}

bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return true;
}

// Compares `bytes` against the named golden fixture — or rewrites the
// fixture when SGTREE_REGEN_GOLDEN is set in the environment.
void ExpectMatchesGolden(const std::vector<uint8_t>& bytes,
                         const std::string& name) {
  const std::string path = GoldenPath(name);
  if (std::getenv("SGTREE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write golden " << path;
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
    return;
  }
  std::vector<uint8_t> golden;
  ASSERT_TRUE(ReadFileBytes(path, &golden))
      << "missing golden fixture " << path
      << " (regenerate with SGTREE_REGEN_GOLDEN=1)";
  ASSERT_EQ(bytes.size(), golden.size()) << name;
  for (size_t i = 0; i < bytes.size(); ++i) {
    ASSERT_EQ(bytes[i], golden[i])
        << name << ": first difference at byte offset " << i;
  }
}

// ---------------------------------------------------------------------------
// Byte-stability.
// ---------------------------------------------------------------------------

TEST(StaticBuilderTest, OutputIsAPureFunctionOfTheTree) {
  const std::vector<uint8_t> a = BuildImage(*DeterministicTree(60));
  const std::vector<uint8_t> b = BuildImage(*DeterministicTree(60));
  EXPECT_EQ(a, b);
}

TEST(StaticGoldenTest, SmallImageMatchesGoldenBytes) {
  ExpectMatchesGolden(BuildImage(*DeterministicTree(60)),
                      "static_v1_small.bin");
}

TEST(StaticGoldenTest, EmptyImageMatchesGoldenBytes) {
  const SgTree empty(TreeOptions());
  ExpectMatchesGolden(BuildImage(empty), "static_v1_empty.bin");
}

TEST(StaticGoldenTest, GoldenImageOpensAndAnswersLikeTheBuilder) {
  // The checked-in fixture — bytes written by a past build on a possibly
  // different host — must open and answer exactly like a freshly built
  // image. This is the cross-run, cross-host half of byte-stability.
  std::vector<uint8_t> golden;
  if (!ReadFileBytes(GoldenPath("static_v1_small.bin"), &golden)) {
    GTEST_SKIP() << "golden fixture not present";
  }
  std::string error;
  auto view = OpenImage(golden, &error);
  ASSERT_NE(view, nullptr) << error;
  EXPECT_EQ(view->size(), 60u);
  EXPECT_EQ(view->num_bits(), kBits);

  auto tree = DeterministicTree(60);
  QueryRequest request;
  request.type = QueryType::kKnn;
  request.query =
      Signature::FromItems(std::vector<ItemId>{0, 13, 26}, kBits);
  request.k = 5;
  BufferPool dynamic_pool(64);
  BufferPool static_pool(64);
  for (int type = 0; type < 6; ++type) {
    request.type = static_cast<QueryType>(type);
    request.epsilon = 10.0;
    dynamic_pool.Clear();
    static_pool.Clear();
    const QueryResult expected =
        Execute(SgTreeBackend(*tree), request, &dynamic_pool);
    const QueryResult actual =
        Execute(StaticTreeBackend(*view), request, &static_pool);
    EXPECT_EQ(expected, actual) << "query type " << type;
  }
}

// ---------------------------------------------------------------------------
// Version / magic / truncation gating.
// ---------------------------------------------------------------------------

TEST(StaticFormatGateTest, RejectsBumpedVersion) {
  std::vector<uint8_t> bytes = BuildImage(*DeterministicTree(20));
  sf::StoreU32(bytes.data() + sf::kVersionOffset, sf::kVersion + 1);
  FixHeaderCrc(&bytes);
  std::string error;
  EXPECT_EQ(OpenImage(bytes, &error), nullptr);
  EXPECT_EQ(error, "unsupported static format version " +
                       std::to_string(sf::kVersion + 1));
}

TEST(StaticFormatGateTest, RejectsUnknownFlags) {
  std::vector<uint8_t> bytes = BuildImage(*DeterministicTree(20));
  sf::StoreU32(bytes.data() + sf::kFlagsOffset, 1u << 0);
  FixHeaderCrc(&bytes);
  std::string error;
  EXPECT_EQ(OpenImage(bytes, &error), nullptr);
  EXPECT_EQ(error, "unsupported format flags");
}

TEST(StaticFormatGateTest, RejectsForeignMagic) {
  std::vector<uint8_t> bytes = BuildImage(*DeterministicTree(20));
  const char foreign[8] = {'S', 'G', 'T', 'R', 'E', 'E', '9', '9'};
  std::copy(foreign, foreign + 8, bytes.begin());
  FixHeaderCrc(&bytes);
  std::string error;
  EXPECT_EQ(OpenImage(bytes, &error), nullptr);
  EXPECT_EQ(error, "not a static SG-tree (bad magic)");

  // The retired SGTREE01 snapshot magic is not foreign: it gets its own
  // reason, which says to rebuild.
  std::copy(sf::kRetiredSnapshotMagic, sf::kRetiredSnapshotMagic + 8,
            bytes.begin());
  FixHeaderCrc(&bytes);
  EXPECT_EQ(OpenImage(bytes, &error), nullptr);
  EXPECT_EQ(error,
            "retired SGTREE01 snapshot format; rebuild the index to write a "
            "static image");
}

TEST(StaticFormatGateTest, RejectsTruncation) {
  const std::vector<uint8_t> bytes = BuildImage(*DeterministicTree(20));
  std::string error;
  // Shorter than a header: one fixed reason.
  for (const size_t n : {size_t{0}, size_t{10}, sf::kHeaderSize - 1}) {
    std::vector<uint8_t> prefix(bytes.begin(),
                                bytes.begin() + static_cast<ptrdiff_t>(n));
    EXPECT_EQ(OpenImage(prefix, &error), nullptr) << n;
    EXPECT_EQ(error, "truncated file (no header)") << n;
  }
  // A full header over a torn body: the size cross-check fires before any
  // node offset can be dereferenced.
  std::vector<uint8_t> torn(bytes.begin(), bytes.end() - 9);
  EXPECT_EQ(OpenImage(torn, &error), nullptr);
  EXPECT_NE(error.find("file size mismatch"), std::string::npos) << error;
}

TEST(StaticFormatGateTest, RejectsHostileHeaderFields) {
  struct Case {
    size_t offset;
    uint32_t value;
    std::string reason_fragment;
  };
  const std::vector<Case> cases = {
      {sf::kNumBitsOffset, 0, "invalid signature width"},
      {sf::kNumBitsOffset, sf::kMaxNumBits + 1, "invalid signature width"},
      {sf::kMaxEntriesOffset, 0, "invalid node capacity"},
      {sf::kMaxEntriesOffset, 1, "invalid node capacity"},
      // An overflowing node of 65535 holds 65536 entries: no 16-bit count.
      {sf::kMaxEntriesOffset, 65535, "invalid node capacity"},
      {sf::kNodeCountOffset, 0xffffffffu, "node count exceeds file"},
  };
  for (const Case& c : cases) {
    std::vector<uint8_t> bytes = BuildImage(*DeterministicTree(20));
    sf::StoreU32(bytes.data() + c.offset, c.value);
    FixHeaderCrc(&bytes);
    std::string error;
    EXPECT_EQ(OpenImage(bytes, &error), nullptr) << c.reason_fragment;
    EXPECT_NE(error.find(c.reason_fragment), std::string::npos) << error;
  }
}

TEST(StaticFormatGateTest, RejectsSignatureWidthMismatch) {
  const std::vector<uint8_t> bytes = BuildImage(*DeterministicTree(20));
  StaticOpenOptions options;
  options.tree = TreeOptions();
  options.tree.num_bits = kBits + 64;  // Caller disagrees with the file.
  std::string error;
  EXPECT_EQ(StaticTreeView::OpenFromBytes(bytes.data(), bytes.size(), options,
                                          &error),
            nullptr);
  EXPECT_EQ(error,
            "signature width mismatch (file has " + std::to_string(kBits) +
                " bits)");
}

// ---------------------------------------------------------------------------
// Corruption injection: single-bit flips over the whole image.
// ---------------------------------------------------------------------------

TEST(StaticCorruptionTest, EveryBitFlipIsRejectedWithChecksumsOn) {
  // The header CRC covers [0, 84), the stored header CRC at [84, 88) is
  // compared against it, and the body CRC covers [88, file_size) — so with
  // verification on there is no bit in the file whose flip can go
  // unnoticed.
  const std::vector<uint8_t> pristine = BuildImage(*DeterministicTree(24));
  std::vector<uint8_t> bytes = pristine;
  std::string error;
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_EQ(OpenImage(bytes, &error), nullptr)
          << "flip at byte " << byte << " bit " << bit << " was accepted";
      EXPECT_FALSE(error.empty());
      bytes[byte] ^= static_cast<uint8_t>(1u << bit);
    }
  }
  EXPECT_EQ(bytes, pristine);
}

TEST(StaticCorruptionTest, BitFlipsWithChecksumsOffNeverCrash) {
  // With the body CRC waived, structurally consistent corruption (flipped
  // signature bits, rewritten leaf tids) opens successfully — by design, so
  // the auditor can localize damage. The contract under test: whatever
  // opens must stay memory-safe under all six query types; whatever does
  // not must fail with a reason, not a crash.
  const std::vector<uint8_t> pristine = BuildImage(*DeterministicTree(24));
  std::vector<uint8_t> bytes = pristine;
  const Signature query =
      Signature::FromItems(std::vector<ItemId>{2, 15, 28}, kBits);
  size_t opened = 0;
  for (size_t flip = 0; flip < bytes.size() * 8; flip += 3) {
    const size_t byte = flip / 8;
    const auto mask = static_cast<uint8_t>(1u << (flip % 8));
    bytes[byte] ^= mask;
    std::string error;
    auto view = OpenImage(bytes, &error, /*verify_checksums=*/false);
    if (view == nullptr) {
      EXPECT_FALSE(error.empty());
    } else {
      ++opened;
      const StaticTreeBackend backend(*view);
      for (int type = 0; type < 6; ++type) {
        QueryRequest request;
        request.type = static_cast<QueryType>(type);
        request.query = query;
        request.k = 3;
        request.epsilon = 8.0;
        const QueryResult result = Execute(backend, request);
        EXPECT_TRUE(result.ok());
      }
    }
    bytes[byte] ^= mask;
  }
  // Sanity: the sweep actually exercised the opened-but-corrupt path (all
  // signature-word flips survive the structural checks).
  EXPECT_GT(opened, 0u);
}

TEST(StaticCorruptionTest, BodyCorruptionNamesTheChecksum) {
  std::vector<uint8_t> bytes = BuildImage(*DeterministicTree(24));
  bytes[bytes.size() - 1] ^= 0x40;  // Deep in the last node record.
  std::string error;
  EXPECT_EQ(OpenImage(bytes, &error), nullptr);
  EXPECT_EQ(error, "body checksum mismatch (file is corrupt)");
  error.clear();
  // The same damage is admitted once checksums are off (it only touches a
  // signature word), which is exactly what check --verify-checksums 0
  // relies on.
  EXPECT_NE(OpenImage(bytes, &error, /*verify_checksums=*/false), nullptr)
      << error;
}

}  // namespace
}  // namespace sgtree
