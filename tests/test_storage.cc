#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sgtree/sg_tree.h"
#include "storage/buffer_pool.h"
#include "storage/codec.h"
#include "storage/node_format.h"
#include "storage/query_context.h"
#include "tests/test_util.h"

namespace sgtree {
namespace {

using ::sgtree::testing::RandomSignature;

// ---------------------------------------------------------------------------
// Signature codec (Section 3.2 compression).
// ---------------------------------------------------------------------------

TEST(CodecTest, SparseEncodingChosenForSparseSignature) {
  // The paper's example: a 256-bit signature with ten 1s costs ~10 position
  // slots instead of 32 bitmap bytes.
  Signature sig(256);
  for (uint32_t i = 0; i < 10; ++i) sig.Set(i * 20);
  std::vector<uint8_t> out;
  EncodeSignature(sig, &out);
  EXPECT_EQ(out[0], kSparseTag);
  EXPECT_LT(out.size(), DenseEncodedSize(256));
  EXPECT_EQ(out.size(), EncodedSize(sig));
}

TEST(CodecTest, DenseEncodingChosenForDenseSignature) {
  Signature sig(256);
  for (uint32_t i = 0; i < 200; ++i) sig.Set(i);
  std::vector<uint8_t> out;
  EncodeSignature(sig, &out);
  EXPECT_EQ(out[0], kDenseTag);
  EXPECT_EQ(out.size(), DenseEncodedSize(256));
}

TEST(CodecTest, RoundTripSparse) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const Signature sig = RandomSignature(rng, 1000, 0.01);
    std::vector<uint8_t> out;
    EncodeSignature(sig, &out);
    size_t offset = 0;
    Signature decoded;
    ASSERT_TRUE(DecodeSignature(out, &offset, 1000, &decoded));
    EXPECT_EQ(decoded, sig);
    EXPECT_EQ(offset, out.size());
  }
}

TEST(CodecTest, RoundTripDense) {
  Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    const Signature sig = RandomSignature(rng, 525, 0.6);
    std::vector<uint8_t> out;
    EncodeSignature(sig, &out);
    size_t offset = 0;
    Signature decoded;
    ASSERT_TRUE(DecodeSignature(out, &offset, 525, &decoded));
    EXPECT_EQ(decoded, sig);
  }
}

TEST(CodecTest, RoundTripConcatenatedStream) {
  Rng rng(3);
  std::vector<Signature> sigs;
  std::vector<uint8_t> out;
  for (int i = 0; i < 20; ++i) {
    sigs.push_back(RandomSignature(rng, 300, i % 2 == 0 ? 0.02 : 0.5));
    EncodeSignature(sigs.back(), &out);
  }
  size_t offset = 0;
  for (const Signature& expected : sigs) {
    Signature decoded;
    ASSERT_TRUE(DecodeSignature(out, &offset, 300, &decoded));
    EXPECT_EQ(decoded, expected);
  }
  EXPECT_EQ(offset, out.size());
}

TEST(CodecTest, EmptyAndFullSignatures) {
  for (uint32_t bits : {1u, 64u, 65u, 525u}) {
    Signature empty(bits);
    Signature full(bits);
    for (uint32_t i = 0; i < bits; ++i) full.Set(i);
    for (const Signature& sig : {empty, full}) {
      std::vector<uint8_t> out;
      EncodeSignature(sig, &out);
      size_t offset = 0;
      Signature decoded;
      ASSERT_TRUE(DecodeSignature(out, &offset, bits, &decoded));
      EXPECT_EQ(decoded, sig);
    }
  }
}

TEST(CodecTest, EncodedSizePredictsActual) {
  Rng rng(4);
  for (double density : {0.0, 0.005, 0.02, 0.1, 0.5, 1.0}) {
    const Signature sig = RandomSignature(rng, 800, density);
    std::vector<uint8_t> out;
    EncodeSignature(sig, &out);
    EXPECT_EQ(out.size(), EncodedSize(sig)) << "density=" << density;
  }
}

TEST(CodecTest, RejectsTruncatedInput) {
  Signature sig(128);
  sig.Set(5);
  std::vector<uint8_t> out;
  EncodeSignature(sig, &out);
  out.resize(out.size() - 1);
  size_t offset = 0;
  Signature decoded;
  EXPECT_FALSE(DecodeSignature(out, &offset, 128, &decoded));
}

TEST(CodecTest, RejectsOutOfRangePosition) {
  // Sparse encoding claiming bit 200 in a 128-bit signature.
  std::vector<uint8_t> bad = {kSparseTag, 1, 0, 200, 0};
  size_t offset = 0;
  Signature decoded;
  EXPECT_FALSE(DecodeSignature(bad, &offset, 128, &decoded));
}

TEST(CodecTest, RejectsUnknownTag) {
  std::vector<uint8_t> bad = {42, 0, 0};
  size_t offset = 0;
  Signature decoded;
  EXPECT_FALSE(DecodeSignature(bad, &offset, 128, &decoded));
}

TEST(CodecTest, RejectsDenseWithTrailingGarbageBits) {
  // Dense payload for 4 bits with a bit set beyond num_bits.
  std::vector<uint8_t> bad = {kDenseTag, 0xF0};
  size_t offset = 0;
  Signature decoded;
  EXPECT_FALSE(DecodeSignature(bad, &offset, 4, &decoded));
}

// ---------------------------------------------------------------------------
// Node format.
// ---------------------------------------------------------------------------

NodeRecord MakeRecord(Rng& rng, uint16_t level, int entries, uint32_t bits,
                      double density) {
  NodeRecord record;
  record.level = level;
  for (int i = 0; i < entries; ++i) {
    record.entries.emplace_back(rng.NextU64(),
                                RandomSignature(rng, bits, density));
  }
  return record;
}

class NodeFormatTest : public ::testing::TestWithParam<bool> {};

TEST_P(NodeFormatTest, RoundTrip) {
  Rng rng(5);
  const bool compress = GetParam();
  for (uint16_t level : {0, 1, 3}) {
    const NodeRecord record = MakeRecord(rng, level, 17, 500, 0.03);
    std::vector<uint8_t> out;
    EncodeNode(record, compress, &out);
    EXPECT_EQ(out.size(), EncodedNodeSize(record, compress));
    NodeRecord decoded;
    ASSERT_TRUE(DecodeNode(out, 500, &decoded));
    EXPECT_EQ(decoded.level, record.level);
    ASSERT_EQ(decoded.entries.size(), record.entries.size());
    for (size_t i = 0; i < record.entries.size(); ++i) {
      EXPECT_EQ(decoded.entries[i].first, record.entries[i].first);
      EXPECT_EQ(decoded.entries[i].second, record.entries[i].second);
    }
  }
}

TEST_P(NodeFormatTest, EmptyNodeRoundTrip) {
  NodeRecord record;
  record.level = 2;
  std::vector<uint8_t> out;
  EncodeNode(record, GetParam(), &out);
  NodeRecord decoded;
  ASSERT_TRUE(DecodeNode(out, 100, &decoded));
  EXPECT_EQ(decoded.level, 2);
  EXPECT_TRUE(decoded.entries.empty());
}

INSTANTIATE_TEST_SUITE_P(CompressOnOff, NodeFormatTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "compressed" : "dense";
                         });

TEST(NodeFormatTest, CompressionShrinksSparseNodes) {
  Rng rng(6);
  const NodeRecord record = MakeRecord(rng, 0, 20, 1000, 0.01);
  EXPECT_LT(EncodedNodeSize(record, true), EncodedNodeSize(record, false));
}

TEST(NodeFormatTest, RejectsTruncatedNode) {
  Rng rng(7);
  const NodeRecord record = MakeRecord(rng, 0, 5, 200, 0.1);
  std::vector<uint8_t> out;
  EncodeNode(record, true, &out);
  out.resize(out.size() / 2);
  NodeRecord decoded;
  EXPECT_FALSE(DecodeNode(out, 200, &decoded));
}

TEST(NodeFormatTest, UncompressedEntrySizeMatchesEncoding) {
  Rng rng(8);
  NodeRecord record = MakeRecord(rng, 0, 1, 333, 0.9);
  EXPECT_EQ(EncodedNodeSize(record, false),
            4 + UncompressedEntrySize(333));
}

// ---------------------------------------------------------------------------
// Node-id allocation: SgTree's node table is its page store, and a free id
// is a null record on its free list.
// ---------------------------------------------------------------------------

SgTreeOptions AllocOptions() {
  SgTreeOptions options;
  options.num_bits = 64;
  options.page_size = 512;
  return options;
}

TEST(PageStoreTest, AllocateWriteRead) {
  SgTree tree(AllocOptions());
  const PageId id = tree.AllocateNode(0);
  Signature sig(64);
  sig.Set(1);
  sig.Set(2);
  sig.Set(3);
  tree.MutableNode(id).Append(sig.words(), 7);
  const NodeView node = tree.GetNodeNoCharge(id);
  ASSERT_EQ(node.Count(), 1u);
  EXPECT_EQ(node.EntryAt(0).ref, 7u);
  EXPECT_EQ(node.EntryAt(0).sig.ToSignature(), sig);
}

TEST(PageStoreTest, RejectsOversizedPayload) {
  // The page size caps a node: 64 bytes take the 4-entry floor, and a node
  // that overflows it splits, so no live node holds more.
  SgTreeOptions options = AllocOptions();
  options.page_size = 64;
  SgTree tree(options);
  ASSERT_EQ(tree.max_entries(), 4u);
  for (uint64_t tid = 0; tid < 40; ++tid) {
    tree.Insert(Transaction{tid, {static_cast<ItemId>(tid % 64)}});
  }
  EXPECT_GT(tree.height(), 1u);
  for (const PageId id : tree.LiveNodes()) {
    EXPECT_LE(tree.GetNodeNoCharge(id).Count(), tree.max_entries()) << id;
  }
}

TEST(PageStoreTest, FreeListReusesIds) {
  SgTree tree(AllocOptions());
  const PageId a = tree.AllocateNode(0);
  const PageId b = tree.AllocateNode(0);
  const PageId c = tree.AllocateNode(0);
  EXPECT_NE(a, b);
  tree.FreeNode(a);
  tree.FreeNode(c);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.LiveNodes(), (std::vector<PageId>{b}));
  // The most recently freed id comes back first.
  EXPECT_EQ(tree.AllocateNode(0), c);
  EXPECT_EQ(tree.AllocateNode(0), a);
  EXPECT_EQ(tree.node_count(), 3u);
  EXPECT_EQ(tree.AllocateNode(0), 3u);  // Free list empty: the table grows.
}

TEST(PageStoreTest, ReadOfFreedPageFails) {
  // A freed id leaves the live set, and its entries do not come back with
  // the id: a reallocated node starts empty.
  SgTree tree(AllocOptions());
  const PageId id = tree.AllocateNode(0);
  Signature sig(64);
  sig.Set(9);
  tree.MutableNode(id).Append(sig.words(), 1);
  tree.FreeNode(id);
  EXPECT_TRUE(tree.LiveNodes().empty());
  EXPECT_EQ(tree.node_count(), 0u);
  ASSERT_EQ(tree.AllocateNode(1), id);
  EXPECT_EQ(tree.GetNodeNoCharge(id).Count(), 0u);
  EXPECT_EQ(tree.GetNodeNoCharge(id).level(), 1);
}

TEST(PageStoreTest, InvalidIdRejected) {
  const uint64_t empty_leaf[1] = {0};
  SgTree tree(AllocOptions());
  const PageId id = tree.AllocateNode(0);
  EXPECT_DEATH(tree.GetNodeNoCharge(123), "dangling page reference");
  EXPECT_DEATH(tree.AdoptNode(id, empty_leaf), "AdoptNode on a live page id");
}

// ---------------------------------------------------------------------------
// Buffer pool.
// ---------------------------------------------------------------------------

// Hit ratio of the reads charged to `trace`: NaN when none was — an
// untouched pool has no hit rate, and 0.0 would read as "everything
// missed".
double HitRatio(const QueryTrace& trace) {
  const uint64_t reads = trace.buffer_hits + trace.buffer_misses;
  return reads == 0 ? std::nan("")
                    : static_cast<double>(trace.buffer_hits) /
                          static_cast<double>(reads);
}

TEST(BufferPoolTest, FirstAccessIsMissSecondIsHit) {
  BufferPool pool(4);
  EXPECT_FALSE(pool.Touch(1));
  EXPECT_TRUE(pool.Touch(1));
  EXPECT_EQ(pool.ResidentPages(), 1u);
}

TEST(BufferPoolTest, LruEviction) {
  BufferPool pool(2);
  pool.Touch(1);
  pool.Touch(2);
  pool.Touch(3);              // Evicts 1.
  EXPECT_TRUE(pool.Touch(3));
  EXPECT_TRUE(pool.Touch(2));
  EXPECT_FALSE(pool.Touch(1));  // Was evicted.
}

TEST(BufferPoolTest, TouchRefreshesRecency) {
  BufferPool pool(2);
  pool.Touch(1);
  pool.Touch(2);
  pool.Touch(1);  // 1 becomes MRU; 2 is now LRU.
  pool.Touch(3);  // Evicts 2.
  EXPECT_TRUE(pool.Touch(1));
  EXPECT_FALSE(pool.Touch(2));
}

TEST(BufferPoolTest, ZeroCapacityChargesEveryAccess) {
  BufferPool pool(0);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(pool.Touch(7));
  EXPECT_EQ(pool.ResidentPages(), 0u);
}

TEST(BufferPoolTest, EvictDropsPage) {
  BufferPool pool(4);
  pool.Touch(1);
  pool.Evict(1);
  EXPECT_FALSE(pool.Touch(1));
}

TEST(BufferPoolTest, ClearKeepsStats) {
  // Clear empties the buffer; the reads already charged stay in the trace.
  BufferPool pool(4);
  QueryTrace trace;
  const QueryContext ctx{&pool, &trace};
  ctx.ChargeRead(1);
  ctx.ChargeRead(1);
  pool.Clear();
  EXPECT_EQ(pool.ResidentPages(), 0u);
  EXPECT_EQ(trace.buffer_hits, 1u);
  EXPECT_FALSE(pool.Touch(1));
}

TEST(BufferPoolTest, ResizeShrinkEvicts) {
  BufferPool pool(4);
  for (PageId id = 1; id <= 4; ++id) pool.Touch(id);
  pool.Resize(2);
  EXPECT_EQ(pool.ResidentPages(), 2u);
  EXPECT_TRUE(pool.Touch(4));   // Most recent survive.
  EXPECT_TRUE(pool.Touch(3));
  EXPECT_FALSE(pool.Touch(1));  // Oldest evicted.
}

TEST(BufferPoolTest, HitRatio) {
  BufferPool pool(8);
  QueryTrace trace;
  const QueryContext ctx{&pool, &trace};
  ctx.ChargeRead(1);
  ctx.ChargeRead(1);
  ctx.ChargeRead(1);
  ctx.ChargeRead(2);
  EXPECT_EQ(trace.buffer_misses, 2u);
  EXPECT_DOUBLE_EQ(HitRatio(trace), 0.5);
}

TEST(BufferPoolTest, HitRatioOfUntouchedPoolIsNan) {
  BufferPool pool(8);
  QueryTrace trace;
  const QueryContext ctx{&pool, &trace};
  EXPECT_TRUE(std::isnan(HitRatio(trace)));
  ctx.ChargeRead(1);
  EXPECT_DOUBLE_EQ(HitRatio(trace), 0.0);  // One genuine miss.
}

TEST(BufferPoolTest, WriteMakesResident) {
  // A Touch makes a page resident: the next access hits.
  BufferPool pool(4);
  EXPECT_FALSE(pool.Touch(5));
  EXPECT_EQ(pool.ResidentPages(), 1u);
  EXPECT_TRUE(pool.Touch(5));
}

}  // namespace
}  // namespace sgtree
