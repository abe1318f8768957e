// Robustness and failure-injection tests: malformed inputs into the codecs,
// adversarial tree shapes, and parameterized capacity sweeps of the
// structural invariants. Corrupt saved indexes are covered in
// test_snapshot.cc.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/linear_scan.h"
#include "common/rng.h"
#include "sgtree/search.h"
#include "sgtree/sg_tree.h"
#include "sgtree/tree_checker.h"
#include "storage/codec.h"
#include "storage/node_format.h"
#include "tests/test_util.h"

namespace sgtree {
namespace {

using ::sgtree::testing::ClusteredDataset;
using ::sgtree::testing::RandomSignature;

// ---------------------------------------------------------------------------
// Codec fuzzing: random bytes must never crash and never decode into an
// out-of-contract signature.
// ---------------------------------------------------------------------------

TEST(CodecFuzzTest, RandomBytesDecodeSafely) {
  Rng rng(500);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t length = rng.UniformInt(64);
    std::vector<uint8_t> garbage(length);
    for (auto& byte : garbage) {
      byte = static_cast<uint8_t>(rng.NextU64());
    }
    size_t offset = 0;
    Signature sig;
    const uint32_t bits = 1 + static_cast<uint32_t>(rng.UniformInt(300));
    if (DecodeSignature(garbage, &offset, bits, &sig)) {
      // If it decodes, the result must honor the contract.
      EXPECT_EQ(sig.num_bits(), bits);
      EXPECT_LE(offset, garbage.size());
      for (uint32_t item : sig.ToItems()) EXPECT_LT(item, bits);
    }
  }
}

TEST(CodecFuzzTest, TruncationAtEveryByteFailsOrRoundTrips) {
  Rng rng(501);
  const Signature sig = RandomSignature(rng, 256, 0.05);
  std::vector<uint8_t> encoded;
  EncodeSignature(sig, &encoded);
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    std::vector<uint8_t> prefix(encoded.begin(), encoded.begin() + cut);
    size_t offset = 0;
    Signature decoded;
    EXPECT_FALSE(DecodeSignature(prefix, &offset, 256, &decoded))
        << "cut=" << cut;
  }
  size_t offset = 0;
  Signature decoded;
  EXPECT_TRUE(DecodeSignature(encoded, &offset, 256, &decoded));
  EXPECT_EQ(decoded, sig);
}

TEST(NodeFormatFuzzTest, RandomBytesDecodeSafely) {
  Rng rng(502);
  for (int trial = 0; trial < 1000; ++trial) {
    const size_t length = rng.UniformInt(256);
    std::vector<uint8_t> garbage(length);
    for (auto& byte : garbage) {
      byte = static_cast<uint8_t>(rng.NextU64());
    }
    NodeRecord record;
    if (DecodeNode(garbage, 128, &record)) {
      for (const auto& [ref, sig] : record.entries) {
        EXPECT_EQ(sig.num_bits(), 128u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Adversarial tree shapes.
// ---------------------------------------------------------------------------

TEST(AdversarialShapeTest, AllIdenticalTransactions) {
  SgTreeOptions options;
  options.num_bits = 64;
  options.max_entries = 5;
  SgTree tree(options);
  const Signature sig =
      Signature::FromItems(std::vector<uint32_t>{7, 8, 9}, 64);
  for (uint64_t i = 0; i < 300; ++i) tree.Insert(sig, i);
  EXPECT_TRUE(CheckTree(tree).ok);
  EXPECT_EQ(ContainmentSearch(tree, sig).size(), 300u);
  EXPECT_DOUBLE_EQ(DfsNearest(tree, sig).distance, 0.0);
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(tree.Erase(sig, i));
  }
  EXPECT_TRUE(tree.empty());
}

TEST(AdversarialShapeTest, StrictlyNestedSignatures) {
  // t_i = {0, 1, ..., i}: every signature contains all previous ones, the
  // worst case for containment-based ChooseSubtree.
  SgTreeOptions options;
  options.num_bits = 128;
  options.max_entries = 6;
  SgTree tree(options);
  std::vector<uint32_t> items;
  for (uint32_t i = 0; i < 120; ++i) {
    items.push_back(i);
    tree.Insert(Signature::FromItems(items, 128), i);
  }
  EXPECT_TRUE(CheckTree(tree).ok);
  // The singleton {0} has exactly one superset chain; containment query for
  // the largest prefix set must return only the largest transactions.
  const auto holders =
      ContainmentSearch(tree, Signature::FromItems(items, 128));
  EXPECT_EQ(holders, (std::vector<uint64_t>{119}));
}

TEST(AdversarialShapeTest, SingletonTransactionsEveryItem) {
  SgTreeOptions options;
  options.num_bits = 256;
  options.max_entries = 8;
  SgTree tree(options);
  for (uint32_t i = 0; i < 256; ++i) {
    tree.Insert(Signature::FromItems(std::vector<uint32_t>{i}, 256), i);
  }
  EXPECT_TRUE(CheckTree(tree).ok);
  // NN of {i} is itself at distance 0.
  for (uint32_t i = 0; i < 256; i += 37) {
    const Signature q = Signature::FromItems(std::vector<uint32_t>{i}, 256);
    EXPECT_DOUBLE_EQ(DfsNearest(tree, q).distance, 0.0);
  }
}

// Capacity sweep: invariants and exactness across node capacities,
// including the minimum legal capacity.
class CapacitySweepTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CapacitySweepTest, InvariantsAndExactness) {
  SgTreeOptions options;
  options.num_bits = 150;
  options.max_entries = GetParam();
  SgTree tree(options);
  const Dataset dataset = ClusteredDataset(520, 500, 150, 8, 10, 2);
  for (const Transaction& txn : dataset.transactions) tree.Insert(txn);
  const TreeReport report = CheckTree(tree);
  ASSERT_TRUE(report.ok) << report.message;
  LinearScan scan(dataset);
  Rng rng(521);
  for (int q = 0; q < 10; ++q) {
    Signature query = RandomSignature(rng, 150, 0.06);
    if (query.Empty()) query.Set(0);
    EXPECT_DOUBLE_EQ(DfsNearest(tree, query).distance,
                     scan.Nearest(query).distance);
  }
  // Delete a slice and recheck.
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.Erase(dataset.transactions[i]));
  }
  EXPECT_TRUE(CheckTree(tree).ok);
}

INSTANTIATE_TEST_SUITE_P(Capacities, CapacitySweepTest,
                         ::testing::Values(4u, 5u, 8u, 16u, 33u, 64u, 128u));

// Min-fill sweep: legality of the fill fraction range.
class MinFillSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(MinFillSweepTest, InvariantsHold) {
  SgTreeOptions options;
  options.num_bits = 100;
  options.max_entries = 10;
  options.min_fill_fraction = GetParam();
  SgTree tree(options);
  Rng rng(522);
  for (uint64_t i = 0; i < 400; ++i) {
    Signature sig = RandomSignature(rng, 100, 0.08);
    if (sig.Empty()) sig.Set(0);
    tree.Insert(sig, i);
  }
  EXPECT_TRUE(CheckTree(tree).ok);
}

INSTANTIATE_TEST_SUITE_P(Fills, MinFillSweepTest,
                         ::testing::Values(0.1, 0.25, 0.4, 0.5));

}  // namespace
}  // namespace sgtree
