#include "common/signature.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/bit_kernels.h"
#include "common/gray_code.h"
#include "common/rng.h"
#include "common/signature_ops.h"
#include "tests/test_util.h"

namespace sgtree {
namespace {

using ::sgtree::testing::RandomSignature;

TEST(SignatureTest, DefaultIsEmptyWidthZero) {
  Signature sig;
  EXPECT_EQ(sig.num_bits(), 0u);
  EXPECT_EQ(sig.Area(), 0u);
  EXPECT_TRUE(sig.Empty());
}

TEST(SignatureTest, ConstructedAllZero) {
  Signature sig(100);
  EXPECT_EQ(sig.num_bits(), 100u);
  EXPECT_EQ(sig.num_words(), 2u);
  EXPECT_EQ(sig.Area(), 0u);
  for (uint32_t i = 0; i < 100; ++i) EXPECT_FALSE(sig.Test(i));
}

TEST(SignatureTest, SetTestReset) {
  Signature sig(130);
  sig.Set(0);
  sig.Set(63);
  sig.Set(64);
  sig.Set(129);
  EXPECT_TRUE(sig.Test(0));
  EXPECT_TRUE(sig.Test(63));
  EXPECT_TRUE(sig.Test(64));
  EXPECT_TRUE(sig.Test(129));
  EXPECT_FALSE(sig.Test(1));
  EXPECT_EQ(sig.Area(), 4u);
  sig.Reset(63);
  EXPECT_FALSE(sig.Test(63));
  EXPECT_EQ(sig.Area(), 3u);
}

TEST(SignatureTest, FromItemsMatchesPaperExample) {
  // Paper Figure 1: S = {a..g}; T2 = {a, b, c} -> 1110000.
  const std::vector<uint32_t> items = {0, 1, 2};
  const Signature sig = Signature::FromItems(items, 7);
  EXPECT_EQ(sig.ToString(), "1110000");
  EXPECT_EQ(sig.Area(), 3u);
}

TEST(SignatureTest, ToItemsRoundTrip) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const auto items = testing::RandomItems(rng, 500, 25);
    const Signature sig = Signature::FromItems(items, 500);
    EXPECT_EQ(sig.ToItems(), items);
  }
}

TEST(SignatureTest, ClearZeroesEverything) {
  Rng rng(1);
  Signature sig = RandomSignature(rng, 300, 0.5);
  ASSERT_GT(sig.Area(), 0u);
  sig.Clear();
  EXPECT_EQ(sig.Area(), 0u);
  EXPECT_TRUE(sig.Empty());
}

TEST(SignatureTest, UnionIsCommutativeAndIdempotent) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const Signature a = RandomSignature(rng, 256, 0.2);
    const Signature b = RandomSignature(rng, 256, 0.2);
    Signature ab = a;
    ab.UnionWith(b);
    Signature ba = b;
    ba.UnionWith(a);
    EXPECT_EQ(ab, ba);
    Signature aa = a;
    aa.UnionWith(a);
    EXPECT_EQ(aa, a);
    EXPECT_TRUE(ab.Contains(a));
    EXPECT_TRUE(ab.Contains(b));
  }
}

TEST(SignatureTest, IntersectWith) {
  Signature a = Signature::FromItems(std::vector<uint32_t>{1, 2, 3, 70}, 128);
  const Signature b =
      Signature::FromItems(std::vector<uint32_t>{2, 3, 4, 70}, 128);
  a.IntersectWith(b);
  EXPECT_EQ(a.ToItems(), (std::vector<uint32_t>{2, 3, 70}));
}

TEST(SignatureTest, ContainsReflexiveAndEmpty) {
  Rng rng(9);
  const Signature a = RandomSignature(rng, 200, 0.3);
  const Signature empty(200);
  EXPECT_TRUE(a.Contains(a));
  EXPECT_TRUE(a.Contains(empty));
  EXPECT_EQ(empty.Contains(a), a.Empty());
}

TEST(SignatureTest, ContainsDetectsSingleMissingBit) {
  Signature big(512);
  for (uint32_t i = 0; i < 512; i += 3) big.Set(i);
  Signature small = big;
  small.Reset(510);
  EXPECT_TRUE(big.Contains(small));
  small.Set(511);  // 511 not set in big (511 % 3 != 0).
  EXPECT_FALSE(big.Contains(small));
}

TEST(SignatureTest, CountIdentities) {
  Rng rng(11);
  for (int trial = 0; trial < 25; ++trial) {
    const Signature a = RandomSignature(rng, 320, 0.3);
    const Signature b = RandomSignature(rng, 320, 0.3);
    Signature a_or_b = a;
    a_or_b.UnionWith(b);
    const uint32_t inter = Signature::IntersectCount(a, b);
    const uint32_t uni = a_or_b.Area();
    const uint32_t x = Signature::XorCount(a, b);
    const uint32_t a_not_b = Signature::AndNotCount(a, b);
    const uint32_t b_not_a = Signature::AndNotCount(b, a);
    // Inclusion-exclusion identities.
    EXPECT_EQ(uni, a.Area() + b.Area() - inter);
    EXPECT_EQ(x, a_not_b + b_not_a);
    EXPECT_EQ(x, uni - inter);
    // The enlargement of a to cover b.
    EXPECT_EQ(b_not_a, uni - a.Area());
  }
}

TEST(SignatureTest, XorCountIsZeroIffEqual) {
  Rng rng(13);
  const Signature a = RandomSignature(rng, 320, 0.4);
  Signature b = a;
  EXPECT_EQ(Signature::XorCount(a, b), 0u);
  b.Set(b.Test(5) ? 6 : 5);
  EXPECT_GT(Signature::XorCount(a, b), 0u);
}

TEST(SignatureTest, HashEqualForEqualSignatures) {
  Rng rng(17);
  SignatureHash hash;
  for (int trial = 0; trial < 10; ++trial) {
    const Signature a = RandomSignature(rng, 256, 0.3);
    const Signature b = a;
    EXPECT_EQ(hash(a), hash(b));
  }
}

TEST(SignatureTest, HashSpreadsDistinctSignatures) {
  Rng rng(19);
  SignatureHash hash;
  std::unordered_set<size_t> hashes;
  for (int trial = 0; trial < 200; ++trial) {
    hashes.insert(hash(RandomSignature(rng, 256, 0.3)));
  }
  // Collisions should be essentially absent at this scale.
  EXPECT_GT(hashes.size(), 195u);
}

// Width sweep: operations must be correct when the tail word is partial.
class SignatureWidthTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SignatureWidthTest, BoundaryBitsWork) {
  const uint32_t bits = GetParam();
  Signature sig(bits);
  sig.Set(bits - 1);
  sig.Set(0);
  EXPECT_EQ(sig.Area(), bits == 1 ? 1u : 2u);
  EXPECT_TRUE(sig.Test(bits - 1));
  const auto items = sig.ToItems();
  EXPECT_EQ(items.back(), bits - 1);
}

TEST_P(SignatureWidthTest, CountsConsistentAcrossWidths) {
  const uint32_t bits = GetParam();
  Rng rng(23 + bits);
  const Signature a = RandomSignature(rng, bits, 0.5);
  const Signature b = RandomSignature(rng, bits, 0.5);
  uint32_t expected_inter = 0;
  uint32_t expected_xor = 0;
  for (uint32_t i = 0; i < bits; ++i) {
    expected_inter += (a.Test(i) && b.Test(i)) ? 1 : 0;
    expected_xor += (a.Test(i) != b.Test(i)) ? 1 : 0;
  }
  EXPECT_EQ(Signature::IntersectCount(a, b), expected_inter);
  EXPECT_EQ(Signature::XorCount(a, b), expected_xor);
}

// Every kernel variant this CPU can run (kernels::Supported()) against a
// bit-by-bit reference, at densities from empty to full, on a signature's
// own words and on SignatureViews whose words are 8-byte but not 64-byte
// aligned, as words inside a static image may be. The AVX-512 variant reads
// the words past the last 8-word block with a masked load.
TEST_P(SignatureWidthTest, EveryKernelVariantMatchesBitReference) {
  const uint32_t width = GetParam();
  const size_t n = WordsForBits(width);
  // operator new returns 16-byte-aligned storage, so one word in is 8 mod 16.
  std::vector<uint64_t> buffer_a(n + 1);
  std::vector<uint64_t> buffer_b(n + 1);
  uint64_t* const view_words_a = buffer_a.data() + 1;
  uint64_t* const view_words_b = buffer_b.data() + 1;
  for (const double density : {0.0, 0.01, 0.5, 1.0}) {
    Rng rng(29 + width);
    const Signature a = RandomSignature(rng, width, density);
    // A full `a` meets a half-full `b`, so the full case has XOR bits too.
    const Signature b =
        RandomSignature(rng, width, density == 1.0 ? 0.5 : density);
    uint32_t area_a = 0, area_b = 0, inter = 0, x = 0, a_not_b = 0;
    for (uint32_t i = 0; i < width; ++i) {
      area_a += a.Test(i) ? 1 : 0;
      area_b += b.Test(i) ? 1 : 0;
      inter += (a.Test(i) && b.Test(i)) ? 1 : 0;
      x += (a.Test(i) != b.Test(i)) ? 1 : 0;
      a_not_b += (a.Test(i) && !b.Test(i)) ? 1 : 0;
    }
    std::copy(a.words().begin(), a.words().end(), view_words_a);
    std::copy(b.words().begin(), b.words().end(), view_words_b);
    const SignatureView view_a(width, view_words_a);
    const SignatureView view_b(width, view_words_b);
    ASSERT_NE(reinterpret_cast<uintptr_t>(view_words_a) % 64, 0u);
    for (const kernels::Variant* variant : kernels::Supported()) {
      for (const bool use_view : {false, true}) {
        SCOPED_TRACE(std::string(variant->name) + " density " +
                     std::to_string(density) + (use_view ? " view" : ""));
        const uint64_t* wa = use_view ? view_words_a : a.words().data();
        const uint64_t* wb = use_view ? view_words_b : b.words().data();
        EXPECT_EQ(variant->area(wa, n), area_a);
        EXPECT_EQ(variant->intersect_count(wa, wb, n), inter);
        EXPECT_EQ(variant->xor_count(wa, wb, n), x);
        EXPECT_EQ(variant->and_not_count(wa, wb, n), a_not_b);
        const kernels::CountAndArea fused =
            variant->intersect_and_area(wa, wb, n);
        EXPECT_EQ(fused.count, inter);
        EXPECT_EQ(fused.area, area_b);
      }
    }
    // The selected variant, through the generic templates over views.
    EXPECT_EQ(sig::Area(view_a), area_a);
    EXPECT_EQ(sig::XorCount(view_a, view_b), x);
    EXPECT_EQ(sig::AndNotCount(view_a, view_b), a_not_b);
    EXPECT_EQ(sig::IntersectAndArea(view_a, view_b).count, inter);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, SignatureWidthTest,
                         ::testing::Values(1u, 7u, 63u, 64u, 65u, 127u, 128u,
                                           129u, 255u, 511u, 512u, 513u, 525u,
                                           1000u, 1024u, 4096u));

// The selected variant is the last supported one, and the scalar reference
// is always first.
TEST(BitKernelsTest, ActiveIsTheLastSupportedVariant) {
  const auto supported = kernels::Supported();
  ASSERT_FALSE(supported.empty());
  EXPECT_STREQ(supported.front()->name, "scalar");
  EXPECT_STREQ(kernels::Active().name, supported.back()->name);
}

// ---------------------------------------------------------------------------
// Gray-code ordering.
// ---------------------------------------------------------------------------

// Reference: integer Gray rank for signatures that fit in one word.
uint64_t SmallGrayRank(const Signature& sig) {
  const uint64_t g = sig.words()[0];
  uint64_t x = 0;
  for (int i = 63; i >= 0; --i) {
    const uint64_t bit = (g >> i) & 1;
    const uint64_t above = i == 63 ? 0 : (x >> (i + 1)) & 1;
    x |= (bit ^ above) << i;
  }
  return x;
}

TEST(GrayCodeTest, RankMatchesScalarReferenceOneWord) {
  Rng rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    const Signature sig = RandomSignature(rng, 64, 0.5);
    EXPECT_EQ(GrayRank(sig)[0], SmallGrayRank(sig)) << sig.ToString();
  }
}

TEST(GrayCodeTest, RankInvertsGrayCodeForSmallIntegers) {
  // For x in 0..255: gray(x) = x ^ (x >> 1); rank(gray(x)) must be x.
  for (uint64_t x = 0; x < 256; ++x) {
    const uint64_t g = x ^ (x >> 1);
    Signature sig(64);
    for (uint32_t b = 0; b < 64; ++b) {
      if ((g >> b) & 1) sig.Set(b);
    }
    EXPECT_EQ(GrayRank(sig)[0], x);
  }
}

TEST(GrayCodeTest, GrayLessAgreesWithRankComparison) {
  Rng rng(31);
  for (int trial = 0; trial < 100; ++trial) {
    const Signature a = RandomSignature(rng, 192, 0.4);
    const Signature b = RandomSignature(rng, 192, 0.4);
    const auto ra = GrayRank(a);
    const auto rb = GrayRank(b);
    // Compare ranks as big integers, most significant word first.
    bool less = false;
    for (size_t i = ra.size(); i-- > 0;) {
      if (ra[i] != rb[i]) {
        less = ra[i] < rb[i];
        break;
      }
    }
    EXPECT_EQ(GrayLess(a, b), less);
  }
}

TEST(GrayCodeTest, GrayLessIsStrictWeakOrder) {
  Rng rng(37);
  std::vector<Signature> sigs;
  for (int i = 0; i < 50; ++i) sigs.push_back(RandomSignature(rng, 128, 0.3));
  std::sort(sigs.begin(), sigs.end(),
            [](const Signature& a, const Signature& b) {
              return GrayLess(a, b);
            });
  for (size_t i = 0; i + 1 < sigs.size(); ++i) {
    EXPECT_FALSE(GrayLess(sigs[i + 1], sigs[i]));
  }
  EXPECT_FALSE(GrayLess(sigs[0], sigs[0]));
}

TEST(GrayCodeTest, ConsecutiveGrayCodesDifferInOneBit) {
  // Walking ranks 0..63, the codewords (= signatures) at consecutive ranks
  // differ in exactly one bit; verify our comparator sorts them in rank
  // order.
  std::vector<Signature> codes;
  for (uint64_t x = 0; x < 64; ++x) {
    const uint64_t g = x ^ (x >> 1);
    Signature sig(64);
    for (uint32_t b = 0; b < 64; ++b) {
      if ((g >> b) & 1) sig.Set(b);
    }
    codes.push_back(sig);
  }
  for (size_t i = 0; i + 1 < codes.size(); ++i) {
    EXPECT_EQ(Signature::XorCount(codes[i], codes[i + 1]), 1u);
    EXPECT_TRUE(GrayLess(codes[i], codes[i + 1]));
  }
}

}  // namespace
}  // namespace sgtree
