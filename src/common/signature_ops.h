#ifndef SGTREE_COMMON_SIGNATURE_OPS_H_
#define SGTREE_COMMON_SIGNATURE_OPS_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bit_kernels.h"
#include "common/bit_ops.h"
#include "common/check.h"

namespace sgtree::sig {

/// Word-level set operations generic over any "signature-like" type — a
/// type exposing `num_bits()` and `words()` (a contiguous range of 64-bit
/// words, low bits first). Both the owning Signature and the zero-copy
/// SignatureView over a node record qualify, so one implementation serves
/// both representations. The searches (sgtree/search.cc) and the shared
/// distance templates (common/distance.h) are written against these:
/// identical integer inputs feed identical floating-point expressions,
/// whether a record is read in a tree's heap or in place in an image.
///
/// All binary operations require matching widths (checked with
/// SGTREE_DCHECK, like the Signature static methods they generalize).
///
/// The counts run the word kernels of common/bit_kernels.h, so every count
/// in the tree — Signature's methods included — runs the variant the CPU
/// selected.

/// Number of set bits — the signature's "area".
template <typename S>
uint32_t Area(const S& s) {
  const auto w = s.words();
  return kernels::Active().area(w.data(), w.size());
}

template <typename S>
bool Empty(const S& s) {
  for (const uint64_t w : s.words()) {
    if (w != 0) return false;
  }
  return true;
}

/// |a AND b| without materializing the intersection.
template <typename A, typename B>
uint32_t IntersectCount(const A& a, const B& b) {
  SGTREE_DCHECK(a.num_bits() == b.num_bits());
  const auto aw = a.words();
  return kernels::Active().intersect_count(aw.data(), b.words().data(),
                                           aw.size());
}

/// |a XOR b| = Hamming distance between the bitmaps.
template <typename A, typename B>
uint32_t XorCount(const A& a, const B& b) {
  SGTREE_DCHECK(a.num_bits() == b.num_bits());
  const auto aw = a.words();
  return kernels::Active().xor_count(aw.data(), b.words().data(), aw.size());
}

/// |a AND NOT b|: bits of `a` missing from `b`.
template <typename A, typename B>
uint32_t AndNotCount(const A& a, const B& b) {
  SGTREE_DCHECK(a.num_bits() == b.num_bits());
  const auto aw = a.words();
  return kernels::Active().and_not_count(aw.data(), b.words().data(),
                                         aw.size());
}

/// {|a AND b|, |b|} from one pass over the words: the directory bound's
/// overlap with the query's area, or a leaf distance's overlap with the
/// candidate's area.
template <typename A, typename B>
kernels::CountAndArea IntersectAndArea(const A& a, const B& b) {
  SGTREE_DCHECK(a.num_bits() == b.num_bits());
  const auto aw = a.words();
  return kernels::Active().intersect_and_area(aw.data(), b.words().data(),
                                              aw.size());
}

/// True iff every bit set in `b` is also set in `a` (`a` covers `b`).
/// Early-exits on the first word with a bit of `b` missing from `a`.
template <typename A, typename B>
bool Contains(const A& a, const B& b) {
  SGTREE_DCHECK(a.num_bits() == b.num_bits());
  const auto aw = a.words();
  const auto bw = b.words();
  for (size_t i = 0; i < aw.size(); ++i) {
    if ((bw[i] & ~aw[i]) != 0) return false;
  }
  return true;
}

/// Same width and identical bits — the generic form of Signature equality.
template <typename A, typename B>
bool Equal(const A& a, const B& b) {
  if (a.num_bits() != b.num_bits()) return false;
  const auto aw = a.words();
  const auto bw = b.words();
  for (size_t i = 0; i < aw.size(); ++i) {
    if (aw[i] != bw[i]) return false;
  }
  return true;
}

/// The positions of all set bits, ascending.
template <typename S>
std::vector<uint32_t> Items(const S& s) {
  std::vector<uint32_t> items;
  items.reserve(Area(s));
  const auto words = s.words();
  for (uint32_t wi = 0; wi < words.size(); ++wi) {
    uint64_t w = words[wi];
    while (w != 0) {
      const auto bit = static_cast<uint32_t>(std::countr_zero(w));
      items.push_back(wi * kBitsPerWord + bit);
      w &= w - 1;
    }
  }
  return items;
}

}  // namespace sgtree::sig

#endif  // SGTREE_COMMON_SIGNATURE_OPS_H_
