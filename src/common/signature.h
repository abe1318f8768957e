#ifndef SGTREE_COMMON_SIGNATURE_H_
#define SGTREE_COMMON_SIGNATURE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bit_ops.h"
#include "common/check.h"

namespace sgtree {

/// A fixed-width bitmap ("signature") over the item dictionary.
///
/// A transaction {a, c} over a dictionary of six items is represented by the
/// signature 101000 (one bit per item). A group of transactions is
/// represented by the bitwise OR of the member signatures (Definition 5 of
/// the paper), so a directory signature has a 1 wherever at least one
/// transaction below it contains the corresponding item.
///
/// The "area" of a signature is its number of set bits; it plays the role
/// the MBR area plays in an R-tree.
class Signature {
 public:
  /// An empty signature of width zero. Mostly useful as a placeholder before
  /// assignment; all set operations require matching widths.
  Signature() = default;

  /// An all-zero signature of `num_bits` bits.
  explicit Signature(uint32_t num_bits)
      : num_bits_(num_bits), words_(WordsForBits(num_bits), 0) {}

  /// Builds the signature of a transaction: one set bit per item id. Item
  /// ids must be < `num_bits`.
  static Signature FromItems(std::span<const uint32_t> items,
                             uint32_t num_bits);

  Signature(const Signature&) = default;
  Signature& operator=(const Signature&) = default;
  Signature(Signature&&) = default;
  Signature& operator=(Signature&&) = default;

  uint32_t num_bits() const { return num_bits_; }
  uint32_t num_words() const { return static_cast<uint32_t>(words_.size()); }

  bool Test(uint32_t pos) const {
    return (words_[pos / kBitsPerWord] >> (pos % kBitsPerWord)) & 1;
  }
  void Set(uint32_t pos) {
    words_[pos / kBitsPerWord] |= uint64_t{1} << (pos % kBitsPerWord);
  }
  void Reset(uint32_t pos) {
    words_[pos / kBitsPerWord] &= ~(uint64_t{1} << (pos % kBitsPerWord));
  }
  void Clear();

  /// Number of set bits. This is the signature's "area".
  uint32_t Area() const;

  bool Empty() const;

  /// this |= other. Widths must match; `other` may be any signature-like
  /// type (common/signature_ops.h), such as a SignatureView into a node.
  template <typename S>
  void UnionWith(const S& other) {
    SGTREE_DCHECK(num_bits_ == other.num_bits());
    const auto src = other.words();
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= src[i];
  }
  /// this &= other. Widths must match.
  void IntersectWith(const Signature& other);

  /// True iff every bit set in `other` is also set in `*this` (i.e. *this
  /// covers `other`; a directory entry covers every signature below it).
  bool Contains(const Signature& other) const;

  /// The counts below run the selected word kernel (common/bit_kernels.h);
  /// they are the Signature forms of the sig:: templates in
  /// common/signature_ops.h.

  /// |a AND b| without materializing the intersection.
  static uint32_t IntersectCount(const Signature& a, const Signature& b);
  /// |a AND NOT b|: bits of `a` missing from `b`. With the arguments
  /// swapped, the enlargement of `b` needed to cover `a`.
  static uint32_t AndNotCount(const Signature& a, const Signature& b);
  /// |a XOR b| = Hamming distance between the bitmaps.
  static uint32_t XorCount(const Signature& a, const Signature& b);

  /// Direct access to the backing words (for codecs and hashing).
  std::span<const uint64_t> words() const { return words_; }
  std::span<uint64_t> mutable_words() { return words_; }

  /// The positions of all set bits, ascending.
  std::vector<uint32_t> ToItems() const;

  /// "101000"-style string, bit 0 first. Intended for tests and debugging.
  std::string ToString() const;

  friend bool operator==(const Signature& a, const Signature& b) {
    return a.num_bits_ == b.num_bits_ && a.words_ == b.words_;
  }

 private:
  uint32_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

/// Hash functor so signatures can key unordered containers.
struct SignatureHash {
  size_t operator()(const Signature& s) const;
};

/// A non-owning, zero-copy view of a signature whose words live elsewhere —
/// in practice, inside an mmap'ed static tree image (src/static). Exposes
/// the same `num_bits()` / `words()` surface as Signature, so the generic
/// word-level operations (common/signature_ops.h) and the shared distance
/// templates (common/distance.h) accept either representation.
///
/// The view does not own the words; the backing storage (the mapping or
/// buffer) must outlive every view into it. `words` must point at
/// WordsForBits(num_bits) readable 64-bit words.
class SignatureView {
 public:
  SignatureView() = default;
  SignatureView(uint32_t num_bits, const uint64_t* words)
      : num_bits_(num_bits), words_(words) {}
  /// Views an owning signature, like std::string_view over a std::string.
  SignatureView(const Signature& sig)
      : num_bits_(sig.num_bits()), words_(sig.words().data()) {}

  uint32_t num_bits() const { return num_bits_; }
  std::span<const uint64_t> words() const {
    return {words_, WordsForBits(num_bits_)};
  }

  bool Test(uint32_t pos) const {
    return (words_[pos / kBitsPerWord] >> (pos % kBitsPerWord)) & 1;
  }

  /// Deep copy into an owning Signature (result materialization).
  Signature ToSignature() const {
    Signature sig(num_bits_);
    const std::span<const uint64_t> src = words();
    std::span<uint64_t> dst = sig.mutable_words();
    for (size_t i = 0; i < src.size(); ++i) dst[i] = src[i];
    return sig;
  }

 private:
  uint32_t num_bits_ = 0;
  const uint64_t* words_ = nullptr;
};

}  // namespace sgtree

#endif  // SGTREE_COMMON_SIGNATURE_H_
