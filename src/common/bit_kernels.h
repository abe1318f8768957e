#ifndef SGTREE_COMMON_BIT_KERNELS_H_
#define SGTREE_COMMON_BIT_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace sgtree::kernels {

/// A count over two word spans and the area of the second span, from one
/// pass over the words.
struct CountAndArea {
  uint32_t count = 0;
  uint32_t area = 0;
};

/// One implementation of the word loops under every signature count: the
/// leaf distances and directory bounds of the search (Section 4 of the
/// paper), and the enlargements of insertion and splitting. Each kernel
/// reads `n` 64-bit words from each operand; binary kernels pair word i of
/// `a` with word i of `b`. Words need only 8-byte alignment. Bits past a
/// signature's width are zero (the codec and the static audit enforce it),
/// so no kernel masks the tail word.
struct Variant {
  const char* name;
  /// |a|.
  uint32_t (*area)(const uint64_t* a, size_t n);
  /// |a AND b|.
  uint32_t (*intersect_count)(const uint64_t* a, const uint64_t* b, size_t n);
  /// |a XOR b|.
  uint32_t (*xor_count)(const uint64_t* a, const uint64_t* b, size_t n);
  /// |a AND NOT b|.
  uint32_t (*and_not_count)(const uint64_t* a, const uint64_t* b, size_t n);
  /// {|a AND b|, |b|}.
  CountAndArea (*intersect_and_area)(const uint64_t* a, const uint64_t* b,
                                     size_t n);
};

namespace internal {
// The variant in use. Constant-initialized to the scalar variant, then
// replaced once, during static initialization of bit_kernels.cc, by the
// fastest variant the CPU supports. A count that runs earlier still gets a
// correct (scalar) answer. Never written after that.
extern Variant active;
}  // namespace internal

/// The variant every signature count runs. Chosen from cpuid alone: no
/// setting, flag or environment variable selects it.
inline const Variant& Active() { return internal::active; }

/// Every variant this CPU can run, the scalar reference first and the one
/// Active() picks last. For tests and benchmarks that compare variants.
std::span<const Variant* const> Supported();

}  // namespace sgtree::kernels

#endif  // SGTREE_COMMON_BIT_KERNELS_H_
