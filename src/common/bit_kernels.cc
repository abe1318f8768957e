#include "common/bit_kernels.h"

#include "common/bit_ops.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SGTREE_AVX512_KERNELS 1
#include <immintrin.h>
#endif

namespace sgtree::kernels {
namespace {

enum class Op { kAnd, kXor, kAndNot };

// ---------------------------------------------------------------------------
// Scalar variant: one PopCount per word, which is the popcnt instruction in
// the x86-64-v2 build (CMakeLists.txt).
// ---------------------------------------------------------------------------

template <Op op>
uint64_t CombineWord(uint64_t a, uint64_t b) {
  if constexpr (op == Op::kAnd) return a & b;
  if constexpr (op == Op::kXor) return a ^ b;
  return a & ~b;
}

uint32_t AreaScalar(const uint64_t* a, size_t n) {
  uint32_t count = 0;
  for (size_t i = 0; i < n; ++i) count += PopCount(a[i]);
  return count;
}

template <Op op>
uint32_t CountScalar(const uint64_t* a, const uint64_t* b, size_t n) {
  uint32_t count = 0;
  for (size_t i = 0; i < n; ++i) count += PopCount(CombineWord<op>(a[i], b[i]));
  return count;
}

CountAndArea IntersectAndAreaScalar(const uint64_t* a, const uint64_t* b,
                                    size_t n) {
  CountAndArea result;
  for (size_t i = 0; i < n; ++i) {
    result.count += PopCount(a[i] & b[i]);
    result.area += PopCount(b[i]);
  }
  return result;
}

constexpr Variant kScalar = {
    .name = "scalar",
    .area = &AreaScalar,
    .intersect_count = &CountScalar<Op::kAnd>,
    .xor_count = &CountScalar<Op::kXor>,
    .and_not_count = &CountScalar<Op::kAndNot>,
    .intersect_and_area = &IntersectAndAreaScalar,
};

#ifdef SGTREE_AVX512_KERNELS
// ---------------------------------------------------------------------------
// AVX-512 VPOPCNTDQ variant: eight words per instruction, the words after
// the last full block read with a masked load (masked-off lanes are neither
// read nor faulted on). Only these functions are compiled for AVX-512, so
// the rest of the build stays at x86-64-v2.
// ---------------------------------------------------------------------------

#define SGTREE_TARGET_AVX512 __attribute__((target("avx512f,avx512vpopcntdq")))

inline __mmask8 TailMask(size_t words_left) {
  return static_cast<__mmask8>((1u << words_left) - 1);
}

// Sums the eight lanes through memory: GCC 12's _mm512_reduce_add_epi64
// trips -Werror=uninitialized.
SGTREE_TARGET_AVX512 uint32_t SumLanes(__m512i v) {
  alignas(64) uint64_t lanes[8];
  _mm512_store_si512(lanes, v);
  uint64_t sum = 0;
  for (const uint64_t lane : lanes) sum += lane;
  return static_cast<uint32_t>(sum);
}

// Vector operators rather than _mm512_andnot_si512, whose GCC 12 header
// trips -Werror=maybe-uninitialized.
template <Op op>
SGTREE_TARGET_AVX512 __m512i CombineBlock(__m512i a, __m512i b) {
  if constexpr (op == Op::kAnd) return a & b;
  if constexpr (op == Op::kXor) return a ^ b;
  return a & ~b;
}

SGTREE_TARGET_AVX512 uint32_t AreaAvx512(const uint64_t* a, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_add_epi64(acc,
                           _mm512_popcnt_epi64(_mm512_loadu_si512(a + i)));
  }
  if (i < n) {
    const __m512i va = _mm512_maskz_loadu_epi64(TailMask(n - i), a + i);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(va));
  }
  return SumLanes(acc);
}

template <Op op>
SGTREE_TARGET_AVX512 uint32_t CountAvx512(const uint64_t* a,
                                          const uint64_t* b, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(CombineBlock<op>(va, vb)));
  }
  if (i < n) {
    const __mmask8 mask = TailMask(n - i);
    const __m512i va = _mm512_maskz_loadu_epi64(mask, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi64(mask, b + i);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(CombineBlock<op>(va, vb)));
  }
  return SumLanes(acc);
}

SGTREE_TARGET_AVX512 CountAndArea IntersectAndAreaAvx512(const uint64_t* a,
                                                         const uint64_t* b,
                                                         size_t n) {
  __m512i inter = _mm512_setzero_si512();
  __m512i area = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    inter = _mm512_add_epi64(
        inter, _mm512_popcnt_epi64(CombineBlock<Op::kAnd>(va, vb)));
    area = _mm512_add_epi64(area, _mm512_popcnt_epi64(vb));
  }
  if (i < n) {
    const __mmask8 mask = TailMask(n - i);
    const __m512i va = _mm512_maskz_loadu_epi64(mask, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi64(mask, b + i);
    inter = _mm512_add_epi64(
        inter, _mm512_popcnt_epi64(CombineBlock<Op::kAnd>(va, vb)));
    area = _mm512_add_epi64(area, _mm512_popcnt_epi64(vb));
  }
  return {SumLanes(inter), SumLanes(area)};
}

#undef SGTREE_TARGET_AVX512

constexpr Variant kAvx512 = {
    .name = "avx512-vpopcntdq",
    .area = &AreaAvx512,
    .intersect_count = &CountAvx512<Op::kAnd>,
    .xor_count = &CountAvx512<Op::kXor>,
    .and_not_count = &CountAvx512<Op::kAndNot>,
    .intersect_and_area = &IntersectAndAreaAvx512,
};

bool CpuHasAvx512Popcount() {
  // Also runs before main(), where cpuid must be read explicitly.
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vpopcntdq");
}
#endif  // SGTREE_AVX512_KERNELS

// Every variant in preference order, the scalar reference first.
const Variant* const kAll[] = {
    &kScalar,
#ifdef SGTREE_AVX512_KERNELS
    &kAvx512,
#endif
};

size_t CountSupported() {
#ifdef SGTREE_AVX512_KERNELS
  if (CpuHasAvx512Popcount()) return 2;
#endif
  return 1;
}

}  // namespace

namespace internal {
constinit Variant active = kScalar;
}  // namespace internal

std::span<const Variant* const> Supported() {
  static const size_t count = CountSupported();
  return {kAll, count};
}

namespace {
// Installs the fastest supported variant during static initialization.
[[maybe_unused]] const bool kInstalled = [] {
  internal::active = *Supported().back();
  return true;
}();
}  // namespace

}  // namespace sgtree::kernels
