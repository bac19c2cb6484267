// 8-way interleaved Montgomery multiplication for AVX-512F.
//
// Same vertical radix-2^32 CIOS schedule as the AVX2 kernel (see
// fp_simd_avx2.cc for the baseline carry analysis and the bit-identity
// argument) with 512-bit registers carrying eight elements per pass, plus
// lazy column-accumulated carries (see MontMulGroups below) to break the
// per-digit carry chain that serializes the AVX2 variant. Only AVX-512F is
// required: vpmuludq, shifts, adds, permutex2var and masked blends all exist
// at the F level. We deliberately do not use IFMA's 52-bit lanes — a 2^52
// radix would imply R = 2^260 and break bit-identity with the scalar
// R = 2^256 path.
//
// Elements arrive limb-contiguous (AoS); the kernel needs limb-major (SoA)
// vectors. Both directions are full-width 4x8 transposes built from
// permutex2var (2 layers x 4 permutes), not per-lane scalar gathers — on
// wide cores the scalar gather/scatter otherwise costs as much as the
// arithmetic it feeds. The final conditional subtraction is branchless in
// the digit domain: one borrow-propagated vector subtract plus a masked
// blend keyed on the sign of (t - p).
#include <cstddef>
#include <cstdint>

#include "src/ff/fp_simd.h"

#if defined(__AVX512F__)

#include <immintrin.h>

namespace nope {
namespace fp_simd {
namespace {

// Loads 8 elements (32 consecutive limbs) and returns them limb-major:
// lv[t] holds limb t of all eight elements.
inline void LoadTransposed(const uint64_t* src, __m512i lv[4]) {
  const __m512i v0 = _mm512_loadu_si512(src);       // e0, e1
  const __m512i v1 = _mm512_loadu_si512(src + 8);   // e2, e3
  const __m512i v2 = _mm512_loadu_si512(src + 16);  // e4, e5
  const __m512i v3 = _mm512_loadu_si512(src + 24);  // e6, e7
  const __m512i idx_lo = _mm512_setr_epi64(0, 4, 8, 12, 1, 5, 9, 13);
  const __m512i idx_hi = _mm512_setr_epi64(2, 6, 10, 14, 3, 7, 11, 15);
  // s01_lo = [e0l0 e1l0 e2l0 e3l0 | e0l1 e1l1 e2l1 e3l1], etc.
  const __m512i s01_lo = _mm512_permutex2var_epi64(v0, idx_lo, v1);
  const __m512i s01_hi = _mm512_permutex2var_epi64(v0, idx_hi, v1);
  const __m512i s23_lo = _mm512_permutex2var_epi64(v2, idx_lo, v3);
  const __m512i s23_hi = _mm512_permutex2var_epi64(v2, idx_hi, v3);
  const __m512i take_lo = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
  const __m512i take_hi = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
  lv[0] = _mm512_permutex2var_epi64(s01_lo, take_lo, s23_lo);
  lv[1] = _mm512_permutex2var_epi64(s01_lo, take_hi, s23_lo);
  lv[2] = _mm512_permutex2var_epi64(s01_hi, take_lo, s23_hi);
  lv[3] = _mm512_permutex2var_epi64(s01_hi, take_hi, s23_hi);
}

// Inverse of LoadTransposed: scatters limb-major vectors back to 8
// limb-contiguous elements.
inline void StoreTransposed(uint64_t* dst, const __m512i lv[4]) {
  const __m512i pair_lo = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
  const __m512i pair_hi = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
  // m0 = [e0l0 e0l1 e1l0 e1l1 e2l0 e2l1 e3l0 e3l1], etc.
  const __m512i m0 = _mm512_permutex2var_epi64(lv[0], pair_lo, lv[1]);
  const __m512i m1 = _mm512_permutex2var_epi64(lv[0], pair_hi, lv[1]);
  const __m512i m2 = _mm512_permutex2var_epi64(lv[2], pair_lo, lv[3]);
  const __m512i m3 = _mm512_permutex2var_epi64(lv[2], pair_hi, lv[3]);
  const __m512i quad_lo = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
  const __m512i quad_hi = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
  _mm512_storeu_si512(dst, _mm512_permutex2var_epi64(m0, quad_lo, m2));
  _mm512_storeu_si512(dst + 8, _mm512_permutex2var_epi64(m0, quad_hi, m2));
  _mm512_storeu_si512(dst + 16, _mm512_permutex2var_epi64(m1, quad_lo, m3));
  _mm512_storeu_si512(dst + 24, _mm512_permutex2var_epi64(m1, quad_hi, m3));
}

// One interleaved Montgomery pass over `G` independent groups of 8
// elements. Carries are LAZY: each 64-bit product is split into its 32-bit
// halves which are accumulated into 64-bit column lanes without propagation,
// so the eight column updates of every round are independent (the only
// serial dependency is m_i on column 0). Column magnitudes stay below
// 2^32 * (4 terms/round * 8 rounds) < 2^37, far from lane overflow, and the
// inputs of every vpmuludq are exact 32-bit digits, so no product ever sees
// a lazy operand. One carry normalization at the end restores digits.
//
// Bit-identity with the scalar CIOS path: m_i = low32(column 0) * inv is
// unchanged by carry scheduling (column 0 is exact mod 2^32 whenever m_i is
// computed), so the algebraic value T = (a*b + sum m_i*p*2^(32i)) / 2^256
// and the final conditional subtraction are the same as the scalar code's.
// G is a compile time constant so every loop fully unrolls.
// p's digits are deliberately passed through memory (pd), not as eight
// pre-broadcast registers: gcc folds _mm512_set1_epi64(pd[j]) into vpmuludq's
// embedded-broadcast memory operand, freeing 8 of the 32 vector registers
// for the column accumulators.
template <int G>
inline void MontMulGroups(const uint64_t* a, const uint64_t* b, uint64_t* out,
                          const uint64_t* pd, __m512i invv, __m512i mask32) {
  // a is pre-split into eight 32-bit digit vectors (all eight feed every
  // round); b stays as four packed 64-bit limb vectors and each round
  // extracts only the single digit it consumes — this keeps the live vector
  // state at ~32 registers instead of spilling a second 8-vector digit set.
  __m512i av[G][8];
  __m512i bl[G][4];
  for (int q = 0; q < G; ++q) {
    __m512i al[4];
    LoadTransposed(a + 32 * q, al);
    LoadTransposed(b + 32 * q, bl[q]);
    for (int t = 0; t < 4; ++t) {
      av[q][2 * t] = _mm512_and_si512(al[t], mask32);
      av[q][2 * t + 1] = _mm512_srli_epi64(al[t], 32);
    }
  }

  __m512i tv[G][9];
  for (int q = 0; q < G; ++q) {
#pragma GCC unroll 9
    for (int j = 0; j < 9; ++j) {
      tv[q][j] = _mm512_setzero_si512();
    }
  }
#pragma GCC unroll 8
  for (int i = 0; i < 8; ++i) {
#pragma GCC unroll 4
    for (int q = 0; q < G; ++q) {
      const __m512i bi = (i & 1) ? _mm512_srli_epi64(bl[q][i / 2], 32)
                                 : _mm512_and_si512(bl[q][i / 2], mask32);
      // Multiplication step: columns += halves of a_j * b_i.
#pragma GCC unroll 8
      for (int j = 0; j < 8; ++j) {
        const __m512i p = _mm512_mul_epu32(av[q][j], bi);
        tv[q][j] = _mm512_add_epi64(tv[q][j], _mm512_and_si512(p, mask32));
        tv[q][j + 1] =
            _mm512_add_epi64(tv[q][j + 1], _mm512_srli_epi64(p, 32));
      }
      // Reduction step fused with the one-digit shift: columns pick up the
      // halves of m * p_j while sliding down one slot. vpmuludq reads only
      // the low 32 bits of each lane, so the lazy column 0 feeds it
      // directly, and column 0's post-reduction upper bits (its low 32 are
      // exactly zero) carry into the new column 0.
      const __m512i m = _mm512_mul_epu32(tv[q][0], invv);
      const __m512i p0 =
          _mm512_mul_epu32(m, _mm512_set1_epi64(static_cast<long long>(pd[0])));
      const __m512i c0 =
          _mm512_add_epi64(tv[q][0], _mm512_and_si512(p0, mask32));
      __m512i hi_prev =
          _mm512_add_epi64(_mm512_srli_epi64(p0, 32), _mm512_srli_epi64(c0, 32));
      #pragma GCC unroll 7
      for (int j = 1; j < 8; ++j) {
        const __m512i p =
            _mm512_mul_epu32(m, _mm512_set1_epi64(static_cast<long long>(pd[j])));
        tv[q][j - 1] = _mm512_add_epi64(
            _mm512_add_epi64(tv[q][j], _mm512_and_si512(p, mask32)), hi_prev);
        hi_prev = _mm512_srli_epi64(p, 32);
      }
      tv[q][7] = _mm512_add_epi64(tv[q][8], hi_prev);
      tv[q][8] = _mm512_setzero_si512();
      // Scheduling barrier: without it gcc software-pipelines the fully
      // unrolled rounds into one huge live range and spills ~100 vectors
      // to the stack (kernel measured ~40% slower). Pinning the columns
      // to registers at each round boundary keeps the frame empty.
      asm("" : "+v"(tv[q][0]), "+v"(tv[q][1]), "+v"(tv[q][2]),
               "+v"(tv[q][3]), "+v"(tv[q][4]), "+v"(tv[q][5]),
               "+v"(tv[q][6]), "+v"(tv[q][7]));
      asm("" : "+v"(av[q][0]), "+v"(av[q][1]), "+v"(av[q][2]),
               "+v"(av[q][3]), "+v"(av[q][4]), "+v"(av[q][5]),
               "+v"(av[q][6]), "+v"(av[q][7]));
    }
  }

#pragma GCC unroll 4
  for (int q = 0; q < G; ++q) {
    // Normalize the lazy columns back to 32-bit digits (one ripple).
    __m512i carry = _mm512_setzero_si512();
#pragma GCC unroll 8
    for (int j = 0; j < 8; ++j) {
      const __m512i cur = _mm512_add_epi64(tv[q][j], carry);
      tv[q][j] = _mm512_and_si512(cur, mask32);
      carry = _mm512_srli_epi64(cur, 32);
    }
    tv[q][8] = carry;  // T/2^256 < 2p, so this digit is 0 or 1

    // Branchless conditional subtraction, still in the 32-bit digit domain:
    // d = t - p with borrow propagation; keep t where t < p (the final
    // borrow out-runs the carry digit and d goes negative), else take d.
    __m512i borrow = _mm512_setzero_si512();
    __m512i d[8];
    for (int j = 0; j < 8; ++j) {
      __m512i sub = _mm512_sub_epi64(
          _mm512_sub_epi64(tv[q][j],
                           _mm512_set1_epi64(static_cast<long long>(pd[j]))),
          borrow);
      borrow = _mm512_srli_epi64(sub, 63);
      d[j] = _mm512_and_si512(sub, mask32);
    }
    const __m512i fin = _mm512_sub_epi64(tv[q][8], borrow);
    const __mmask8 keep =
        _mm512_cmp_epi64_mask(fin, _mm512_setzero_si512(), _MM_CMPINT_LT);
    for (int j = 0; j < 8; ++j) {
      tv[q][j] = _mm512_mask_blend_epi64(keep, d[j], tv[q][j]);
    }

    __m512i rl[4];
    for (int t = 0; t < 4; ++t) {
      rl[t] =
          _mm512_or_si512(tv[q][2 * t], _mm512_slli_epi64(tv[q][2 * t + 1], 32));
    }
    StoreTransposed(out + 32 * q, rl);
  }
}

}  // namespace

void MontMulBatchAvx512(const uint64_t* a, const uint64_t* b, uint64_t* out,
                        size_t count, const uint64_t* p, uint64_t inv) {
  const __m512i mask32 = _mm512_set1_epi64(0xffffffffll);
  uint64_t pd[8];
  for (int t = 0; t < 4; ++t) {
    pd[2 * t] = p[t] & 0xffffffffu;
    pd[2 * t + 1] = p[t] >> 32;
  }
  const __m512i invv =
      _mm512_set1_epi64(static_cast<long long>(inv & 0xffffffffu));

  size_t g = 0;
  for (; g + 8 <= count; g += 8) {
    MontMulGroups<1>(a + 4 * g, b + 4 * g, out + 4 * g, pd, invv, mask32);
  }
  // The kernel runs out of zmm16-31, which vzeroupper does not clear. Left
  // non-zero, they slow the code that runs after the kernel for the rest of
  // the process: one 8-element call made a later fleet simulation ~15%
  // slower on the 4-core Xeon VM. Zeroing them, then vzeroupper for
  // zmm0-15, ends that and changes no output.
  asm volatile(
      "vpxord %%zmm16, %%zmm16, %%zmm16\n\tvpxord %%zmm17, %%zmm17, %%zmm17\n\t"
      "vpxord %%zmm18, %%zmm18, %%zmm18\n\tvpxord %%zmm19, %%zmm19, %%zmm19\n\t"
      "vpxord %%zmm20, %%zmm20, %%zmm20\n\tvpxord %%zmm21, %%zmm21, %%zmm21\n\t"
      "vpxord %%zmm22, %%zmm22, %%zmm22\n\tvpxord %%zmm23, %%zmm23, %%zmm23\n\t"
      "vpxord %%zmm24, %%zmm24, %%zmm24\n\tvpxord %%zmm25, %%zmm25, %%zmm25\n\t"
      "vpxord %%zmm26, %%zmm26, %%zmm26\n\tvpxord %%zmm27, %%zmm27, %%zmm27\n\t"
      "vpxord %%zmm28, %%zmm28, %%zmm28\n\tvpxord %%zmm29, %%zmm29, %%zmm29\n\t"
      "vpxord %%zmm30, %%zmm30, %%zmm30\n\tvpxord %%zmm31, %%zmm31, %%zmm31"
      ::: "xmm16", "xmm17", "xmm18", "xmm19", "xmm20", "xmm21", "xmm22", "xmm23",
          "xmm24", "xmm25", "xmm26", "xmm27", "xmm28", "xmm29", "xmm30", "xmm31");
  _mm256_zeroupper();
}

}  // namespace fp_simd
}  // namespace nope

#endif  // __AVX512F__
