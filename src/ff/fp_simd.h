// Runtime-dispatched interleaved Montgomery kernels for the 4x64-limb prime
// fields (src/ff/fp.h).
//
// The kernels multiply several independent field elements per pass — lanes
// of a vector register each carry one element — so they accelerate *batches*
// of independent multiplications (MSM bucket folds, batch inversion, batch
// Jacobian->affine, per-wire Montgomery conversions), not a single serial
// chain. The backend is picked once per process from CPU features and the
// NOPE_SIMD environment variable; the scalar CIOS path in fp.h remains
// compiled-in as the differential reference and as the tail/fallback path.
//
// Bit-identity contract: every kernel computes a*b*2^-256 mod p with a final
// conditional subtraction to the canonical representative < p, exactly like
// the scalar MontMul. The internal radix (2^32 for AVX2/AVX-512 vs the
// scalar 2^64) does not change the result, so outputs are bit-identical
// limb-for-limb across backends for every input — pinned by
// tests/fp_simd_test.cc across all four moduli.
#ifndef SRC_FF_FP_SIMD_H_
#define SRC_FF_FP_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace nope {
namespace fp_simd {

// One interleaved Montgomery-multiplication kernel: computes
// out[e] = a[e] * b[e] * 2^-256 mod p for e in [0, count), where each
// element is 4 little-endian uint64 limbs, canonical (< p), and count is a
// multiple of the backend's lane width. `p` points at the 4 modulus limbs
// and `inv` is -p^{-1} mod 2^64 (Fp<Tag>::kInv). Elementwise aliasing of
// out with a and/or b is allowed.
using MontMulBatchFn = void (*)(const uint64_t* a, const uint64_t* b,
                                uint64_t* out, size_t count,
                                const uint64_t* p, uint64_t inv);

struct Backend {
  MontMulBatchFn mont_mul;  // null for the scalar backend
  size_t lanes;             // elements per kernel pass (1 for scalar)
  const char* name;         // "scalar", "avx2", "avx512"
};

// What a NOPE_SIMD environment value asks of the dispatcher.
enum class Request {
  kAuto,    // the widest kernel compiled in and supported by the CPU
  kScalar,  // the scalar CIOS path
  kAvx2,    // at most the AVX2 kernel
  kAvx512,  // at most the AVX-512 kernel
};

// Parses a NOPE_SIMD value, ignoring case: "off", "0" and "scalar" force the
// scalar path; "avx2" and "avx512" name a ceiling, and a kernel the CPU
// lacks falls back to the next narrower one; anything else, null and empty
// included, means automatic.
Request ParseRequest(const char* value);

// The backend selected for this process: the widest kernel both compiled in
// (CMake option NOPE_SIMD) and supported by the running CPU, under the
// ceiling ParseRequest reads from the NOPE_SIMD environment variable.
// Initialization is a C++11 magic static: concurrent first calls are safe
// (pinned under TSan by tests/fp_simd_test.cc).
const Backend& ActiveBackend();

// Kernel entry points. Definitions exist only when the matching translation
// unit is compiled in (gated on architecture and the NOPE_SIMD build
// option); they are referenced only by the dispatcher under the same gates.
void MontMulBatchAvx2(const uint64_t* a, const uint64_t* b, uint64_t* out,
                      size_t count, const uint64_t* p, uint64_t inv);
void MontMulBatchAvx512(const uint64_t* a, const uint64_t* b, uint64_t* out,
                        size_t count, const uint64_t* p, uint64_t inv);

}  // namespace fp_simd
}  // namespace nope

#endif  // SRC_FF_FP_SIMD_H_
