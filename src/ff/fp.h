// Fixed-width (256-bit, 4x64-limb) prime fields in Montgomery form.
//
// One template serves all four moduli the system needs: BN254's base and
// scalar fields (Groth16 back-end, §2.3 of the paper) and P-256's base field
// and group order (DNSSEC ECDSA, §5). Each modulus is a compile-time
// constant of its tag, so the hot add/sub/mul paths below are fully unrolled
// straight-line code with the modulus limbs as immediates (DESIGN.md "Field
// arithmetic: constant moduli"). Multiplication is textbook CIOS, which is
// valid for any odd modulus below 2^256 (P-256's prime is close to 2^256, so
// the extra carry limb matters).
#ifndef SRC_FF_FP_H_
#define SRC_FF_FP_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "src/base/biguint.h"
#include "src/base/bytes.h"
#include "src/base/check.h"
#include "src/ff/fp_simd.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace nope {

// Values only cold paths read (reduction of arbitrary BigUInts, Fermat
// inversion); the hot paths use the constexpr limbs of Fp<Tag>.
struct FpParams {
  BigUInt modulus_big;
  BigUInt modulus_minus_2;  // exponent for Fermat inversion
};

namespace fp_detail {
using uint128 = unsigned __int128;
using Limbs = std::array<uint64_t, 4>;

inline Limbs ToLimbs(const BigUInt& v) {
  const auto& limbs = v.limbs();
  // BigUInt is normalized (no leading zero limbs), so a fifth limb means
  // v >= 2^256 and the copy below would silently drop its top bits. Every
  // caller must reduce first.
  NOPE_INVARIANT(limbs.size() <= 4, "ToLimbs: value does not fit in 4 limbs");
  Limbs out{0, 0, 0, 0};
  for (size_t i = 0; i < limbs.size(); ++i) {
    out[i] = limbs[i];
  }
  return out;
}

inline BigUInt FromLimbs(const Limbs& limbs) {
  return BigUInt::FromLimbsLE(limbs.data(), 4);
}

// --- Carry helpers ---------------------------------------------------------
//
// out = a + b + *carry (resp. a - b - *borrow); the flag is 0 or 1 on entry
// and on exit. The portable forms are compiled on every host, and field_test
// checks the x86-64 intrinsic forms against them. On x86-64 gcc chains the
// intrinsics into one adc/sbb sequence, which it does not do for the
// portable forms (DESIGN.md "Field arithmetic: constant moduli").
constexpr uint64_t AddCarryPortable(uint64_t a, uint64_t b, unsigned char* carry) {
  const uint128 sum = static_cast<uint128>(a) + b + *carry;
  *carry = static_cast<unsigned char>(sum >> 64);
  return static_cast<uint64_t>(sum);
}

constexpr uint64_t SubBorrowPortable(uint64_t a, uint64_t b, unsigned char* borrow) {
  const uint128 diff = static_cast<uint128>(a) - b - *borrow;
  *borrow = static_cast<unsigned char>((diff >> 64) & 1);
  return static_cast<uint64_t>(diff);
}

inline uint64_t AddCarry(uint64_t a, uint64_t b, unsigned char* carry) {
#if defined(__x86_64__)
  unsigned long long out;
  *carry = _addcarry_u64(*carry, a, b, &out);
  return out;
#else
  return AddCarryPortable(a, b, carry);
#endif
}

inline uint64_t SubBorrow(uint64_t a, uint64_t b, unsigned char* borrow) {
#if defined(__x86_64__)
  unsigned long long out;
  *borrow = _subborrow_u64(*borrow, a, b, &out);
  return out;
#else
  return SubBorrowPortable(a, b, borrow);
#endif
}

// --- Compile-time modulus constants ------------------------------------------

// The 256-bit value of a decimal string (callers pass a prime below 2^256;
// field_test pins the result against BigUInt::FromDecimal).
constexpr Limbs ParseDecimal(const char* digits) {
  Limbs v{0, 0, 0, 0};
  for (; *digits != '\0'; ++digits) {
    uint64_t carry = static_cast<uint64_t>(*digits - '0');
    for (int i = 0; i < 4; ++i) {
      const uint128 t = static_cast<uint128>(v[i]) * 10 + carry;
      v[i] = static_cast<uint64_t>(t);
      carry = static_cast<uint64_t>(t >> 64);
    }
  }
  return v;
}

constexpr bool LessThan(const Limbs& a, const Limbs& b) {
  for (int i = 3; i >= 0; --i) {
    if (a[i] != b[i]) {
      return a[i] < b[i];
    }
  }
  return false;
}

// 2^k mod p by k modular doublings of 1 (p odd, 1 < p < 2^256).
constexpr Limbs PowerOfTwoMod(const Limbs& p, int k) {
  Limbs x{1, 0, 0, 0};
  for (int step = 0; step < k; ++step) {
    unsigned char carry = 0;
    for (int i = 0; i < 4; ++i) {
      x[i] = AddCarryPortable(x[i], x[i], &carry);
    }
    if (carry != 0 || !LessThan(x, p)) {  // 2x < 2p: one subtraction suffices
      unsigned char borrow = 0;
      for (int i = 0; i < 4; ++i) {
        x[i] = SubBorrowPortable(x[i], p[i], &borrow);
      }
    }
  }
  return x;
}

// -p^{-1} mod 2^64 (p0 odd) by Newton iteration: each step doubles the
// number of correct low bits, 1 -> 64 in six steps.
constexpr uint64_t NegInverse64(uint64_t p0) {
  uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) {
    inv *= 2 - p0 * inv;
  }
  return ~inv + 1;
}
}  // namespace fp_detail

// Tag must provide: static constexpr const char* ModulusDecimal();
template <typename Tag>
class Fp {
 public:
  using Limbs = fp_detail::Limbs;

  // Compile-time constants of the field, derived from the tag's decimal
  // modulus.
  static constexpr Limbs kModulus = fp_detail::ParseDecimal(Tag::ModulusDecimal());
  static constexpr Limbs kR = fp_detail::PowerOfTwoMod(kModulus, 256);   // R mod p, R = 2^256
  static constexpr Limbs kR2 = fp_detail::PowerOfTwoMod(kModulus, 512);  // R^2 mod p
  static constexpr uint64_t kInv = fp_detail::NegInverse64(kModulus[0]);  // -p^{-1} mod 2^64

  static_assert((kModulus[0] & 1) != 0, "Montgomery form needs an odd modulus");
  static_assert((kModulus[1] | kModulus[2] | kModulus[3]) != 0,
                "FromU64 needs p > 2^64");

  Fp() : limbs_{0, 0, 0, 0} {}

  static const FpParams& params() {
    static const FpParams p{fp_detail::FromLimbs(kModulus),
                            fp_detail::FromLimbs(kModulus) - BigUInt(2)};
    return p;
  }

  static Fp Zero() { return Fp(); }
  static Fp One() { return FromLimbsUnchecked(kR); }

  // v < 2^64 < p, so v is already reduced.
  static Fp FromU64(uint64_t v) { return FromLimbsUnchecked(MontMul({v, 0, 0, 0}, kR2)); }

  static Fp FromBigUInt(const BigUInt& v) {
    BigUInt reduced = v % params().modulus_big;
    return FromLimbsUnchecked(MontMul(fp_detail::ToLimbs(reduced), kR2));
  }

  static Fp Random(Rng* rng) {
    return FromBigUInt(BigUInt::RandomBelow(rng, params().modulus_big));
  }

  BigUInt ToBigUInt() const {
    return fp_detail::FromLimbs(MontMul(limbs_, {1, 0, 0, 0}));
  }

  bool IsZero() const { return limbs_[0] == 0 && limbs_[1] == 0 && limbs_[2] == 0 && limbs_[3] == 0; }

  bool operator==(const Fp& o) const { return limbs_ == o.limbs_; }
  bool operator!=(const Fp& o) const { return !(*this == o); }

  // Add/sub are branchless. They run in the MSM batch-affine fold loops on
  // effectively random field elements, where a 50/50 branch mispredicts
  // every other call and costs more than the whole operation.
  Fp operator+(const Fp& o) const {
    Limbs sum;
    unsigned char carry = 0;
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      sum[i] = fp_detail::AddCarry(limbs_[i], o.limbs_[i], &carry);
    }
    return FromLimbsUnchecked(ReduceOnce(sum, carry));
  }

  Fp operator-(const Fp& o) const {
    Limbs diff;
    unsigned char borrow = 0;
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      diff[i] = fp_detail::SubBorrow(limbs_[i], o.limbs_[i], &borrow);
    }
    // If a < b the wrapped difference is off by exactly 2^256 - p; adding
    // p (masked by the final borrow) lands on a - b + p < p.
    const uint64_t mask = 0 - static_cast<uint64_t>(borrow);
    unsigned char carry = 0;
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      diff[i] = fp_detail::AddCarry(diff[i], kModulus[i] & mask, &carry);
    }
    return FromLimbsUnchecked(diff);
  }

  Fp operator-() const { return Zero() - *this; }

  Fp operator*(const Fp& o) const { return FromLimbsUnchecked(MontMul(limbs_, o.limbs_)); }

  Fp Square() const { return *this * *this; }

  Fp Double() const { return *this + *this; }

  Fp Pow(const BigUInt& exp) const {
    Fp result = One();
    Fp base = *this;
    for (size_t i = exp.BitLength(); i-- > 0;) {
      result = result.Square();
      if (exp.Bit(i)) {
        result = result * base;
      }
    }
    return result;
  }

  // Fermat inversion; returns zero for zero input (callers check).
  Fp Inverse() const { return Pow(params().modulus_minus_2); }

  const Limbs& limbs() const { return limbs_; }

  std::string ToString() const { return ToBigUInt().ToDecimal(); }

  // --- Batch (SIMD-dispatched) operations ---------------------------------
  //
  // out[i] = a[i] * b[i] for i in [0, n). The lane-aligned prefix goes
  // through the process-wide SIMD backend (src/ff/fp_simd.h); the tail uses
  // the scalar CIOS path. Outputs are bit-identical either way, so callers
  // never need to care which kernel ran. Elementwise aliasing (out == a,
  // out == b) is allowed.
  static void MulBatch(const Fp* a, const Fp* b, Fp* out, size_t n) {
    static_assert(sizeof(Fp) == 4 * sizeof(uint64_t),
                  "batch kernels assume Fp is 4 packed limbs");
    static_assert(std::is_standard_layout<Fp>::value,
                  "batch kernels reinterpret Fp arrays as limb arrays");
    const fp_simd::Backend& be = fp_simd::ActiveBackend();
    const size_t main = be.mont_mul == nullptr ? 0 : n - n % be.lanes;
    if (main != 0) {
      be.mont_mul(reinterpret_cast<const uint64_t*>(a),
                  reinterpret_cast<const uint64_t*>(b),
                  reinterpret_cast<uint64_t*>(out), main, kModulus.data(), kInv);
    }
    for (size_t i = main; i < n; ++i) {
      out[i].limbs_ = MontMul(a[i].limbs_, b[i].limbs_);
    }
  }

  static void SquareBatch(const Fp* a, Fp* out, size_t n) {
    MulBatch(a, a, out, n);
  }

  // Montgomery -> standard form for n elements (the batch analogue of the
  // conversion inside ToBigUInt): out[i] = in[i] * 2^-256 mod p.
  static void ToStdLimbsBatch(const Fp* in, std::array<uint64_t, 4>* out,
                              size_t n) {
    constexpr size_t kBlock = 64;
    Fp ones[kBlock];
    Fp res[kBlock];
    for (size_t i = 0; i < kBlock; ++i) {
      ones[i].limbs_ = {1, 0, 0, 0};  // raw 1: MontMul(x, 1) leaves Montgomery form
    }
    for (size_t base = 0; base < n; base += kBlock) {
      const size_t len = n - base < kBlock ? n - base : kBlock;
      MulBatch(in + base, ones, res, len);
      for (size_t i = 0; i < len; ++i) {
        out[base + i] = res[i].limbs_;
      }
    }
  }

  // Adopts raw Montgomery-form limbs (test and differential-harness hook).
  static Fp FromMontLimbs(const Limbs& limbs) {
    NOPE_INVARIANT(fp_detail::LessThan(limbs, kModulus),
                   "FromMontLimbs: limbs must be canonical (< p)");
    return FromLimbsUnchecked(limbs);
  }

  // Lane width / name of the process-wide SIMD backend (1 / "scalar" when
  // vector kernels are compiled out, disabled, or unsupported by the CPU).
  static size_t SimdLanes() { return fp_simd::ActiveBackend().lanes; }
  static const char* SimdBackendName() { return fp_simd::ActiveBackend().name; }

 private:
  static Fp FromLimbsUnchecked(const Limbs& limbs) {
    Fp out;
    out.limbs_ = limbs;
    return out;
  }

  // The canonical representative of hi * 2^256 + t, given hi * 2^256 + t < 2p
  // and hi in {0, 1}: t - p unless the subtraction borrows past hi.
  static Limbs ReduceOnce(const Limbs& t, unsigned char hi) {
    Limbs d;
    unsigned char borrow = 0;
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      d[i] = fp_detail::SubBorrow(t[i], kModulus[i], &borrow);
    }
    const bool keep_t = borrow > hi;
    Limbs out;
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      out[i] = keep_t ? t[i] : d[i];
    }
    return out;
  }

  // a * b * 2^-256 mod p, canonical (CIOS: interleaved multiply and reduce
  // rounds over a six-limb running sum).
  static Limbs MontMul(const Limbs& a, const Limbs& b) {
    using fp_detail::uint128;
    uint64_t t[6] = {0, 0, 0, 0, 0, 0};
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      // Multiplication step: t += a * b[i].
      uint128 carry = 0;
#pragma GCC unroll 4
      for (int j = 0; j < 4; ++j) {
        const uint128 cur = static_cast<uint128>(a[j]) * b[i] + t[j] + carry;
        t[j] = static_cast<uint64_t>(cur);
        carry = cur >> 64;
      }
      const uint128 top = static_cast<uint128>(t[4]) + carry;
      t[4] = static_cast<uint64_t>(top);
      t[5] = static_cast<uint64_t>(top >> 64);

      // Reduction step: add m * p so the low limb cancels, shift a limb.
      const uint64_t m = t[0] * kInv;
      carry = (static_cast<uint128>(m) * kModulus[0] + t[0]) >> 64;
#pragma GCC unroll 3
      for (int j = 1; j < 4; ++j) {
        const uint128 cur = static_cast<uint128>(m) * kModulus[j] + t[j] + carry;
        t[j - 1] = static_cast<uint64_t>(cur);
        carry = cur >> 64;
      }
      const uint128 shifted = static_cast<uint128>(t[4]) + carry;
      t[3] = static_cast<uint64_t>(shifted);
      t[4] = t[5] + static_cast<uint64_t>(shifted >> 64);
    }
    return ReduceOnce({t[0], t[1], t[2], t[3]}, static_cast<unsigned char>(t[4]));
  }

  Limbs limbs_;
};

// --- Concrete fields -------------------------------------------------------

struct Bn254FqTag {
  static constexpr const char* ModulusDecimal() {
    return "21888242871839275222246405745257275088696311157297823662689037894645226208583";
  }
};

struct Bn254FrTag {
  static constexpr const char* ModulusDecimal() {
    return "21888242871839275222246405745257275088548364400416034343698204186575808495617";
  }
};

struct P256FqTag {
  static constexpr const char* ModulusDecimal() {
    return "115792089210356248762697446949407573530086143415290314195533631308867097853951";
  }
};

struct P256FnTag {
  static constexpr const char* ModulusDecimal() {
    return "115792089210356248762697446949407573529996955224135760342422259061068512044369";
  }
};

using Fq = Fp<Bn254FqTag>;    // BN254 base field
using Fr = Fp<Bn254FrTag>;    // BN254 scalar field (R1CS constraint field)
using P256Fq = Fp<P256FqTag>; // P-256 base field
using P256Fn = Fp<P256FnTag>; // P-256 group order field

// --- Generic batch helpers -------------------------------------------------
//
// Templated batch consumers (batch inversion, MSM bucket folds) run over
// both the prime fields above and composite fields like Fp2 that have no
// SIMD batch API. These helpers dispatch to the field's batch entry points
// when they exist and fall back to elementwise operations otherwise.

template <typename F, typename = void>
struct FieldHasBatchOps : std::false_type {};
template <typename F>
struct FieldHasBatchOps<
    F, std::void_t<decltype(F::MulBatch(static_cast<const F*>(nullptr),
                                        static_cast<const F*>(nullptr),
                                        static_cast<F*>(nullptr), size_t{0}))>>
    : std::true_type {};

template <typename F>
inline void FieldMulBatch(const F* a, const F* b, F* out, size_t n) {
  if constexpr (FieldHasBatchOps<F>::value) {
    F::MulBatch(a, b, out, n);
  } else {
    for (size_t i = 0; i < n; ++i) {
      out[i] = a[i] * b[i];
    }
  }
}

template <typename F>
inline void FieldSquareBatch(const F* a, F* out, size_t n) {
  if constexpr (FieldHasBatchOps<F>::value) {
    F::SquareBatch(a, out, n);
  } else {
    for (size_t i = 0; i < n; ++i) {
      out[i] = a[i].Square();
    }
  }
}

template <typename F>
inline size_t FieldSimdLanes() {
  if constexpr (FieldHasBatchOps<F>::value) {
    return F::SimdLanes();
  } else {
    return 1;
  }
}

}  // namespace nope

#endif  // SRC_FF_FP_H_
