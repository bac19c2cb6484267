// Arbitrary-precision unsigned integers.
//
// This is the big-number substrate for RSA (2048-bit and larger moduli),
// pairing final-exponentiation exponents, non-native witness computation in
// the R1CS gadgets, and the GLV/Antipa half-size decomposition used by the
// ECDSA verification transform (paper Appendix C).
//
// Representation: little-endian vector of 64-bit limbs, normalized so the
// most significant limb is non-zero (zero is the empty vector).
#ifndef SRC_BASE_BIGUINT_H_
#define SRC_BASE_BIGUINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/base/bytes.h"

namespace nope {

class BigUInt {
 public:
  BigUInt() = default;
  explicit BigUInt(uint64_t v);

  // Parses big-endian hex (no 0x prefix required; one is tolerated).
  static BigUInt FromHex(const std::string& hex);
  // Parses a base-10 string.
  static BigUInt FromDecimal(const std::string& dec);
  // Big-endian byte deserialization.
  static BigUInt FromBytes(const Bytes& bytes);
  // Little-endian 64-bit limb deserialization (trailing zero limbs allowed).
  static BigUInt FromLimbsLE(const uint64_t* limbs, size_t n);
  // Uniform random value with exactly `bits` bits (top bit set) for key
  // generation, or uniform below a bound for nonces.
  static BigUInt Random(Rng* rng, size_t bits);
  static BigUInt RandomBelow(Rng* rng, const BigUInt& bound);

  bool IsZero() const { return limbs_.empty(); }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  size_t BitLength() const;
  bool Bit(size_t i) const;
  uint64_t LowU64() const { return limbs_.empty() ? 0 : limbs_[0]; }

  // Comparison: -1, 0, or 1.
  int Compare(const BigUInt& other) const;
  bool operator==(const BigUInt& o) const { return Compare(o) == 0; }
  bool operator!=(const BigUInt& o) const { return Compare(o) != 0; }
  bool operator<(const BigUInt& o) const { return Compare(o) < 0; }
  bool operator<=(const BigUInt& o) const { return Compare(o) <= 0; }
  bool operator>(const BigUInt& o) const { return Compare(o) > 0; }
  bool operator>=(const BigUInt& o) const { return Compare(o) >= 0; }

  BigUInt operator+(const BigUInt& o) const;
  // Throws std::underflow_error if o > *this.
  BigUInt operator-(const BigUInt& o) const;
  BigUInt operator*(const BigUInt& o) const;
  BigUInt operator<<(size_t bits) const;
  BigUInt operator>>(size_t bits) const;

  // Knuth Algorithm D long division. Throws std::domain_error on divide by 0.
  struct DivModResult;
  DivModResult DivMod(const BigUInt& divisor) const;
  BigUInt operator/(const BigUInt& o) const;
  BigUInt operator%(const BigUInt& o) const;

  // Modular helpers. All reduce operands first; modulus must be non-zero.
  BigUInt AddMod(const BigUInt& o, const BigUInt& m) const;
  BigUInt SubMod(const BigUInt& o, const BigUInt& m) const;
  BigUInt MulMod(const BigUInt& o, const BigUInt& m) const;
  BigUInt PowMod(const BigUInt& exp, const BigUInt& m) const;
  // Inverse modulo m (m need not be prime, but gcd(*this, m) must be 1);
  // throws std::domain_error otherwise.
  BigUInt InvMod(const BigUInt& m) const;

  static BigUInt Gcd(BigUInt a, BigUInt b);

  // Non-adjacent form: digits d_i in {-1, 0, 1}, least significant first,
  // no two adjacent digits nonzero, sum d_i 2^i == *this. Empty for zero.
  // Used for signed-digit exponent chains (pairing loop count, Fp12 powers).
  std::vector<int8_t> Naf() const;

  // Partial extended Euclid on (n, k): returns (v, w) with w = k*v mod n
  // (up to sign handled internally), |v|,|w| < ~sqrt(n). This is the Antipa
  // et al. half-size decomposition the ECDSA gadget validates in-circuit.
  // Returns v (positive representative) and whether k*v mod n needed
  // negation to become small; see ecdsa_gadget for usage.
  struct HalfGcdResult;
  static HalfGcdResult HalfGcd(const BigUInt& n, const BigUInt& k);

  // Same partial-Euclid walk as HalfGcd, but returns the two consecutive
  // rows (r_m, t_m), (r_{m+1}, t_{m+1}) straddling sqrt(n): r_m >= 2^ceil(bits/2)
  // > r_{m+1}. Each row satisfies r_i == +-t_i * k (mod n) (sign via t_neg),
  // which is exactly the short-lattice-basis input the GLV scalar
  // decomposition needs (two independent short vectors (r_i, -t_i) in the
  // lattice {(a, b) : a + b*k == 0 mod n}).
  struct ExtEuclidRow;
  static std::pair<ExtEuclidRow, ExtEuclidRow> HalfGcdRows(const BigUInt& n,
                                                           const BigUInt& k);

  // Big-endian serialization, zero-padded/truncated to `width` bytes if
  // width != 0 (throws std::length_error if the value doesn't fit).
  Bytes ToBytes(size_t width = 0) const;
  std::string ToHex() const;
  std::string ToDecimal() const;

  const std::vector<uint64_t>& limbs() const { return limbs_; }

 private:
  void Normalize();

  std::vector<uint64_t> limbs_;
};

struct BigUInt::DivModResult {
  BigUInt quotient;
  BigUInt remainder;
};

struct BigUInt::HalfGcdResult {
  BigUInt v;       // |v| < 2^(ceil(bits/2)+1), v > 0
  bool v_negated;  // true if the small pair used -v
  BigUInt w;       // w = +-(k*v) mod n, small
  bool w_negated;  // reserved; always false today
};

struct BigUInt::ExtEuclidRow {
  BigUInt r;   // remainder (always non-negative)
  BigUInt t;   // |t| where r == sign(t) * t * k (mod n)
  bool t_neg;  // sign of the t coefficient
};

inline BigUInt BigUInt::operator/(const BigUInt& o) const { return DivMod(o).quotient; }
inline BigUInt BigUInt::operator%(const BigUInt& o) const { return DivMod(o).remainder; }

}  // namespace nope

#endif  // SRC_BASE_BIGUINT_H_
