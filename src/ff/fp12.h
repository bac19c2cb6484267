// Fp12 = Fp6[w]/(w^2 - v), the pairing target field for BN254.
#ifndef SRC_FF_FP12_H_
#define SRC_FF_FP12_H_

#include <cstdint>
#include <vector>

#include "src/ff/fp6.h"

namespace nope {

struct Fp12 {
  Fp6 c0;
  Fp6 c1;

  static Fp12 Zero() { return {Fp6::Zero(), Fp6::Zero()}; }
  static Fp12 One() { return {Fp6::One(), Fp6::Zero()}; }

  bool IsZero() const { return c0.IsZero() && c1.IsZero(); }
  bool IsOne() const { return *this == One(); }
  bool operator==(const Fp12& o) const { return c0 == o.c0 && c1 == o.c1; }
  bool operator!=(const Fp12& o) const { return !(*this == o); }

  Fp12 operator+(const Fp12& o) const { return {c0 + o.c0, c1 + o.c1}; }
  Fp12 operator-(const Fp12& o) const { return {c0 - o.c0, c1 - o.c1}; }
  Fp12 operator-() const { return {-c0, -c1}; }

  Fp12 operator*(const Fp12& o) const {
    // Karatsuba over the quadratic extension with w^2 = v.
    Fp6 v0 = c0 * o.c0;
    Fp6 v1 = c1 * o.c1;
    Fp6 mid = (c0 + c1) * (o.c0 + o.c1) - v0 - v1;
    return {v0 + v1.MulByV(), mid};
  }

  Fp12 Square() const {
    Fp6 v0 = c0 * c1;
    Fp6 t = c0 + c1.MulByV();
    Fp6 lhs = t * (c0 + c1) - v0 - v0.MulByV();
    return {lhs, v0 + v0};
  }

  // Multiplication by the sparse element a + (b + c v) w, the shape of a
  // Miller-loop line on BN254's D-type twist: 13 Fp2 multiplications
  // against 18 for a dense product.
  Fp12 MulBy034(const Fp2& a, const Fp2& b, const Fp2& c) const {
    Fp6 t0 = c0.ScalarMulFp2(a);
    Fp6 t1 = c1.MulBy01(b, c);
    Fp6 mid = (c0 + c1).MulBy01(a + b, c) - t0 - t1;
    return {t0 + t1.MulByV(), mid};
  }

  // p^6-power Frobenius: conjugation over Fp6.
  Fp12 Conjugate() const { return {c0, -c1}; }

  // The next two are valid only in the cyclotomic subgroup (elements of
  // order dividing p^4 - p^2 + 1, e.g. any FinalExponentiation output),
  // where Conjugate() is the inverse.
  //
  // Granger-Scott squaring: three Fp4 squarings (9 Fp2 products, 6 of them
  // squares) against 12 Fp2 multiplications for Square().
  Fp12 CyclotomicSquare() const;
  // *this^e for e given as signed digits in {-1, 0, 1}, least significant
  // first (BigUInt::Naf()); a -1 digit multiplies by the conjugate.
  Fp12 CyclotomicPow(const std::vector<int8_t>& naf) const;

  Fp12 Inverse() const {
    Fp6 norm = c0.Square() - c1.Square().MulByV();
    Fp6 inv = norm.Inverse();
    return {c0 * inv, (-c1) * inv};
  }

  Fp12 Pow(const BigUInt& exp) const {
    Fp12 result = One();
    for (size_t i = exp.BitLength(); i-- > 0;) {
      result = result.Square();
      if (exp.Bit(i)) {
        result = result * *this;
      }
    }
    return result;
  }

  // p-power Frobenius, applied `power` times (coefficients are computed once
  // at startup from xi^((p-1)k/6); see fp12.cc).
  Fp12 Frobenius(int power = 1) const;
};

}  // namespace nope

#endif  // SRC_FF_FP12_H_
