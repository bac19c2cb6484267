// Fp2 = Fq[u]/(u^2 + 1), the first level of the BN254 tower.
#ifndef SRC_FF_FP2_H_
#define SRC_FF_FP2_H_

#include "src/ff/fp.h"

namespace nope {

struct Fp2 {
  Fq c0;
  Fq c1;

  static Fp2 Zero() { return {Fq::Zero(), Fq::Zero()}; }
  static Fp2 One() { return {Fq::One(), Fq::Zero()}; }

  bool IsZero() const { return c0.IsZero() && c1.IsZero(); }
  bool operator==(const Fp2& o) const { return c0 == o.c0 && c1 == o.c1; }
  bool operator!=(const Fp2& o) const { return !(*this == o); }

  Fp2 operator+(const Fp2& o) const { return {c0 + o.c0, c1 + o.c1}; }
  Fp2 operator-(const Fp2& o) const { return {c0 - o.c0, c1 - o.c1}; }
  Fp2 operator-() const { return {-c0, -c1}; }

  Fp2 operator*(const Fp2& o) const {
    // Karatsuba: (a0 + a1 u)(b0 + b1 u) with u^2 = -1.
    Fq v0 = c0 * o.c0;
    Fq v1 = c1 * o.c1;
    Fq mid = (c0 + c1) * (o.c0 + o.c1) - v0 - v1;
    return {v0 - v1, mid};
  }

  Fp2 Square() const {
    // (a0 + a1 u)^2 = (a0+a1)(a0-a1) + 2 a0 a1 u.
    Fq t0 = c0 + c1;
    Fq t1 = c0 - c1;
    Fq t2 = c0 * c1;
    return {t0 * t1, t2 + t2};
  }

  Fp2 Double() const { return {c0.Double(), c1.Double()}; }

  // Multiply by a base-field scalar.
  Fp2 ScalarMul(const Fq& s) const { return {c0 * s, c1 * s}; }

  Fp2 Conjugate() const { return {c0, -c1}; }

  Fp2 Inverse() const {
    // 1/(a0 + a1 u) = conj / (a0^2 + a1^2).
    Fq norm = c0.Square() + c1.Square();
    Fq inv = norm.Inverse();
    return {c0 * inv, (-c1) * inv};
  }

  Fp2 Pow(const BigUInt& exp) const {
    Fp2 result = One();
    for (size_t i = exp.BitLength(); i-- > 0;) {
      result = result.Square();
      if (exp.Bit(i)) {
        result = result * *this;
      }
    }
    return result;
  }
};

// Non-residue used to build Fp6: xi = 9 + u.
inline const Fp2& Xi() {
  static const Fp2 xi{Fq::FromU64(9), Fq::One()};
  return xi;
}

// Multiplication by xi, used in the Fp6/Fp12 reduction steps (twice per Fp6
// multiply).
inline Fp2 MulByXi(const Fp2& a) {
  // (9 + u)(c0 + c1 u) = (9 c0 - c1) + (9 c1 + c0) u, with 9c = 8c + c as
  // three doublings and an add (cheaper than a Montgomery multiply).
  auto times9 = [](const Fq& c) { return c.Double().Double().Double() + c; };
  return {times9(a.c0) - a.c1, times9(a.c1) + a.c0};
}

}  // namespace nope

#endif  // SRC_FF_FP2_H_
