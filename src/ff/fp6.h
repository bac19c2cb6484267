// Fp6 = Fp2[v]/(v^3 - xi), the middle level of the BN254 tower.
#ifndef SRC_FF_FP6_H_
#define SRC_FF_FP6_H_

#include "src/ff/fp2.h"

namespace nope {

struct Fp6 {
  Fp2 c0;
  Fp2 c1;
  Fp2 c2;

  static Fp6 Zero() { return {Fp2::Zero(), Fp2::Zero(), Fp2::Zero()}; }
  static Fp6 One() { return {Fp2::One(), Fp2::Zero(), Fp2::Zero()}; }

  bool IsZero() const { return c0.IsZero() && c1.IsZero() && c2.IsZero(); }
  bool operator==(const Fp6& o) const { return c0 == o.c0 && c1 == o.c1 && c2 == o.c2; }
  bool operator!=(const Fp6& o) const { return !(*this == o); }

  Fp6 operator+(const Fp6& o) const { return {c0 + o.c0, c1 + o.c1, c2 + o.c2}; }
  Fp6 operator-(const Fp6& o) const { return {c0 - o.c0, c1 - o.c1, c2 - o.c2}; }
  Fp6 operator-() const { return {-c0, -c1, -c2}; }

  Fp6 operator*(const Fp6& o) const {
    // Toom-style interpolation (CH-SQR3 family): 6 Fp2 multiplications.
    Fp2 v0 = c0 * o.c0;
    Fp2 v1 = c1 * o.c1;
    Fp2 v2 = c2 * o.c2;
    Fp2 t0 = (c1 + c2) * (o.c1 + o.c2) - v1 - v2;  // c1*o2 + c2*o1
    Fp2 t1 = (c0 + c1) * (o.c0 + o.c1) - v0 - v1;  // c0*o1 + c1*o0
    Fp2 t2 = (c0 + c2) * (o.c0 + o.c2) - v0 - v2;  // c0*o2 + c2*o0
    return {v0 + MulByXi(t0), t1 + MulByXi(v2), t2 + v1};
  }

  Fp6 Square() const { return *this * *this; }

  // Multiplication by the sparse element b0 + b1 v: 5 Fp2 multiplications.
  Fp6 MulBy01(const Fp2& b0, const Fp2& b1) const {
    Fp2 v0 = c0 * b0;
    Fp2 v1 = c1 * b1;
    Fp2 t0 = (c1 + c2) * b1 - v1;                  // c2*b1
    Fp2 t1 = (c0 + c1) * (b0 + b1) - v0 - v1;      // c0*b1 + c1*b0
    Fp2 t2 = (c0 + c2) * b0 - v0 + v1;             // c2*b0 + c1*b1
    return {v0 + MulByXi(t0), t1, t2};
  }

  Fp6 ScalarMulFp2(const Fp2& s) const { return {c0 * s, c1 * s, c2 * s}; }

  // Multiplication by v: (c0 + c1 v + c2 v^2) * v = xi*c2 + c0 v + c1 v^2.
  Fp6 MulByV() const { return {MulByXi(c2), c0, c1}; }

  Fp6 Inverse() const {
    // Standard cubic-extension inversion.
    Fp2 a = c0.Square() - MulByXi(c1 * c2);
    Fp2 b = MulByXi(c2.Square()) - c0 * c1;
    Fp2 c = c1.Square() - c0 * c2;
    Fp2 t = MulByXi(c1 * c + c2 * b) + c0 * a;
    Fp2 t_inv = t.Inverse();
    return {a * t_inv, b * t_inv, c * t_inv};
  }
};

}  // namespace nope

#endif  // SRC_FF_FP6_H_
