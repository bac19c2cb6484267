// Generic short-Weierstrass elliptic-curve arithmetic in Jacobian
// coordinates, over any field with the Fp-style interface. Instantiated for
// BN254 G1 (Groth16), BN254 G2 over Fp2, and NIST P-256 (DNSSEC ECDSA).
#ifndef SRC_EC_CURVE_H_
#define SRC_EC_CURVE_H_

#include <stdexcept>

#include "src/base/biguint.h"

namespace nope {

// Affine point (canonical coordinates: a group element has exactly one
// affine representation, unlike Jacobian). A standalone template rather than
// a nested struct so functions taking affine inputs can deduce Config.
template <typename Config>
struct AffinePoint {
  using Field = typename Config::Field;

  Field x;
  Field y;
  bool infinity;

  static AffinePoint Infinity() { return {Field::Zero(), Field::Zero(), true}; }

  AffinePoint Negate() const { return {x, -y, infinity}; }
};

// Config requirements:
//   using Field = ...;
//   static Field A();
//   static Field B();
//   static constexpr bool kAIsZero;    // A() == 0: the a-terms compile away
//   static constexpr bool kAIsMinus3;  // A() == -3: Double uses the a = -3 formula
// Exactly one of the two holds: Double has a formula for each, none for
// other values of a.
template <typename Config>
struct EcPoint {
  using Field = typename Config::Field;
  using ConfigType = Config;
  static_assert(Config::kAIsZero != Config::kAIsMinus3, "Double supports a = 0 or a = -3");

  Field x;
  Field y;
  Field z;  // Jacobian; z == 0 encodes the point at infinity.

  static EcPoint Infinity() {
    return {Field::Zero(), Field::One(), Field::Zero()};
  }

  static EcPoint FromAffine(const Field& ax, const Field& ay) {
    return {ax, ay, Field::One()};
  }

  bool IsInfinity() const { return z.IsZero(); }

  using Affine = AffinePoint<Config>;

  static EcPoint FromAffinePoint(const Affine& a) {
    if (a.infinity) {
      return Infinity();
    }
    return {a.x, a.y, Field::One()};
  }

  Affine ToAffine() const {
    if (IsInfinity()) {
      return {Field::Zero(), Field::Zero(), true};
    }
    Field zinv = z.Inverse();
    Field zinv2 = zinv.Square();
    return {x * zinv2, y * zinv2 * zinv, false};
  }

  bool Equals(const EcPoint& o) const {
    if (IsInfinity() || o.IsInfinity()) {
      return IsInfinity() == o.IsInfinity();
    }
    // Cross-multiplied comparison avoids inversions.
    Field z1z1 = z.Square();
    Field z2z2 = o.z.Square();
    if (x * z2z2 != o.x * z1z1) {
      return false;
    }
    return y * z2z2 * o.z == o.y * z1z1 * z;
  }

  EcPoint Negate() const { return {x, -y, z}; }

  EcPoint Double() const {
    if (IsInfinity()) {
      return *this;
    }
    Field yy = y.Square();
    Field yyyy = yy.Square();
    Field zz = z.Square();
    Field s;  // 4 x y^2
    Field m;  // 3 x^2 + a z^4
    if constexpr (Config::kAIsMinus3) {
      // dbl-2001-b: m = 3(x - z^2)(x + z^2) and s by one multiply, 3M + 5S.
      // The generic formula with a = -3 computes the same field values, so
      // the output is the same point representation.
      s = x * yy;
      s = s + s;
      s = s + s;
      m = (x - zz) * (x + zz);
      m = m + m + m;
    } else {
      Field xx = x.Square();
      s = ((x + yy).Square() - xx - yyyy);
      s = s + s;
      m = xx + xx + xx;
    }
    Field t = m.Square() - s - s;
    Field y3 = m * (s - t) - Eight(yyyy);
    Field z3 = (y + z).Square() - yy - zz;
    return {t, y3, z3};
  }

  EcPoint Add(const EcPoint& o) const {
    if (IsInfinity()) {
      return o;
    }
    if (o.IsInfinity()) {
      return *this;
    }
    Field z1z1 = z.Square();
    Field z2z2 = o.z.Square();
    Field u1 = x * z2z2;
    Field u2 = o.x * z1z1;
    Field s1 = y * o.z * z2z2;
    Field s2 = o.y * z * z1z1;
    Field h = u2 - u1;
    Field r = s2 - s1;
    if (h.IsZero()) {
      if (r.IsZero()) {
        return Double();
      }
      return Infinity();
    }
    r = r + r;
    Field i = (h + h).Square();
    Field j = h * i;
    Field v = u1 * i;
    Field x3 = r.Square() - j - v - v;
    Field s1j = s1 * j;
    Field y3 = r * (v - x3) - s1j - s1j;
    Field z3 = ((z + o.z).Square() - z1z1 - z2z2) * h;
    return {x3, y3, z3};
  }

  // Mixed addition: Add() specialized for an affine second operand (z2 == 1),
  // saving the z2 squarings/multiplications -- ~11M+3S per add during bucket
  // accumulation instead of full Jacobian 16M+4S. Same formula family
  // (madd-2007-bl) as Add so degenerate cases match exactly.
  EcPoint AddMixed(const Affine& o) const {
    if (o.infinity) {
      return *this;
    }
    if (IsInfinity()) {
      return FromAffinePoint(o);
    }
    Field z1z1 = z.Square();
    Field u2 = o.x * z1z1;
    Field s2 = o.y * z * z1z1;
    Field h = u2 - x;
    Field r = s2 - y;
    if (h.IsZero()) {
      if (r.IsZero()) {
        return Double();
      }
      return Infinity();
    }
    r = r + r;
    Field i = (h + h).Square();
    Field j = h * i;
    Field v = x * i;
    Field x3 = r.Square() - j - v - v;
    Field yj = y * j;
    Field y3 = r * (v - x3) - yj - yj;
    Field z3 = z * h;
    z3 = z3 + z3;
    return {x3, y3, z3};
  }

  EcPoint ScalarMul(const BigUInt& k) const {
    EcPoint acc = Infinity();
    for (size_t i = k.BitLength(); i-- > 0;) {
      acc = acc.Double();
      if (k.Bit(i)) {
        acc = acc.Add(*this);
      }
    }
    return acc;
  }

  bool IsOnCurve() const {
    if (IsInfinity()) {
      return true;
    }
    // y^2 = x^3 + a x z^4 + b z^6.
    Field z2 = z.Square();
    Field z4 = z2.Square();
    Field z6 = z4 * z2;
    Field rhs = x.Square() * x + Config::B() * z6;
    if constexpr (!Config::kAIsZero) {
      rhs = rhs + Config::A() * x * z4;
    }
    return y.Square() == rhs;
  }

 private:
  static Field Eight(const Field& v) {
    Field t = v + v;
    t = t + t;
    return t + t;
  }
};

}  // namespace nope

#endif  // SRC_EC_CURVE_H_
