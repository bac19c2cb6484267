#include "src/ec/bn254.h"

#include "src/base/check.h"
#include "src/ec/batch_affine.h"

namespace nope {

namespace {

// Signed digits of the ate loop count 6u + 2, most significant first,
// without the leading 1 (the loop starts from T = Q). This is the NAF with
// its top digits 1, 0, -1 (2^65 - 2^63) rewritten as 1, 1 (2^64 + 2^63):
// the same 22 nonzero digits, one doubling step fewer.
const std::vector<int8_t>& LoopDigits() {
  static const std::vector<int8_t> digits = [] {
    std::vector<int8_t> naf = (Bn254U() * BigUInt(6) + BigUInt(2)).Naf();
    const size_t top = naf.size() - 1;
    NOPE_INVARIANT(naf[top] == 1 && naf[top - 1] == 0 && naf[top - 2] == -1,
                   "unexpected top digits in the NAF of 6u+2");
    naf.pop_back();
    naf[top - 1] = 1;
    naf[top - 2] = 1;
    return std::vector<int8_t>(naf.rbegin() + 1, naf.rend());
  }();
  return digits;
}

// Lines per prepared G2 point: one per doubling step, one per nonzero digit,
// two Frobenius correction lines.
size_t NumLines() {
  static const size_t n = [] {
    size_t lines = 2;
    for (int8_t d : LoopDigits()) {
      lines += d == 0 ? 1 : 2;
    }
    return lines;
  }();
  return n;
}

const std::vector<int8_t>& UNaf() {
  static const std::vector<int8_t> naf = Bn254U().Naf();
  return naf;
}

const Fq& TwoInv() {
  static const Fq v = Fq::FromU64(2).Inverse();
  return v;
}

const Fp2& ThreeB() {
  static const Fp2 v = Bn254G2Config::B() * Fp2{Fq::FromU64(3), Fq::Zero()};
  return v;
}

// The Miller loop's running point on the twist, in homogeneous projective
// coordinates: (X : Y : Z) stands for the affine point (X/Z, Y/Z).
struct TwistPoint {
  Fp2 x;
  Fp2 y;
  Fp2 z;
};

// The step formulas and their lines are those of Costello-Lange-Naehrig
// (PKC 2010) and Aranha et al. (EUROCRYPT 2011) for y^2 = x^3 + b'. Each line
// is the untwisted tangent or chord scaled by Fp2 factors and powers of w,
// all of which the final exponentiation maps to 1.

// Doubles *t; returns the tangent line at the old *t.
G2PreparedLine DoublingStep(TwistPoint* t) {
  Fp2 a = (t->x * t->y).ScalarMul(TwoInv());  // XY/2
  Fp2 b = t->y.Square();                      // Y^2
  Fp2 c = t->z.Square();                      // Z^2
  Fp2 e = ThreeB() * c;                       // 3b'Z^2
  Fp2 f = e + e + e;                          // 9b'Z^2
  Fp2 g = (b + f).ScalarMul(TwoInv());        // (Y^2 + 9b'Z^2)/2
  Fp2 h = (t->y + t->z).Square() - b - c;     // 2YZ
  Fp2 j = t->x.Square();                      // X^2
  Fp2 e2 = e.Square();
  t->x = a * (b - f);
  t->y = g.Square() - (e2 + e2 + e2);
  t->z = b * h;
  return {-h, j + j + j, e - b};
}

// Adds the affine point (qx, qy) to *t; returns the line through both.
G2PreparedLine AdditionStep(TwistPoint* t, const Fp2& qx, const Fp2& qy) {
  Fp2 theta = t->y - qy * t->z;
  Fp2 lambda = t->x - qx * t->z;
  Fp2 c = theta.Square();
  Fp2 d = lambda.Square();
  Fp2 e = lambda * d;
  Fp2 f = t->z * c;
  Fp2 g = t->x * d;
  Fp2 h = e + f - g - g;
  t->x = lambda * h;
  t->y = theta * (g - h) - e * t->y;
  t->z = t->z * e;
  return {lambda, -theta, theta * qx - lambda * qy};
}

// psi coefficients: the Frobenius of an untwisted coordinate x w^2 is
// conj(x) xi^((p-1)/3) w^2 (and conj(y) xi^((p-1)/2) w^3 for the y side),
// so on the twist psi(x, y) = (c_x conj(x), c_y conj(y)).
const Fp2& PsiCoeffX() {
  static const Fp2 c =
      Xi().Pow((Fq::params().modulus_big - BigUInt(1)) / BigUInt(3));
  return c;
}

const Fp2& PsiCoeffY() {
  static const Fp2 c =
      Xi().Pow((Fq::params().modulus_big - BigUInt(1)) / BigUInt(2));
  return c;
}

}  // namespace

Fp2 Bn254G2Config::B() {
  static const Fp2 b = Fp2{Fq::FromU64(3), Fq::Zero()} * Xi().Inverse();
  return b;
}

const BigUInt& Bn254Order() {
  static const BigUInt r = Fr::params().modulus_big;
  return r;
}

const BigUInt& Bn254U() {
  static const BigUInt u = BigUInt::FromDecimal("4965661367192848881");
  return u;
}

G1 G1Generator() { return G1::FromAffine(Fq::FromU64(1), Fq::FromU64(2)); }

G2 G2Generator() {
  Fp2 x{Fq::FromBigUInt(BigUInt::FromDecimal(
            "10857046999023057135944570762232829481370756359578518086990519993285655852781")),
        Fq::FromBigUInt(BigUInt::FromDecimal(
            "11559732032986387107991004021392285783925812861821192530917403151452391805634"))};
  Fp2 y{Fq::FromBigUInt(BigUInt::FromDecimal(
            "8495653923123431417604973247489272438418190587263600148770280649306958101930")),
        Fq::FromBigUInt(BigUInt::FromDecimal(
            "4082367875863433681332203403145435568316851327593401208105741076214120093531"))};
  return G2::FromAffine(x, y);
}

G2 G2Psi(const G2& p) {
  if (p.IsInfinity()) {
    return G2::Infinity();
  }
  // Conjugation is a field automorphism, so it commutes with the Jacobian
  // projection (X/Z^2, Y/Z^3); scaling X by c_x and Y by c_y in Jacobian
  // coordinates applies the affine psi without an inversion.
  return {p.x.Conjugate() * PsiCoeffX(), p.y.Conjugate() * PsiCoeffY(),
          p.z.Conjugate()};
}

bool G2InSubgroup(const G2& p) {
  if (!p.IsOnCurve()) {
    return false;
  }
  if (p.IsInfinity()) {
    return true;
  }
  // El Housni, Guillevic and Piellard, "Co-factor clearing and subgroup
  // membership testing on pairing-friendly curves" (AFRICACRYPT 2022): P is
  // in G2 iff phi(P) = O for the endomorphism
  //   phi = [u+1] + [u] psi + [u] psi^2 - [2u] psi^3.
  // Completeness: on G2, psi acts as [p] and u+1 + up + up^2 - 2up^3 = 0
  // (mod r). Soundness: reducing phi with psi^2 = [t] psi - [p] gives
  // alpha + beta psi, of degree N = alpha^2 + alpha beta t + beta^2 p. The
  // Fp2-rational kernel of phi has order dividing gcd(N, #E'(Fp2)), and
  // #E'(Fp2) = r (2p - r) with N = r m, gcd(m, 2p - r) = 1 and r not
  // dividing 2p - r, so that kernel is G2 itself. The test suite checks
  // these identities; G2InSubgroupReference is the differential oracle.
  G2 up = p.ScalarMul(Bn254U());
  G2 psi_up = G2Psi(up);
  G2 psi2_up = G2Psi(psi_up);
  G2 lhs = up.Add(p).Add(psi_up).Add(psi2_up);
  G2 rhs = G2Psi(psi2_up).Double();
  return lhs.Equals(rhs);
}

bool G2InSubgroupReference(const G2& p) {
  return p.IsOnCurve() && p.ScalarMul(Bn254Order()).IsInfinity();
}

G2Prepared PrepareG2(const G2& q) {
  G2Prepared out;
  if (q.IsInfinity()) {
    return out;
  }
  out.infinity = false;
  G2::Affine qa = q.ToAffine();
  // psi(Q) and psi^2(Q) for the correction steps. psi keeps Z = 1, so
  // their Jacobian (x, y) are affine coordinates.
  G2 q1 = G2Psi(G2::FromAffinePoint(qa));
  G2 q2 = G2Psi(q1);

  TwistPoint t{qa.x, qa.y, Fp2::One()};
  out.lines.reserve(NumLines());
  for (int8_t d : LoopDigits()) {
    out.lines.push_back(DoublingStep(&t));
    if (d == 1) {
      out.lines.push_back(AdditionStep(&t, qa.x, qa.y));
    } else if (d == -1) {
      out.lines.push_back(AdditionStep(&t, qa.x, -qa.y));
    }
  }
  // Optimal ate correction: T = [6u+2]Q, then add psi(Q) and -psi^2(Q).
  out.lines.push_back(AdditionStep(&t, q1.x, q1.y));
  out.lines.push_back(AdditionStep(&t, q2.x, -q2.y));
  return out;
}

Fp12 MultiMillerLoop(const std::vector<std::pair<G1, const G2Prepared*>>& pairs) {
  std::vector<G1> ps;
  std::vector<const G2Prepared*> qs;
  for (const auto& [p, q] : pairs) {
    if (p.IsInfinity() || q->infinity) {
      continue;
    }
    NOPE_INVARIANT(q->lines.size() == NumLines(),
                   "G2Prepared line schedule out of sync with the ate loop");
    ps.push_back(p);
    qs.push_back(q);
  }
  if (ps.empty()) {
    return Fp12::One();
  }
  // One shared field inversion for all the G1 sides.
  std::vector<G1Affine> pa = BatchToAffine(ps);

  Fp12 f = Fp12::One();
  size_t k = 0;
  auto mul_lines = [&] {
    for (size_t i = 0; i < pa.size(); ++i) {
      const G2PreparedLine& line = qs[i]->lines[k];
      f = f.MulBy034(line.c0.ScalarMul(pa[i].y), line.c1.ScalarMul(pa[i].x), line.c2);
    }
    ++k;
  };
  for (int8_t d : LoopDigits()) {
    f = f.Square();
    mul_lines();
    if (d != 0) {
      mul_lines();
    }
  }
  mul_lines();
  mul_lines();
  return f;
}

Fp12 MillerLoop(const G1& p, const G2Prepared& q) { return MultiMillerLoop({{p, &q}}); }

Fp12 MillerLoop(const G1& p, const G2& q) {
  if (p.IsInfinity() || q.IsInfinity()) {
    return Fp12::One();
  }
  return MillerLoop(p, PrepareG2(q));
}

Fp12 FinalExponentiation(const Fp12& f) {
  // Easy part: t = f^((p^6 - 1)(p^2 + 1)), which lands in the cyclotomic
  // subgroup, where the inverse is the conjugate.
  Fp12 t = f.Conjugate() * f.Inverse();
  t = t.Frobenius(2) * t;

  // Hard part, Scott et al. (Pairing 2009): as integers,
  //   (p^4 - p^2 + 1)/r = l0 + l1 p + l2 p^2 + p^3
  // with l2 = 6u^2 + 1, l1 = -36u^3 - 18u^2 - 12u + 1 and
  // l0 = -36u^3 - 30u^2 - 18u - 2, so the chain raises t to exactly
  // (p^4 - p^2 + 1)/r, not to a multiple of it. From t^u, t^(u^2) and
  // t^(u^3), it computes
  //   y0 y1^2 y2^6 y3^12 y4^18 y5^30 y6^36.
  Fp12 fu = t.CyclotomicPow(UNaf());
  Fp12 fu2 = fu.CyclotomicPow(UNaf());
  Fp12 fu3 = fu2.CyclotomicPow(UNaf());
  Fp12 y0 = t.Frobenius(1) * t.Frobenius(2) * t.Frobenius(3);
  Fp12 y1 = t.Conjugate();
  Fp12 y2 = fu2.Frobenius(2);
  Fp12 y3 = fu.Frobenius(1).Conjugate();
  Fp12 y4 = (fu * fu2.Frobenius(1)).Conjugate();
  Fp12 y5 = fu2.Conjugate();
  Fp12 y6 = (fu3 * fu3.Frobenius(1)).Conjugate();

  Fp12 t0 = y6.CyclotomicSquare() * y4 * y5;
  Fp12 t1 = y3 * y5 * t0;
  t0 = t0 * y2;
  t1 = (t1.CyclotomicSquare() * t0).CyclotomicSquare();
  t0 = t1 * y1;
  t1 = t1 * y0;
  t0 = t0.CyclotomicSquare();
  return t1 * t0;
}

Fp12 Pairing(const G1& p, const G2& q) { return FinalExponentiation(MillerLoop(p, q)); }

bool PairingProductIsOne(const std::vector<std::pair<G1, G2>>& pairs) {
  std::vector<G2Prepared> prepared;
  prepared.reserve(pairs.size());
  for (const auto& [p, q] : pairs) {
    prepared.push_back(p.IsInfinity() ? G2Prepared() : PrepareG2(q));
  }
  std::vector<std::pair<G1, const G2Prepared*>> terms;
  terms.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    terms.push_back({pairs[i].first, &prepared[i]});
  }
  return FinalExponentiation(MultiMillerLoop(terms)).IsOne();
}

}  // namespace nope
