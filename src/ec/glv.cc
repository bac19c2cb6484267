#include "src/ec/glv.h"

#include "src/base/check.h"

namespace nope {

namespace {

using Limbs = std::array<uint64_t, 4>;
using Wide = unsigned __int128;

// Sign-magnitude integers for the lattice arithmetic. `neg` is meaningless
// (kept false) when mag is zero.
struct SBig {
  BigUInt mag;
  bool neg = false;
};

SBig MakeS(const BigUInt& v, bool neg = false) {
  return {v, v.IsZero() ? false : neg};
}

SBig SNeg(const SBig& a) { return MakeS(a.mag, !a.neg); }

SBig SAdd(const SBig& a, const SBig& b) {
  if (a.neg == b.neg) {
    return MakeS(a.mag + b.mag, a.neg);
  }
  if (a.mag >= b.mag) {
    return MakeS(a.mag - b.mag, a.neg);
  }
  return MakeS(b.mag - a.mag, b.neg);
}

SBig SSub(const SBig& a, const SBig& b) { return SAdd(a, SNeg(b)); }

SBig SMul(const SBig& a, const SBig& b) {
  return MakeS(a.mag * b.mag, a.neg != b.neg);
}

// Fixed-point scale for the decomposition's rounded divisions: reciprocals
// are precomputed as round(2^kShift * b / r) so the per-scalar work is two
// multiply-shifts instead of two long divisions. kShift = 384 leaves the
// approximation error at k*|delta|/2^384 < 2^-130 for k < 2^254, so the
// computed coefficients differ from exact rounding by at most 1 -- which the
// k_i bound below absorbs. 384 is six whole limbs, so the shift is a limb
// select.
constexpr size_t kShift = 384;

// A scaled reciprocal is ~2^(kShift - 254) times a ~2^128 basis component:
// five limbs hold it with room to spare (checked at derivation).
using Reciprocal = std::array<uint64_t, 5>;

struct GlvParams {
  Fq beta;
  BigUInt lambda;
  Limbs r;
  // Scaled reciprocals |g1| = round(2^kShift * |b2| / r) and
  // |g2| = round(2^kShift * |b1| / r) of the short basis v1 = (a1, b1),
  // v2 = (a2, b2) of {(a, b) : a + b*lambda == 0 mod r} (determinant +r),
  // so the Babai coefficients are c_i = sign(g_i) * ((k*|g_i| + 2^(kShift-1))
  // >> kShift).
  Reciprocal g1, g2;
  // The basis with each coefficient's sign folded in and negated, as 2^256
  // two's complement: k1 = k + |c1|*m_a1 + |c2|*m_a2 and
  // k2 = |c1|*m_b1 + |c2|*m_b2 (mod 2^256), where m_a1 = -sign(g1)*a1 and so
  // on. The true k1, k2 are far below 2^255, so their residues mod 2^256
  // read back exactly as signed values.
  Limbs m_a1, m_a2, m_b1, m_b2;
};

template <size_t N>
std::array<uint64_t, N> ToLimbs(const BigUInt& v) {
  NOPE_INVARIANT(v.limbs().size() <= N, "GLV: constant wider than its limb array");
  std::array<uint64_t, N> out{};
  for (size_t i = 0; i < v.limbs().size(); ++i) {
    out[i] = v.limbs()[i];
  }
  return out;
}

// -a mod 2^256.
Limbs Negate256(const Limbs& a) {
  Limbs out;
  uint64_t carry = 1;
  for (size_t i = 0; i < 4; ++i) {
    Wide t = static_cast<Wide>(~a[i]) + carry;
    out[i] = static_cast<uint64_t>(t);
    carry = static_cast<uint64_t>(t >> 64);
  }
  return out;
}

// The 2^256 two's-complement form of sign * |v|.
Limbs TwosComplement(const SBig& v) {
  Limbs mag = ToLimbs<4>(v.mag);
  return v.neg ? Negate256(mag) : mag;
}

Limbs Add256(const Limbs& a, const Limbs& b) {
  Limbs out;
  uint64_t carry = 0;
  for (size_t i = 0; i < 4; ++i) {
    Wide t = static_cast<Wide>(a[i]) + b[i] + carry;
    out[i] = static_cast<uint64_t>(t);
    carry = static_cast<uint64_t>(t >> 64);
  }
  return out;
}

// a * b mod 2^256 (the low half of the schoolbook product).
Limbs Mul256(const Limbs& a, const Limbs& b) {
  Limbs out{};
  for (size_t i = 0; i < 4; ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; i + j < 4; ++j) {
      Wide t = static_cast<Wide>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<uint64_t>(t);
      carry = static_cast<uint64_t>(t >> 64);
    }
  }
  return out;
}

// (k * g + 2^(kShift-1)) >> kShift for k < r: the 9-limb product plus the
// rounding bit at limb 5, keeping limbs 6.. (k*g < 2^(254+320) leaves no
// carry out of limb 8).
Limbs RoundedQuotient(const Limbs& k, const Reciprocal& g) {
  uint64_t prod[9] = {};
  for (size_t i = 0; i < 4; ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < 5; ++j) {
      Wide t = static_cast<Wide>(k[i]) * g[j] + prod[i + j] + carry;
      prod[i + j] = static_cast<uint64_t>(t);
      carry = static_cast<uint64_t>(t >> 64);
    }
    prod[i + 5] = carry;
  }
  uint64_t carry = uint64_t{1} << 63;
  for (size_t i = 5; i < 9; ++i) {
    Wide t = static_cast<Wide>(prod[i]) + carry;
    prod[i] = static_cast<uint64_t>(t);
    carry = static_cast<uint64_t>(t >> 64);
  }
  return {prod[6], prod[7], prod[8], 0};
}

bool LessThan(const Limbs& a, const Limbs& b) {
  for (size_t i = 4; i-- > 0;) {
    if (a[i] != b[i]) {
      return a[i] < b[i];
    }
  }
  return false;
}

// Reads a 2^256 residue as a signed value: magnitude and sign.
void ToSigned(const Limbs& v, Limbs* mag, bool* neg) {
  *neg = (v[3] >> 63) != 0;
  *mag = *neg ? Negate256(v) : v;
}

// Finds a primitive cube root of unity mod `m` as t^((m-1)/3) for the first
// small t where that power is nontrivial. Requires m == 1 (mod 3).
BigUInt FindCubeRootOfUnity(const BigUInt& m) {
  BigUInt exp = (m - BigUInt(1)) / BigUInt(3);
  for (uint64_t t = 2; t < 100; ++t) {
    BigUInt root = BigUInt(t).PowMod(exp, m);
    if (root != BigUInt(1)) {
      return root;
    }
  }
  NOPE_INVARIANT(false, "GLV: no cube root of unity found");
  return BigUInt();
}

GlvParams DeriveGlvParams() {
  const BigUInt& r = Bn254Order();
  const BigUInt& p = Fq::params().modulus_big;

  GlvParams out;
  out.beta = Fq::FromBigUInt(FindCubeRootOfUnity(p));
  out.lambda = FindCubeRootOfUnity(r);
  NOPE_INVARIANT(
      out.lambda.MulMod(out.lambda, r).MulMod(out.lambda, r) == BigUInt(1),
      "GLV: lambda is not a cube root of unity");

  // beta and lambda each have two nontrivial choices (x and x^2); the
  // endomorphism acts as multiplication by exactly one eigenvalue per beta.
  // Match them empirically on the generator: phi(G) must equal lambda*G.
  G1 g = G1Generator();
  G1::Affine ga = g.ToAffine();
  G1 phi_g = G1::FromAffine(out.beta * ga.x, ga.y);
  if (!g.ScalarMul(out.lambda).Equals(phi_g)) {
    out.lambda = out.lambda.MulMod(out.lambda, r);  // the other root
    NOPE_INVARIANT(g.ScalarMul(out.lambda).Equals(phi_g),
                   "GLV: no eigenvalue matches the endomorphism");
  }

  // Short lattice basis from the extended-Euclid rows around sqrt(r): each
  // row has r_i == +-t_i*lambda (mod r), so (r_i, -t_i) lies in
  // {(a, b) : a + b*lambda == 0 mod r}. v1 is row m+1 (the first below the
  // threshold, both components ~sqrt(r)). For v2 the GLV construction takes
  // the shorter of rows m and m+2: row m's remainder can sit far above
  // sqrt(r) when the quotient at the crossing is large (it is for BN254,
  // whose lambda yields a lopsided 191/63-bit row m).
  auto [row_m, row_m1] = BigUInt::HalfGcdRows(r, out.lambda);
  SBig a1 = MakeS(row_m1.r);
  SBig b1 = MakeS(row_m1.t, !row_m1.t_neg);

  SBig a2_m = MakeS(row_m.r);
  SBig b2_m = MakeS(row_m.t, !row_m.t_neg);
  // Row m+2 continues the walk one step: r_{m+2} = r_m - q*r_{m+1},
  // t_{m+2} = t_m - q*t_{m+1} with q the Euclid quotient.
  SBig q = MakeS(row_m.r / row_m1.r);
  SBig r_m2 = SSub(MakeS(row_m.r), SMul(q, MakeS(row_m1.r)));
  SBig t_m2 = SSub(MakeS(row_m.t, row_m.t_neg),
                   SMul(q, MakeS(row_m1.t, row_m1.t_neg)));
  SBig a2_m2 = r_m2;
  SBig b2_m2 = MakeS(t_m2.mag, !t_m2.neg);

  auto max_component = [](const SBig& a, const SBig& b) {
    return a.mag >= b.mag ? a.mag : b.mag;
  };
  const bool use_m2 = max_component(a2_m2, b2_m2) < max_component(a2_m, b2_m);
  SBig a2 = use_m2 ? a2_m2 : a2_m;
  SBig b2 = use_m2 ? b2_m2 : b2_m;

  // Normalize the determinant to +r (negate v2 if needed); |det| == r holds
  // whenever the basis is a genuine basis of the full lattice.
  SBig det = SSub(SMul(a1, b2), SMul(a2, b1));
  NOPE_INVARIANT(det.mag == r, "GLV: lattice basis determinant != +-r");
  if (det.neg) {
    a2 = SNeg(a2);
    b2 = SNeg(b2);
  }

  const bool g1_neg = b2.neg;
  const bool g2_neg = !b1.neg;  // g2 approximates -b1/r
  out.r = ToLimbs<4>(r);
  out.g1 = ToLimbs<5>(((b2.mag << kShift) + (r >> 1)) / r);
  out.g2 = ToLimbs<5>(((b1.mag << kShift) + (r >> 1)) / r);
  out.m_a1 = TwosComplement(g1_neg ? a1 : SNeg(a1));
  out.m_b1 = TwosComplement(g1_neg ? b1 : SNeg(b1));
  out.m_a2 = TwosComplement(g2_neg ? a2 : SNeg(a2));
  out.m_b2 = TwosComplement(g2_neg ? b2 : SNeg(b2));
  return out;
}

const GlvParams& Params() {
  static const GlvParams params = DeriveGlvParams();
  return params;
}

}  // namespace

const Fq& GlvBeta() { return Params().beta; }

const BigUInt& GlvLambda() { return Params().lambda; }

GlvDecomposition GlvDecompose(const std::array<uint64_t, 4>& k_in) {
  const GlvParams& p = Params();
  // 2^256 < 6r, so at most five subtractions reduce any input.
  Limbs k = k_in;
  while (!LessThan(k, p.r)) {
    k = Add256(k, Negate256(p.r));
  }

  // Babai round-off: (k, 0) = c1*v1 + c2*v2 + (k1, k2) with c_i the rounded
  // rational coordinates of (k, 0) in the basis. Since det == +r:
  //   c1 = round(k*b2 / r), c2 = round(-k*b1 / r),
  // evaluated via the precomputed 2^kShift-scaled reciprocals (a multiply
  // and a limb select per coefficient; see kShift above for the error
  // bound). The remainders come out mod 2^256 (see GlvParams).
  const Limbs c1 = RoundedQuotient(k, p.g1);
  const Limbs c2 = RoundedQuotient(k, p.g2);
  const Limbs k1 = Add256(k, Add256(Mul256(c1, p.m_a1), Mul256(c2, p.m_a2)));
  const Limbs k2 = Add256(Mul256(c1, p.m_b1), Mul256(c2, p.m_b2));

  GlvDecomposition d;
  ToSigned(k1, &d.k1, &d.k1_neg);
  ToSigned(k2, &d.k2, &d.k2_neg);
  // Exact rounding keeps each component under (|v1| + |v2|) / 2; the +-1
  // reciprocal slack adds at most one more basis vector. With basis vectors
  // below 2^129 the components stay safely under 2^130. A violation means
  // the basis derivation broke, not that the input was hostile.
  NOPE_INVARIANT(d.k1[3] == 0 && d.k1[2] < 4 && d.k2[3] == 0 && d.k2[2] < 4,
                 "GLV: decomposition exceeded the half-size bound");
  return d;
}

AffinePoint<Bn254G1Config> GlvEndomorphism(
    const AffinePoint<Bn254G1Config>& p) {
  if (p.infinity) {
    return p;
  }
  return {Params().beta * p.x, p.y, false};
}

}  // namespace nope
