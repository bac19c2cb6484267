#include "src/ff/fp12.h"

#include <array>

namespace nope {

namespace {

// Frobenius coefficients gamma_k = xi^(k(p-1)/6) for k = 1..5, computed once.
const std::array<Fp2, 6>& FrobeniusGammas() {
  static const std::array<Fp2, 6> gammas = [] {
    std::array<Fp2, 6> out;
    out[0] = Fp2::One();
    BigUInt p = Fq::params().modulus_big;
    BigUInt step = (p - BigUInt(1)) / BigUInt(6);
    for (int k = 1; k <= 5; ++k) {
      out[k] = Xi().Pow(step * BigUInt(static_cast<uint64_t>(k)));
    }
    return out;
  }();
  return gammas;
}

Fp2 FrobFp2(const Fp2& x) { return x.Conjugate(); }

Fp6 FrobFp6(const Fp6& x) {
  const auto& g = FrobeniusGammas();
  return {FrobFp2(x.c0), FrobFp2(x.c1) * g[2], FrobFp2(x.c2) * g[4]};
}

}  // namespace

Fp12 Fp12::CyclotomicSquare() const {
  // Granger-Scott, "Faster squaring in the cyclotomic subgroup of sixth
  // degree extensions" (PKC 2010). Over Fp4 = Fp2[s]/(s^2 - xi), s = w^3,
  // the element is (z0 + z1 s) + (z2 + z3 s) w + (z4 + z5 s) w^2, and each
  // output pair is 3 t -+ 2 z for the Fp4 square t of one input pair.
  const Fp2& z0 = c0.c0;
  const Fp2& z4 = c0.c1;
  const Fp2& z3 = c0.c2;
  const Fp2& z2 = c1.c0;
  const Fp2& z1 = c1.c1;
  const Fp2& z5 = c1.c2;
  // (a + b s)^2 = (a^2 + xi b^2) + 2ab s.
  auto fp4_square = [](const Fp2& a, const Fp2& b, Fp2* lo, Fp2* hi) {
    *lo = a.Square() + MulByXi(b.Square());
    *hi = (a * b).Double();
  };
  Fp2 t0, t1, t2, t3, t4, t5;
  fp4_square(z0, z1, &t0, &t1);
  fp4_square(z2, z3, &t2, &t3);
  fp4_square(z4, z5, &t4, &t5);
  Fp2 xi_t5 = MulByXi(t5);
  Fp12 out;
  out.c0.c0 = (t0 - z0).Double() + t0;
  out.c1.c1 = (t1 + z1).Double() + t1;
  out.c1.c0 = (z2 + xi_t5).Double() + xi_t5;
  out.c0.c2 = (t4 - z3).Double() + t4;
  out.c0.c1 = (t2 - z4).Double() + t2;
  out.c1.c2 = (z5 + t3).Double() + t3;
  return out;
}

Fp12 Fp12::CyclotomicPow(const std::vector<int8_t>& naf) const {
  if (naf.empty()) {
    return One();
  }
  // The top digit of a NAF is 1, so the loop starts from *this.
  Fp12 inv = Conjugate();
  Fp12 result = *this;
  for (size_t i = naf.size() - 1; i-- > 0;) {
    result = result.CyclotomicSquare();
    if (naf[i] == 1) {
      result = result * *this;
    } else if (naf[i] == -1) {
      result = result * inv;
    }
  }
  return result;
}

Fp12 Fp12::Frobenius(int power) const {
  Fp12 out = *this;
  const auto& g = FrobeniusGammas();
  for (int i = 0; i < power; ++i) {
    Fp6 a = FrobFp6(out.c0);
    Fp6 b = FrobFp6(out.c1);
    // w^p = gamma_1 * w, so the c1 half picks up a gamma_1 on each Fp2 slot.
    out = {a, b.ScalarMulFp2(g[1])};
  }
  return out;
}

}  // namespace nope
