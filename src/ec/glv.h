// GLV scalar decomposition for BN254 G1.
//
// BN254's base field has p == 1 (mod 3), so the curve y^2 = x^3 + 3 carries
// the efficient endomorphism phi(x, y) = (beta*x, y) where beta is a
// primitive cube root of unity in Fq. On the order-r subgroup phi acts as
// multiplication by lambda, a primitive cube root of unity mod r
// (lambda^2 + lambda + 1 == 0 mod r). Writing k == k1 + lambda*k2 (mod r)
// with |k1|, |k2| ~ sqrt(r) lets the MSM treat one length-n instance with
// 254-bit scalars as a length-2n instance with ~128-bit scalars — fewer
// windows for slightly more buckets, a large net win (GLV 2001; the same
// half-size lattice idea the paper's Appendix C uses for ECDSA).
//
// All constants (beta, lambda, the short lattice basis) are derived at first
// use from the curve parameters and cross-checked (phi(G) == lambda*G, basis
// determinant == r, decomposition round-trips), so there are no hardcoded
// magic values to rot.
#ifndef SRC_EC_GLV_H_
#define SRC_EC_GLV_H_

#include <array>
#include <cstdint>

#include "src/base/biguint.h"
#include "src/ec/bn254.h"

namespace nope {

// Opt-in trait: Msm consults this to decide whether a curve config has an
// endomorphism-based decomposition. Only BN254 G1 opts in (G2 lives over Fp2
// where the cheap x-coordinate twist does not apply to our representation).
template <typename Config>
struct GlvTraits {
  static constexpr bool kEnabled = false;
};

template <>
struct GlvTraits<Bn254G1Config> {
  static constexpr bool kEnabled = true;
};

// k == sign(k1)*|k1| + lambda * sign(k2)*|k2| (mod r), |k1|, |k2| < 2^130.
// Magnitudes are little-endian 64-bit limbs, like the MSM's scalars.
struct GlvDecomposition {
  std::array<uint64_t, 4> k1{};
  std::array<uint64_t, 4> k2{};
  bool k1_neg = false;
  bool k2_neg = false;
};

// Primitive cube root of unity in Fq with phi(P) = (beta*x, y) acting as
// multiplication by GlvLambda() on the r-order subgroup.
const Fq& GlvBeta();

// The matching eigenvalue: lambda^2 + lambda + 1 == 0 (mod r).
const BigUInt& GlvLambda();

// Decomposes a 256-bit little-endian k (reduced mod r internally; valid for
// any scalar because G1 has cofactor 1) into the half-size pair above via
// Babai rounding against the derived short lattice basis. Fixed-width limb
// arithmetic throughout: no allocation, no long division.
GlvDecomposition GlvDecompose(const std::array<uint64_t, 4>& k);

// phi(P) = (beta*x, y); infinity maps to infinity.
AffinePoint<Bn254G1Config> GlvEndomorphism(const AffinePoint<Bn254G1Config>& p);

}  // namespace nope

#endif  // SRC_EC_GLV_H_
