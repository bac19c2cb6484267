// BN254 (alt_bn128) groups G1, G2 and the optimal ate pairing. This is the
// proof-system curve: Groth16 proofs live in G1/G2 and verification is a
// product-of-pairings check in Fp12 (§2.3 of the paper).
#ifndef SRC_EC_BN254_H_
#define SRC_EC_BN254_H_

#include <utility>
#include <vector>

#include "src/ec/curve.h"
#include "src/ff/fp12.h"

namespace nope {

struct Bn254G1Config {
  using Field = Fq;
  static constexpr bool kAIsZero = true;
  static constexpr bool kAIsMinus3 = false;
  static Field A() { return Fq::Zero(); }
  static Field B() {
    static const Fq b = Fq::FromU64(3);
    return b;
  }
};

struct Bn254G2Config {
  using Field = Fp2;
  static constexpr bool kAIsZero = true;
  static constexpr bool kAIsMinus3 = false;
  static Field A() { return Fp2::Zero(); }
  static Field B();  // 3 / (9 + u), the D-twist constant.
};

using G1 = EcPoint<Bn254G1Config>;
using G2 = EcPoint<Bn254G2Config>;
using G1Affine = AffinePoint<Bn254G1Config>;
using G2Affine = AffinePoint<Bn254G2Config>;

// Group order (same prime as Fr's modulus).
const BigUInt& Bn254Order();

// The BN parameter u = 4965661367192848881: p, r and the trace are
// polynomials in u, and so are the pairing's loop count (6u + 2), the hard
// part of its final exponentiation and the G2 membership relation below.
const BigUInt& Bn254U();

G1 G1Generator();
G2 G2Generator();

// The untwist-Frobenius-twist endomorphism psi on the twist E'(Fp2):
//   psi(x, y) = (c_x * conj(x), c_y * conj(y))
// with c_x = xi^((p-1)/3), c_y = xi^((p-1)/2). On the order-r subgroup psi
// acts as multiplication by the Frobenius eigenvalue p = 6u^2 (mod r); on
// all of E'(Fp2) it satisfies psi^2 - [t] psi + [p] = 0 for the trace t.
G2 G2Psi(const G2& p);

// Subgroup membership checks for deserialized (untrusted) G2 points. BN254
// G1 has cofactor 1, so the curve equation alone (IsOnCurve) proves
// membership there; G2 sits on a twist with a large cofactor, so an explicit
// order-r membership check is required before feeding a decoded point into
// a pairing.
//
// G2InSubgroup is the fast path: on-curve plus the El Housni-Guillevic-
// Piellard relation [u+1]P + psi([u]P) + psi^2([u]P) == psi^3([2u]P), one
// 63-bit scalar multiplication (see bn254.cc for why the relation holds
// exactly on the subgroup). G2InSubgroupReference is the direct order-r
// scalar multiplication, kept as the differential-testing reference.
bool G2InSubgroup(const G2& p);
bool G2InSubgroupReference(const G2& p);

// Optimal ate pairing e: G1 x G2 -> Fp12. Identity inputs map to 1.
//
// Contract for degenerate inputs: MillerLoop (all variants) and Pairing
// return 1 when either argument is the point at infinity (a multi-Miller
// loop drops such pairs). That makes an infinity factor vanish from any
// pairing-product equation, so callers performing a soundness-critical
// product check MUST reject infinity inputs at their own boundary before
// calling in (groth16::Verify/BatchVerify do).
Fp12 Pairing(const G1& p, const G2& q);

// Miller loop without the final exponentiation (for multi-pairing). Its
// output is defined only up to factors the final exponentiation removes;
// FinalExponentiation(MillerLoop(p, q)) is the pairing.
Fp12 MillerLoop(const G1& p, const G2& q);

// f^((p^12 - 1) / r), exactly.
Fp12 FinalExponentiation(const Fp12& f);

// One Miller-loop line for a fixed G2 point, in the sparse form BN254's
// D-type twist gives it. Evaluated at a G1 point (px, py) the line is the
// Fp12 element
//   (c0 * py) + (c1 * px) w + c2 v w,
// so replaying a stored line costs two Fp-by-Fp2 scalings and one sparse
// Fp12 multiplication.
struct G2PreparedLine {
  Fp2 c0;
  Fp2 c1;
  Fp2 c2;
};

// All lines of MillerLoop(*, q) for a fixed q: one per doubling step, one per
// nonzero digit of the loop count 6u + 2 in signed-digit form and two for the
// Frobenius correction steps (87 in all). The fresh loop prepares its G2
// argument the same way and then replays it, so MillerLoop(p, PrepareG2(q))
// is bit-identical to MillerLoop(p, q). The fixed G2 elements of a Groth16
// verifying key (gamma, delta) are prepared once per key and amortized over
// every subsequent verification.
struct G2Prepared {
  bool infinity = true;
  std::vector<G2PreparedLine> lines;

  size_t SizeBytes() const {
    return sizeof(*this) + lines.capacity() * sizeof(G2PreparedLine);
  }
};

G2Prepared PrepareG2(const G2& q);

// Miller loop consuming precomputed lines. Same degenerate-input contract:
// returns 1 when p or the prepared point is infinity.
Fp12 MillerLoop(const G1& p, const G2Prepared& q);

// prod_i MillerLoop(p_i, q_i) in one loop that squares the accumulator once
// per step for all pairs. Field arithmetic is exact, so the result equals the
// product of the single-pair loops bit for bit. Pairs with an infinity side
// contribute 1.
Fp12 MultiMillerLoop(const std::vector<std::pair<G1, const G2Prepared*>>& pairs);

// Checks prod_i e(p_i, q_i) == 1 with one multi-Miller loop and one final
// exponentiation.
bool PairingProductIsOne(const std::vector<std::pair<G1, G2>>& pairs);

}  // namespace nope

#endif  // SRC_EC_BN254_H_
