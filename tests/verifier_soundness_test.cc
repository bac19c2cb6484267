// Verifier soundness regressions (ISSUE 7): the point-check contract at the
// Verify/BatchVerify boundary, the endomorphism-based G2 subgroup check, and
// the prepared-VK path's verdicts against the unprepared reference (the
// prepared Miller loop's bit-identity is pinned in pairing_test).
//
// The forgery tests are built from known-exponent verifying keys: a VK whose
// toxic scalars the test keeps lets it craft proofs with A, B, or C at
// infinity whose remaining pairing factors cancel exactly, so the PRE-fix
// Verify (on-curve checks only; MillerLoop maps infinity to 1) genuinely
// ACCEPTED them — these tests fail on the pre-fix code, not vacuously pass.
#include <gtest/gtest.h>

#include "src/groth16/groth16.h"

namespace nope {
namespace {

ConstraintSystem CubicCircuit(uint64_t w_val, uint64_t x_val) {
  ConstraintSystem cs;
  Var x = cs.AddPublicInput(Fr::FromU64(x_val));
  Var w = cs.AddWitness(Fr::FromU64(w_val));
  Fr w_fr = Fr::FromU64(w_val);
  Var w2 = cs.AddWitness(w_fr * w_fr);
  Var w3 = cs.AddWitness(w_fr * w_fr * w_fr);
  cs.Enforce(LC(w), LC(w), LC(w2));
  cs.Enforce(LC(w2), LC(w), LC(w3));
  cs.EnforceEqual(LC(w3) + LC(w) + LC::Constant(Fr::FromU64(5)), LC(x));
  return cs;
}

// A verifying key with toxic waste the test controls:
//   alpha = a G1, beta = b G2, gamma = c G2, delta = d G2, ic[i] = e_i G1.
// Verification accepts (A, B, C) iff
//   e(A, B) = e(G1, G2)^{ab + (e0 + e1 x) c + s_C d}   for C = s_C G1.
struct KnownExponentVk {
  Fr a, b, c, d, e0, e1;
  groth16::VerifyingKey vk;

  explicit KnownExponentVk(uint64_t seed) {
    Rng rng(seed);
    a = Fr::Random(&rng);
    b = Fr::Random(&rng);
    c = Fr::Random(&rng);
    d = Fr::Random(&rng);
    e0 = Fr::Random(&rng);
    e1 = Fr::Random(&rng);
    vk.alpha_g1 = G1Generator().ScalarMul(a.ToBigUInt());
    vk.beta_g2 = G2Generator().ScalarMul(b.ToBigUInt());
    vk.gamma_g2 = G2Generator().ScalarMul(c.ToBigUInt());
    vk.delta_g2 = G2Generator().ScalarMul(d.ToBigUInt());
    vk.ic = {G1Generator().ScalarMul(e0.ToBigUInt()),
             G1Generator().ScalarMul(e1.ToBigUInt())};
  }

  Fr IcExponent(const Fr& x) const { return e0 + e1 * x; }

  // The bare pre-fix pairing product (no point checks): what Verify reduced
  // to before ISSUE 7. Returning true for a forgery proves the forgery is
  // genuine — the pre-fix verifier accepted it.
  bool PreFixEquationAccepts(const Fr& x, const groth16::Proof& p) const {
    G1 ic = vk.ic[0].Add(vk.ic[1].ScalarMul(x.ToBigUInt()));
    return PairingProductIsOne({{p.a, p.b},
                                {ic.Negate(), vk.gamma_g2},
                                {p.c.Negate(), vk.delta_g2},
                                {vk.alpha_g1.Negate(), vk.beta_g2}});
  }
};

// p == 3 (mod 4) square root in Fp2 (same algorithm as the proof decoder).
bool SqrtFp2(const Fp2& a, Fp2* out) {
  if (a.IsZero()) {
    *out = Fp2::Zero();
    return true;
  }
  static const BigUInt exp1 = (Fq::params().modulus_big - BigUInt(3)) >> 2;
  static const BigUInt exp2 = (Fq::params().modulus_big - BigUInt(1)) >> 1;
  Fp2 a1 = a.Pow(exp1);
  Fp2 x0 = a1 * a;
  Fp2 alpha = a1 * x0;
  Fp2 x;
  if (alpha == -Fp2::One()) {
    x = x0 * Fp2{Fq::Zero(), Fq::One()};
  } else {
    x = (alpha + Fp2::One()).Pow(exp2) * x0;
  }
  if (x.Square() != a) {
    return false;
  }
  *out = x;
  return true;
}

// A uniformish point on the full twist E'(Fp2) — order r * c2, so with
// overwhelming probability NOT in the order-r subgroup.
G2 RandomFullTwistPoint(Rng* rng) {
  for (;;) {
    Fp2 x{Fq::Random(rng), Fq::Random(rng)};
    Fp2 rhs = x.Square() * x + Bn254G2Config::B();
    Fp2 y;
    if (SqrtFp2(rhs, &y) && !y.IsZero()) {
      return G2::FromAffine(x, y);
    }
  }
}

// A nonzero pure-cofactor torsion point: [r] P for random full P kills the
// subgroup component, leaving order dividing c2 (coprime to r).
G2 CofactorTorsionPoint(Rng* rng) {
  for (;;) {
    G2 t = RandomFullTwistPoint(rng).ScalarMul(Bn254Order());
    if (!t.IsInfinity()) {
      return t;
    }
  }
}

// --- Forgeries the pre-fix verifier accepted --------------------------------

TEST(VerifierSoundness, InfinityAForgeryRejected) {
  KnownExponentVk kvk(7101);
  Fr x = Fr::FromU64(35);
  // A = infinity makes e(A, B) = 1, so choose C to cancel the rest:
  //   s_C = -(ab + (e0 + e1 x) c) / d.
  Fr s_c = -(kvk.a * kvk.b + kvk.IcExponent(x) * kvk.c) * kvk.d.Inverse();
  groth16::Proof forged;
  forged.a = G1::Infinity();
  forged.b = G2Generator();  // any valid B: its pairing factor vanished
  forged.c = G1Generator().ScalarMul(s_c.ToBigUInt());
  ASSERT_TRUE(kvk.PreFixEquationAccepts(x, forged));  // forgery is genuine
  EXPECT_FALSE(groth16::Verify(kvk.vk, {x}, forged));

  // The same forgery with an on-curve, out-of-subgroup B: the pre-fix code
  // accepted this too (B's factor vanished before any subgroup question
  // arose), covering both gaps with one artifact.
  Rng rng(7102);
  forged.b = G2Generator().Add(CofactorTorsionPoint(&rng));
  ASSERT_TRUE(forged.b.IsOnCurve());
  ASSERT_FALSE(G2InSubgroup(forged.b));
  ASSERT_TRUE(kvk.PreFixEquationAccepts(x, forged));
  EXPECT_FALSE(groth16::Verify(kvk.vk, {x}, forged));
}

TEST(VerifierSoundness, InfinityBForgeryRejected) {
  KnownExponentVk kvk(7103);
  Fr x = Fr::FromU64(9);
  Fr s_c = -(kvk.a * kvk.b + kvk.IcExponent(x) * kvk.c) * kvk.d.Inverse();
  groth16::Proof forged;
  forged.a = G1Generator();  // arbitrary: e(A, infinity) = 1
  forged.b = G2::Infinity();
  forged.c = G1Generator().ScalarMul(s_c.ToBigUInt());
  ASSERT_TRUE(kvk.PreFixEquationAccepts(x, forged));
  EXPECT_FALSE(groth16::Verify(kvk.vk, {x}, forged));
}

TEST(VerifierSoundness, InfinityCForgeryRejected) {
  KnownExponentVk kvk(7104);
  Fr x = Fr::FromU64(4);
  // C = infinity drops the delta factor; balance with A alone:
  //   A = (ab + (e0 + e1 x) c) G1, B = G2.
  Fr s_a = kvk.a * kvk.b + kvk.IcExponent(x) * kvk.c;
  groth16::Proof forged;
  forged.a = G1Generator().ScalarMul(s_a.ToBigUInt());
  forged.b = G2Generator();
  forged.c = G1::Infinity();
  ASSERT_TRUE(kvk.PreFixEquationAccepts(x, forged));
  EXPECT_FALSE(groth16::Verify(kvk.vk, {x}, forged));
}

TEST(VerifierSoundness, ForgeriesRejectedByPreparedAndBatchPaths) {
  KnownExponentVk kvk(7105);
  Fr x = Fr::FromU64(35);
  Fr s_c = -(kvk.a * kvk.b + kvk.IcExponent(x) * kvk.c) * kvk.d.Inverse();
  groth16::Proof forged;
  forged.a = G1::Infinity();
  forged.b = G2Generator();
  forged.c = G1Generator().ScalarMul(s_c.ToBigUInt());

  groth16::PreparedVerifyingKey pvk = groth16::PrepareVerifyingKey(kvk.vk);
  EXPECT_FALSE(groth16::Verify(pvk, {x}, forged));

  Rng rng(7106);
  groth16::BatchVerifyResult res =
      groth16::BatchVerify(pvk, {{forged, {x}}}, &rng);
  EXPECT_FALSE(res.all_ok);
  ASSERT_EQ(res.rejected.size(), 1u);
  EXPECT_EQ(res.rejected[0], 0u);
}

// --- Out-of-subgroup B on a real statement ----------------------------------

TEST(VerifierSoundness, OutOfSubgroupBRejectedEverywhere) {
  ConstraintSystem cs = CubicCircuit(3, 35);
  Rng rng(7107);
  groth16::ProvingKey pk = groth16::Setup(cs, &rng);
  groth16::Proof proof = groth16::Prove(pk, cs, &rng);
  std::vector<Fr> pub = {Fr::FromU64(35)};
  ASSERT_TRUE(groth16::Verify(pk.vk(), pub, proof));

  groth16::Proof bad = proof;
  bad.b = proof.b.Add(CofactorTorsionPoint(&rng));
  ASSERT_TRUE(bad.b.IsOnCurve());
  ASSERT_FALSE(G2InSubgroup(bad.b));

  EXPECT_FALSE(groth16::Verify(pk.vk(), pub, bad));
  groth16::PreparedVerifyingKey pvk = groth16::PrepareVerifyingKey(pk.vk());
  EXPECT_FALSE(groth16::Verify(pvk, pub, bad));
  groth16::BatchVerifyResult res =
      groth16::BatchVerify(pvk, {{proof, pub}, {bad, pub}}, &rng);
  EXPECT_FALSE(res.all_ok);
  ASSERT_EQ(res.rejected.size(), 1u);
  EXPECT_EQ(res.rejected[0], 1u);

  // The wire decoder holds the same line.
  Result<groth16::Proof> decoded = groth16::Proof::TryFromBytes(bad.ToBytes());
  EXPECT_FALSE(decoded.ok());
}

// --- fast G2 subgroup check, differential -----------------------------------

// 6u^2 = t - 1: the eigenvalue of psi on G2.
BigUInt PsiEigenvalue() { return Bn254U() * Bn254U() * BigUInt(6); }

TEST(VerifierSoundness, PsiEigenvalueIdentity) {
  // p - 6u^2 = r: psi acts on G2 as [p] = [6u^2].
  EXPECT_TRUE(Fq::params().modulus_big - PsiEigenvalue() == Bn254Order());
}

TEST(VerifierSoundness, MembershipEndomorphismKernelIsG2) {
  // The identities G2InSubgroup's soundness argument rests on (bn254.cc).
  // phi = [u+1] + [u] psi + [u] psi^2 - [2u] psi^3, reduced with
  // psi^2 = [t] psi - [p] (so psi^3 = [t^2 - p] psi - [tp]), is
  // alpha + beta psi; both coefficients are positive for BN254.
  const BigUInt& u = Bn254U();
  const BigUInt& p = Fq::params().modulus_big;
  const BigUInt& r = Bn254Order();
  BigUInt t = PsiEigenvalue() + BigUInt(1);
  BigUInt alpha = u + BigUInt(1) + BigUInt(2) * u * t * p - u * p;
  BigUInt beta = u + u * t + BigUInt(2) * u * p - BigUInt(2) * u * t * t;
  BigUInt degree = alpha * alpha + alpha * beta * t + beta * beta * p;
  BigUInt cofactor = BigUInt(2) * p - r;  // #E'(Fp2) = r (2p - r)
  EXPECT_TRUE((p + BigUInt(1) - t) == r);
  ASSERT_TRUE((degree % r).IsZero());
  EXPECT_TRUE(BigUInt::Gcd(degree / r, cofactor) == BigUInt(1));
  EXPECT_FALSE((cofactor % r).IsZero());
  // Completeness: phi vanishes on G2, where psi acts as [p].
  BigUInt p_mod_r = p % r;
  BigUInt lhs = (u + BigUInt(1) + u * p_mod_r + u * p_mod_r * p_mod_r) % r;
  BigUInt rhs = (BigUInt(2) * u * p_mod_r * p_mod_r * p_mod_r) % r;
  EXPECT_TRUE(lhs == rhs);
}

TEST(VerifierSoundness, PsiSubgroupCheckMatchesReference) {
  Rng rng(7108);
  // Infinity and generators.
  EXPECT_TRUE(G2InSubgroup(G2::Infinity()));
  EXPECT_TRUE(G2InSubgroupReference(G2::Infinity()));
  EXPECT_TRUE(G2InSubgroup(G2Generator()));

  for (int i = 0; i < 40; ++i) {
    // Random subgroup points: both accept.
    G2 in = G2Generator().ScalarMul(Fr::Random(&rng).ToBigUInt());
    EXPECT_EQ(G2InSubgroup(in), G2InSubgroupReference(in));
    EXPECT_TRUE(G2InSubgroup(in));

    // Pure cofactor torsion: both reject.
    G2 tor = CofactorTorsionPoint(&rng);
    EXPECT_EQ(G2InSubgroup(tor), G2InSubgroupReference(tor));
    EXPECT_FALSE(G2InSubgroup(tor));

    // Adversarial: subgroup + torsion (full-order, on-curve, near-miss).
    G2 mixed = in.Add(tor);
    EXPECT_EQ(G2InSubgroup(mixed), G2InSubgroupReference(mixed));
    EXPECT_FALSE(G2InSubgroup(mixed));

    // Random full-twist points (out of subgroup w.o.p.).
    G2 full = RandomFullTwistPoint(&rng);
    EXPECT_EQ(G2InSubgroup(full), G2InSubgroupReference(full));
  }

  // Off-curve points: both reject without touching the eigenvalue check.
  G2 off = G2Generator();
  off.x = off.x + Fp2::One();
  ASSERT_FALSE(off.IsOnCurve());
  EXPECT_FALSE(G2InSubgroup(off));
  EXPECT_FALSE(G2InSubgroupReference(off));
}

TEST(VerifierSoundness, PsiActsAsEigenvalueOnSubgroup) {
  Rng rng(7109);
  for (int i = 0; i < 8; ++i) {
    G2 p = G2Generator().ScalarMul(Fr::Random(&rng).ToBigUInt());
    EXPECT_TRUE(G2Psi(p).Equals(p.ScalarMul(PsiEigenvalue())));
  }
}

// --- Prepared Verify: identical verdicts ------------------------------------

TEST(VerifierSoundness, PreparedVerifyMatchesUnprepared) {
  ConstraintSystem cs = CubicCircuit(2, 15);
  Rng rng(7111);
  groth16::ProvingKey pk = groth16::Setup(cs, &rng);
  groth16::Proof proof = groth16::Prove(pk, cs, &rng);
  groth16::PreparedVerifyingKey pvk = groth16::PrepareVerifyingKey(pk.vk());

  std::vector<std::pair<std::vector<Fr>, groth16::Proof>> cases;
  cases.push_back({{Fr::FromU64(15)}, proof});       // valid
  cases.push_back({{Fr::FromU64(16)}, proof});       // wrong input
  cases.push_back({{}, proof});                      // wrong arity
  groth16::Proof tampered = proof;
  tampered.a = tampered.a.Double();
  cases.push_back({{Fr::FromU64(15)}, tampered});    // bad A
  tampered = proof;
  tampered.c = tampered.c.Add(G1Generator());
  cases.push_back({{Fr::FromU64(15)}, tampered});    // bad C
  tampered = proof;
  tampered.b = G2::Infinity();
  cases.push_back({{Fr::FromU64(15)}, tampered});    // infinity B

  for (const auto& [pub, pr] : cases) {
    EXPECT_EQ(groth16::Verify(pk.vk(), pub, pr), groth16::Verify(pvk, pub, pr));
  }
  EXPECT_TRUE(groth16::Verify(pvk, {Fr::FromU64(15)}, proof));
}

TEST(VerifierSoundness, PreparedVkSizeBytesCoversLines) {
  KnownExponentVk kvk(7112);
  groth16::PreparedVerifyingKey pvk = groth16::PrepareVerifyingKey(kvk.vk);
  // Two prepared G2 points, 87 lines each, 3 Fp2 per line.
  EXPECT_EQ(pvk.gamma_prep.lines.size(), 87u);
  EXPECT_EQ(pvk.delta_prep.lines.size(), 87u);
  EXPECT_GE(pvk.SizeBytes(), 2 * 87 * 3 * sizeof(Fp2));
  EXPECT_FALSE(pvk.gamma_prep.infinity);
  EXPECT_FALSE(pvk.delta_prep.infinity);
}

}  // namespace
}  // namespace nope
