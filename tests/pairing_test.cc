// The BN254 optimal ate pairing: values pinned from the affine-Fp12 textbook
// implementation this code replaced, the algebraic laws, the degenerate-input
// contract of every Miller loop variant, and the exactness of the final
// exponentiation against a direct power.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/sha256.h"
#include "src/ec/bn254.h"

namespace nope {
namespace {

// The 12 Fq coefficients, 32 bytes big-endian each, in the order
// c0.c0.c0, c0.c0.c1, c0.c1.c0, ..., c1.c2.c1.
Bytes Encode(const Fp12& f) {
  Bytes out;
  for (const Fp6* c6 : {&f.c0, &f.c1}) {
    for (const Fp2* c2 : {&c6->c0, &c6->c1, &c6->c2}) {
      for (const Fq* c : {&c2->c0, &c2->c1}) {
        AppendBytes(&out, c->ToBigUInt().ToBytes(32));
      }
    }
  }
  return out;
}

Fp12 RandomFp12(Rng* rng) {
  auto fp2 = [&] { return Fp2{Fq::Random(rng), Fq::Random(rng)}; };
  return {Fp6{fp2(), fp2(), fp2()}, Fp6{fp2(), fp2(), fp2()}};
}

G1 RandomG1(Rng* rng) { return G1Generator().ScalarMul(Fr::Random(rng).ToBigUInt()); }
G2 RandomG2(Rng* rng) { return G2Generator().ScalarMul(Fr::Random(rng).ToBigUInt()); }

TEST(Pairing, GeneratorValuePinned) {
  const char* kCoefficients[12] = {
      "12c70e90e12b7874510cd1707e8856f71bf7f61d72631e268fca81000db9a1f5",
      "084f330485b09e866bc2f2ea2b897394deaf3f12aa31f28cb0552990967d4704",
      "0e841c2ac18a4003ac9326b9558380e0bc27fdd375e3605f96b819a358d34bde",
      "2067586885c3318eeffa1938c754fe3c60224ee5ae15e66af6b5104c47c8c5d8",
      "01676555de427abc409c4a394bc5426886302996919d4bf4bdd02236e14b3636",
      "2b03614464f04dd772d86df88674c270ffc8747ea13e72da95e3594468f222c4",
      "2c53748bcd21a7c038fb30ddc8ac3bf0af25d7859cfbc12c30c866276c565909",
      "27ed208e7a0b55ae6e710bbfbd2fd922669c026360e37cc5b2ab862411536104",
      "1ad9db1937fd72f4ac462173d31d3d6117411fa48dba8d499d762b47edb3b54a",
      "279db296f9d479292532c7c493d8e0722b6efae42158387564889c79fc038ee3",
      "0dc26f240656bbe2029bd441d77c221f0ba4c70c94b29b5f17f0f6d08745a069",
      "108c19d15f9446f744d0f110405d3856d6cc3bda6c4d537663729f5257628417",
  };
  std::string want;
  for (const char* c : kCoefficients) {
    want += c;
  }
  EXPECT_EQ(EncodeHex(Encode(Pairing(G1Generator(), G2Generator()))), want);
}

TEST(Pairing, SeededValuesPinned) {
  // SHA-256 of Encode(e(a_i P, b_i Q)) for the generators P, Q and seeded
  // scalars a_i, b_i.
  const char* kDigests[16] = {
      "07305a4e25df24dba84bef5a627525ccb20f3544951fb5e74fb17d10223dac0d",
      "99cc7ab801e61799a13c22bb350a80cdd2ce32f990b6ce6f5e8525d47b1e3b10",
      "b228012dfad080a161db2861e2498918d0d72ea4f586596a2fd17c5a2b73dcbf",
      "54e77a5d35dbc47444deba040f528e2fdd14b43e448f52365a4c1b13efed85b1",
      "23b1976aa1edd2b524e29dd4f244fa82a88283b7b33557e03d4766c32a6eb2f8",
      "ba23e4960d2ed5bcc2646965693ec7fd743787d78f1157105504ea175c9ab5b4",
      "5c091795a79a9e56892cb4ba3cf83e19037497670f784751a59154890f51f3da",
      "defb04b72d6985021abd2797c3635420de82bf4ef08f61725c42f594c8ed9333",
      "e704c49fcfd2c7653a4210e226748ef60f3b05afb71b93344ea852da803bfed3",
      "4c951bb0acb2a6573e1c97dc1755625065e1b70734e98695a062448fd3e9ce04",
      "4c9e89c7f02652667b8ea3fc69199bb2ba2b4c094b6e4ba091438fb12e36043b",
      "8bf746499c35af40af6113d24dedac96cd74ed0cfceb6d96a6c5f062878811e2",
      "bc8babd270e0187e8e7d39afa62a408fe78bef78ea625bd0d2a60f8f588b0160",
      "ada707223faf4cd048ec502c921785eb54aeffad6c65736e294084ab8e15bd20",
      "73614c7223b525da3e91d62e481f91ff6d0cd2e50353a0f22e506d06cb53bb9c",
      "2ab6e62d98d597a78ec86a48ea646d141096ec265fd18f8aec174c2213495c4a",
  };
  Rng rng(0x5eed1234);
  for (int i = 0; i < 16; ++i) {
    Fr a = Fr::Random(&rng);
    Fr b = Fr::Random(&rng);
    Fp12 e = Pairing(G1Generator().ScalarMul(a.ToBigUInt()),
                     G2Generator().ScalarMul(b.ToBigUInt()));
    EXPECT_EQ(EncodeHex(Sha256::Hash(Encode(e))), kDigests[i]) << "pair " << i;
  }
}

TEST(Pairing, NonDegenerate) {
  Fp12 e = Pairing(G1Generator(), G2Generator());
  EXPECT_FALSE(e.IsOne());
  EXPECT_FALSE(e.IsZero());
  // Pairing output lies in the order-r subgroup.
  EXPECT_TRUE(e.Pow(Bn254Order()).IsOne());
}

TEST(Pairing, IdentityInputs) {
  EXPECT_TRUE(Pairing(G1::Infinity(), G2Generator()).IsOne());
  EXPECT_TRUE(Pairing(G1Generator(), G2::Infinity()).IsOne());
}

TEST(Pairing, BilinearOverSeededPairs) {
  // e(aP, bQ) = e(P, Q)^(ab), and e^r = 1, for 64 seeded pairs.
  Rng rng(302);
  const Fp12 base = Pairing(G1Generator(), G2Generator());
  for (int i = 0; i < 64; ++i) {
    Fr a = Fr::Random(&rng);
    Fr b = Fr::Random(&rng);
    Fp12 e = Pairing(G1Generator().ScalarMul(a.ToBigUInt()),
                     G2Generator().ScalarMul(b.ToBigUInt()));
    EXPECT_EQ(e, base.Pow((a * b).ToBigUInt())) << "pair " << i;
    EXPECT_TRUE(e.Pow(Bn254Order()).IsOne()) << "pair " << i;
  }
}

TEST(Pairing, BilinearInEachArgument) {
  BigUInt a(123456789);
  BigUInt b(987654321);
  Fp12 base = Pairing(G1Generator(), G2Generator());
  EXPECT_EQ(Pairing(G1Generator().ScalarMul(a), G2Generator()), base.Pow(a));
  EXPECT_EQ(Pairing(G1Generator(), G2Generator().ScalarMul(b)), base.Pow(b));
}

TEST(Pairing, ProductCheck) {
  // e(aG, bH) * e(-abG, H) == 1.
  BigUInt a(31337);
  BigUInt b(271828);
  G1 p1 = G1Generator().ScalarMul(a);
  G2 q1 = G2Generator().ScalarMul(b);
  G1 p2 = G1Generator().ScalarMul(a * b).Negate();
  EXPECT_TRUE(PairingProductIsOne({{p1, q1}, {p2, G2Generator()}}));
  EXPECT_FALSE(PairingProductIsOne({{p1, q1}, {p2.Double(), G2Generator()}}));
}

TEST(Pairing, AdditivityViaProduct) {
  // e(P1 + P2, Q) == e(P1, Q) e(P2, Q).
  G1 p1 = G1Generator().ScalarMul(BigUInt(111));
  G1 p2 = G1Generator().ScalarMul(BigUInt(222));
  G2 q = G2Generator().ScalarMul(BigUInt(5));
  EXPECT_EQ(Pairing(p1.Add(p2), q), Pairing(p1, q) * Pairing(p2, q));
}

TEST(MillerLoop, InfinityContractOnEveryVariant) {
  const G1 p = G1Generator();
  const G2 q = G2Generator();
  EXPECT_TRUE(MillerLoop(G1::Infinity(), q).IsOne());
  EXPECT_TRUE(MillerLoop(p, G2::Infinity()).IsOne());

  G2Prepared inf_prep = PrepareG2(G2::Infinity());
  EXPECT_TRUE(inf_prep.infinity);
  EXPECT_TRUE(inf_prep.lines.empty());
  G2Prepared prep = PrepareG2(q);
  EXPECT_TRUE(MillerLoop(p, inf_prep).IsOne());
  EXPECT_TRUE(MillerLoop(G1::Infinity(), prep).IsOne());

  // A multi-Miller loop drops pairs with an infinity side.
  EXPECT_TRUE(MultiMillerLoop({}).IsOne());
  EXPECT_TRUE(MultiMillerLoop({{G1::Infinity(), &prep}, {p, &inf_prep}}).IsOne());
  EXPECT_EQ(MultiMillerLoop({{G1::Infinity(), &prep}, {p, &prep}, {p, &inf_prep}}),
            MillerLoop(p, q));
  EXPECT_TRUE(PairingProductIsOne({{G1::Infinity(), q}, {p, G2::Infinity()}}));
}

TEST(MillerLoop, PreparedIsBitIdenticalToFresh) {
  Rng rng(303);
  for (int i = 0; i < 8; ++i) {
    G1 p = RandomG1(&rng);
    G2 q = RandomG2(&rng);
    G2Prepared prep = PrepareG2(q);
    EXPECT_FALSE(prep.infinity);
    EXPECT_EQ(prep.lines.size(), 87u);
    EXPECT_EQ(MillerLoop(p, prep), MillerLoop(p, q)) << "pair " << i;
  }
}

TEST(MillerLoop, MultiEqualsProductOfSingles) {
  Rng rng(304);
  for (size_t n : {1, 2, 3, 4, 6}) {
    std::vector<G1> ps;
    std::vector<G2Prepared> qs;
    for (size_t i = 0; i < n; ++i) {
      ps.push_back(RandomG1(&rng));
      qs.push_back(PrepareG2(RandomG2(&rng)));
    }
    std::vector<std::pair<G1, const G2Prepared*>> terms;
    Fp12 product = Fp12::One();
    for (size_t i = 0; i < n; ++i) {
      terms.push_back({ps[i], &qs[i]});
      product = product * MillerLoop(ps[i], qs[i]);
    }
    Fp12 multi = MultiMillerLoop(terms);
    // Exact field arithmetic: equal before the final exponentiation already.
    EXPECT_EQ(multi, product) << n << " pairs";
    EXPECT_EQ(FinalExponentiation(multi), FinalExponentiation(product)) << n << " pairs";
  }
}

TEST(FinalExponentiation, EqualsTheDirectPower) {
  // f^((p^12 - 1)/r) by plain square-and-multiply over the ~3000-bit
  // exponent: the addition chain must hit exactly this power, not a
  // multiple of it.
  BigUInt p = Fq::params().modulus_big;
  BigUInt p2 = p * p;
  BigUInt p4 = p2 * p2;
  BigUInt exponent = (p4 * p4 * p4 - BigUInt(1)) / Bn254Order();
  Rng rng(305);
  std::vector<Fp12> inputs = {RandomFp12(&rng), RandomFp12(&rng),
                              MillerLoop(RandomG1(&rng), RandomG2(&rng))};
  for (const Fp12& f : inputs) {
    EXPECT_EQ(FinalExponentiation(f), f.Pow(exponent));
  }
}

TEST(Fp12Cyclotomic, SquareAndPowMatchGenericOnPairingValues) {
  Rng rng(306);
  for (int i = 0; i < 4; ++i) {
    Fp12 e = Pairing(RandomG1(&rng), RandomG2(&rng));
    EXPECT_EQ(e.CyclotomicSquare(), e.Square());
    BigUInt k = Fr::Random(&rng).ToBigUInt();
    EXPECT_EQ(e.CyclotomicPow(k.Naf()), e.Pow(k));
    EXPECT_EQ(e.Conjugate() * e, Fp12::One());
  }
  Fp12 e = Pairing(G1Generator(), G2Generator());
  EXPECT_TRUE(e.CyclotomicPow(BigUInt().Naf()).IsOne());
  EXPECT_EQ(e.CyclotomicPow(BigUInt(1).Naf()), e);
}

TEST(Fp12Sparse, MulBy034MatchesDenseProduct) {
  Rng rng(307);
  for (int i = 0; i < 8; ++i) {
    Fp12 f = RandomFp12(&rng);
    Fp2 a{Fq::Random(&rng), Fq::Random(&rng)};
    Fp2 b{Fq::Random(&rng), Fq::Random(&rng)};
    Fp2 c{Fq::Random(&rng), Fq::Random(&rng)};
    Fp12 line{Fp6{a, Fp2::Zero(), Fp2::Zero()}, Fp6{b, c, Fp2::Zero()}};
    EXPECT_EQ(f.MulBy034(a, b, c), f * line);
  }
}

TEST(Naf, DigitsAreNonAdjacentAndSumBack) {
  Rng rng(308);
  std::vector<BigUInt> values = {BigUInt(), BigUInt(1), BigUInt(7), Bn254U(),
                                 Bn254U() * BigUInt(6) + BigUInt(2)};
  for (int i = 0; i < 16; ++i) {
    values.push_back(Fr::Random(&rng).ToBigUInt());
  }
  for (const BigUInt& k : values) {
    std::vector<int8_t> naf = k.Naf();
    BigUInt pos, neg;
    for (size_t i = 0; i < naf.size(); ++i) {
      if (naf[i] == 1) {
        pos = pos + (BigUInt(1) << i);
      } else if (naf[i] == -1) {
        neg = neg + (BigUInt(1) << i);
      }
      if (i > 0) {
        EXPECT_FALSE(naf[i] != 0 && naf[i - 1] != 0);
      }
    }
    EXPECT_TRUE(pos - neg == k);
    if (!naf.empty()) {
      EXPECT_EQ(naf.back(), 1);
    }
  }
}

}  // namespace
}  // namespace nope
