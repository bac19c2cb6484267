#include "src/groth16/groth16.h"

#include <gtest/gtest.h>

namespace nope {
namespace {

// Builds the classic demo statement: public x, witness w with w^3 + w + 5 == x.
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

TEST(Groth16, ProveAndVerifyCubic) {
  // w = 3: 27 + 3 + 5 = 35.
  ConstraintSystem cs = CubicCircuit(3, 35);
  ASSERT_TRUE(cs.IsSatisfied());
  Rng rng(601);
  auto pk = groth16::Setup(cs, &rng);
  auto proof = groth16::Prove(pk, cs, &rng);
  EXPECT_TRUE(groth16::Verify(pk.vk(), {Fr::FromU64(35)}, proof));
  // Wrong public input rejected.
  EXPECT_FALSE(groth16::Verify(pk.vk(), {Fr::FromU64(36)}, proof));
  // Wrong number of public inputs rejected.
  EXPECT_FALSE(groth16::Verify(pk.vk(), {}, proof));
  EXPECT_FALSE(groth16::Verify(pk.vk(), {Fr::FromU64(35), Fr::One()}, proof));
}

TEST(Groth16, UnsatisfiedWitnessThrows) {
  ConstraintSystem cs = CubicCircuit(3, 36);
  Rng rng(602);
  ConstraintSystem good = CubicCircuit(3, 35);
  auto pk = groth16::Setup(good, &rng);
  EXPECT_THROW(groth16::Prove(pk, cs, &rng), std::invalid_argument);
}

// A system with the key's wire and public-input counts but more
// constraints than the key was set up for. Prove sizes its QAP rows from the
// key, so without the constraint-count check it would write past them.
TEST(Groth16, MoreConstraintsThanKeyThrows) {
  auto squares = [](size_t constraints) {
    ConstraintSystem cs;
    Var x = cs.AddPublicInput(Fr::FromU64(3));
    Var y = cs.AddWitness(Fr::FromU64(9));
    for (size_t i = 0; i < constraints; ++i) {
      cs.Enforce(LC(x), LC(x), LC(y));
    }
    return cs;
  };
  Rng rng(610);
  auto pk = groth16::Setup(squares(2), &rng);
  ConstraintSystem big = squares(5001);
  ASSERT_TRUE(big.IsSatisfied());
  ASSERT_EQ(big.NumVariables(), pk.a_query.size());
  EXPECT_THROW(groth16::Prove(pk, big, &rng), std::invalid_argument);
  EXPECT_THROW(groth16::Prove(pk, squares(1), &rng), std::invalid_argument);
  // The matching system still proves.
  EXPECT_TRUE(groth16::Verify(pk.vk(), {Fr::FromU64(3)},
                              groth16::Prove(pk, squares(2), &rng)));
}

// Every query table must have the length its MSM's scalar count implies.
TEST(Groth16, QueryTableOfWrongLengthThrows) {
  ConstraintSystem cs = CubicCircuit(3, 35);
  Rng rng(611);
  const auto pk = groth16::Setup(cs, &rng);
  auto shortened = [&](auto member) {
    groth16::ProvingKey bad = pk;
    (bad.*member).pop_back();
    return bad;
  };
  EXPECT_THROW(groth16::Prove(shortened(&groth16::ProvingKey::a_query), cs, &rng),
               std::invalid_argument);
  EXPECT_THROW(groth16::Prove(shortened(&groth16::ProvingKey::b_g1_query), cs, &rng),
               std::invalid_argument);
  EXPECT_THROW(groth16::Prove(shortened(&groth16::ProvingKey::b_g2_query), cs, &rng),
               std::invalid_argument);
  EXPECT_THROW(groth16::Prove(shortened(&groth16::ProvingKey::l_query), cs, &rng),
               std::invalid_argument);
  EXPECT_THROW(groth16::Prove(shortened(&groth16::ProvingKey::h_query), cs, &rng),
               std::invalid_argument);
  groth16::ProvingKey longer = pk;
  longer.h_query.push_back(longer.h_query.back());
  EXPECT_THROW(groth16::Prove(longer, cs, &rng), std::invalid_argument);
}

TEST(Groth16, TamperedProofRejected) {
  ConstraintSystem cs = CubicCircuit(2, 15);  // 8 + 2 + 5
  Rng rng(603);
  auto pk = groth16::Setup(cs, &rng);
  auto proof = groth16::Prove(pk, cs, &rng);
  ASSERT_TRUE(groth16::Verify(pk.vk(), {Fr::FromU64(15)}, proof));

  groth16::Proof bad = proof;
  bad.a = bad.a.Double();
  EXPECT_FALSE(groth16::Verify(pk.vk(), {Fr::FromU64(15)}, bad));
  bad = proof;
  bad.c = bad.c.Add(G1Generator());
  EXPECT_FALSE(groth16::Verify(pk.vk(), {Fr::FromU64(15)}, bad));
}

TEST(Groth16, ProofSerializationIs128Bytes) {
  ConstraintSystem cs = CubicCircuit(3, 35);
  Rng rng(604);
  auto pk = groth16::Setup(cs, &rng);
  auto proof = groth16::Prove(pk, cs, &rng);

  Bytes encoded = proof.ToBytes();
  EXPECT_EQ(encoded.size(), 128u);  // the paper's raw proof size (§2.3, Fig. 7)
  auto decoded = groth16::Proof::FromBytes(encoded);
  EXPECT_TRUE(decoded.a.Equals(proof.a));
  EXPECT_TRUE(decoded.b.Equals(proof.b));
  EXPECT_TRUE(decoded.c.Equals(proof.c));
  EXPECT_TRUE(groth16::Verify(pk.vk(), {Fr::FromU64(35)}, decoded));

  EXPECT_THROW(groth16::Proof::FromBytes(Bytes(127)), std::invalid_argument);
  Bytes corrupt = encoded;
  corrupt[5] ^= 0xff;
  // Either decode fails (x not on curve) or the proof no longer verifies.
  try {
    auto p2 = groth16::Proof::FromBytes(corrupt);
    EXPECT_FALSE(groth16::Verify(pk.vk(), {Fr::FromU64(35)}, p2));
  } catch (const std::invalid_argument&) {
  }
}

TEST(Groth16, ZeroKnowledgeRandomization) {
  ConstraintSystem cs = CubicCircuit(3, 35);
  Rng rng(605);
  auto pk = groth16::Setup(cs, &rng);
  auto p1 = groth16::Prove(pk, cs, &rng);
  auto p2 = groth16::Prove(pk, cs, &rng);
  // Distinct randomness yields distinct proofs for the same statement.
  EXPECT_FALSE(p1.a.Equals(p2.a));
  EXPECT_TRUE(groth16::Verify(pk.vk(), {Fr::FromU64(35)}, p1));
  EXPECT_TRUE(groth16::Verify(pk.vk(), {Fr::FromU64(35)}, p2));
}

TEST(Groth16, ProofMalleability) {
  // Anyone can re-randomize a valid proof into a distinct valid proof; this
  // is why NOPE binds N and TS inside the statement rather than relying on
  // proof bytes being unique (§3.2).
  ConstraintSystem cs = CubicCircuit(3, 35);
  Rng rng(606);
  auto pk = groth16::Setup(cs, &rng);
  auto proof = groth16::Prove(pk, cs, &rng);
  auto mauled = groth16::RandomizeProof(pk.vk(), proof, &rng);
  EXPECT_FALSE(mauled.a.Equals(proof.a));
  EXPECT_TRUE(groth16::Verify(pk.vk(), {Fr::FromU64(35)}, mauled));
}

TEST(Groth16, MultiplePublicInputs) {
  // Statement: x0 * x1 == w (all products public except w... rather, w is
  // witness equal to the product).
  ConstraintSystem cs;
  Var x0 = cs.AddPublicInput(Fr::FromU64(6));
  Var x1 = cs.AddPublicInput(Fr::FromU64(7));
  Var w = cs.AddWitness(Fr::FromU64(42));
  cs.Enforce(LC(x0), LC(x1), LC(w));
  // Pad with a few more constraints to exercise non-trivial domains.
  for (int i = 0; i < 10; ++i) {
    cs.Enforce(LC(w), LC::Constant(Fr::One()), LC(w));
  }
  Rng rng(607);
  auto pk = groth16::Setup(cs, &rng);
  auto proof = groth16::Prove(pk, cs, &rng);
  EXPECT_TRUE(groth16::Verify(pk.vk(), {Fr::FromU64(6), Fr::FromU64(7)}, proof));
  EXPECT_FALSE(groth16::Verify(pk.vk(), {Fr::FromU64(7), Fr::FromU64(6)}, proof));
}

TEST(Groth16, LargerRandomCircuit) {
  // Random multiplicative chain, a few hundred constraints.
  Rng rng(608);
  ConstraintSystem cs;
  Fr acc_val = Fr::FromU64(2);
  Var pub = cs.AddPublicInput(Fr::Zero());  // patched below
  Var acc = cs.AddWitness(acc_val);
  cs.EnforceEqual(LC(acc), LC::Constant(acc_val));
  for (int i = 0; i < 300; ++i) {
    Fr next_val = acc_val * acc_val + Fr::FromU64(i);
    Var next = cs.AddWitness(next_val);
    cs.Enforce(LC(acc), LC(acc), LC(next) - LC::Constant(Fr::FromU64(i)));
    acc = next;
    acc_val = next_val;
  }
  cs.SetValueForTest(pub, acc_val);
  cs.EnforceEqual(LC(acc), LC(pub));
  ASSERT_TRUE(cs.IsSatisfied());

  auto pk = groth16::Setup(cs, &rng);
  auto proof = groth16::Prove(pk, cs, &rng);
  EXPECT_TRUE(groth16::Verify(pk.vk(), {acc_val}, proof));
  EXPECT_FALSE(groth16::Verify(pk.vk(), {acc_val + Fr::One()}, proof));
}

// A verifying key with `inputs` public inputs on random ic points; the
// other fields only feed the pairing that PrepareVerifyingKey precomputes.
groth16::VerifyingKey RandomIcKey(Rng* rng, size_t inputs) {
  groth16::VerifyingKey vk{G1Generator(), G2Generator(), G2Generator(), G2Generator(), {}};
  for (size_t j = 0; j <= inputs; ++j) {
    vk.ic.push_back(G1Generator().ScalarMul(BigUInt::RandomBelow(rng, Bn254Order())));
  }
  return vk;
}

TEST(PreparedIcSum, MatchesNaiveSumOnEveryWidth) {
  Rng rng(609);
  const BigUInt one(1);
  const std::vector<Fr> special = {
      Fr::Zero(),
      Fr::One(),
      -Fr::One(),  // r - 1
      Fr::FromBigUInt((one << 64) - one),
      Fr::FromBigUInt(one << 64),
      Fr::FromBigUInt((one << 64) + one),
      Fr::FromBigUInt((one << 128) - one),
      Fr::FromBigUInt(one << 128),
      Fr::FromBigUInt((one << 128) + one),
  };
  for (size_t inputs = 1; inputs <= 8; ++inputs) {
    groth16::VerifyingKey vk = RandomIcKey(&rng, inputs);
    groth16::PreparedVerifyingKey pvk = groth16::PrepareVerifyingKey(vk);
    for (size_t round = 0; round < special.size() + 3; ++round) {
      std::vector<Fr> x(inputs);
      for (size_t j = 0; j < inputs; ++j) {
        // Each special value visits every slot; the last rounds are random.
        x[j] = round < special.size() ? special[(round + j) % special.size()] : Fr::Random(&rng);
      }
      G1 want = vk.ic[0];
      for (size_t j = 0; j < inputs; ++j) {
        want = want.Add(vk.ic[j + 1].ScalarMul(x[j].ToBigUInt()));
      }
      EXPECT_TRUE(groth16::PreparedIcSum(pvk, x).Equals(want))
          << "inputs=" << inputs << " round=" << round;
    }
  }
}

TEST(PreparedIcSum, SizeBytesCountsTheTable) {
  Rng rng(610);
  groth16::PreparedVerifyingKey pvk = groth16::PrepareVerifyingKey(RandomIcKey(&rng, 7));
  // 65 windows of 8 multiples per input; the NOPE key's 7 inputs fit in
  // 320 KB.
  size_t points = 0;
  size_t table_bytes = 0;
  for (const FixedBaseTable<Bn254G1Config>& table : pvk.ic_tables) {
    points += table.points().size();
    table_bytes += table.SizeBytes();
  }
  EXPECT_EQ(points, 7u * 65u * 8u);
  EXPECT_LE(table_bytes, 320u * 1024u);
  groth16::PreparedVerifyingKey bare = pvk;
  // move-assign: frees the capacity too
  bare.ic_tables = std::vector<FixedBaseTable<Bn254G1Config>>();
  EXPECT_EQ(pvk.SizeBytes(), bare.SizeBytes() + table_bytes);
}

TEST(Domain, FftRoundTrip) {
  EvaluationDomain d(13);
  EXPECT_EQ(d.size(), 16u);
  Rng rng(609);
  std::vector<Fr> coeffs;
  for (size_t i = 0; i < d.size(); ++i) {
    coeffs.push_back(Fr::Random(&rng));
  }
  std::vector<Fr> evals = coeffs;
  d.Fft(&evals);
  // Spot-check: evaluation at omega^1 equals the polynomial evaluated there.
  Fr x = d.omega();
  Fr expect = Fr::Zero();
  Fr pw = Fr::One();
  for (const Fr& c : coeffs) {
    expect = expect + c * pw;
    pw = pw * x;
  }
  EXPECT_EQ(evals[1], expect);

  d.Ifft(&evals);
  EXPECT_EQ(evals, coeffs);

  std::vector<Fr> coset = coeffs;
  d.CosetFft(&coset);
  d.CosetIfft(&coset);
  EXPECT_EQ(coset, coeffs);
}

// out[k] = sum_i coeffs[i] * x_k^i at x_k = base * step^k, by Horner's rule:
// the O(n^2) reference for every transform.
std::vector<Fr> NaiveEvaluate(const std::vector<Fr>& coeffs, const Fr& base, const Fr& step) {
  std::vector<Fr> out(coeffs.size());
  Fr x = base;
  for (Fr& value : out) {
    Fr acc = Fr::Zero();
    for (size_t i = coeffs.size(); i-- > 0;) {
      acc = acc * x + coeffs[i];
    }
    value = acc;
    x = x * step;
  }
  return out;
}

TEST(Domain, TransformsMatchNaiveEvaluation) {
  Rng rng(612);
  for (size_t log_n = 1; log_n <= 10; ++log_n) {
    const size_t n = size_t{1} << log_n;
    EvaluationDomain d(n);
    ASSERT_EQ(d.size(), n);
    const Fr omega = d.omega();
    ASSERT_EQ(omega.Pow(BigUInt(n)), Fr::One());
    ASSERT_NE(omega.Pow(BigUInt(n / 2)), Fr::One());
    const Fr omega_inv = omega.Inverse();
    const Fr n_inv = Fr::FromU64(n).Inverse();
    // The coset g*H, read off the transform of the polynomial x; g^n != 1
    // keeps it disjoint from H.
    std::vector<Fr> x_poly(n, Fr::Zero());
    x_poly[1] = Fr::One();
    d.CosetFft(&x_poly);
    const Fr g = x_poly[0];
    ASSERT_NE(g.Pow(BigUInt(n)), Fr::One());
    EXPECT_EQ(d.VanishingOnCoset(), g.Pow(BigUInt(n)) - Fr::One());
    const Fr g_inv = g.Inverse();

    std::vector<Fr> input(n);
    for (Fr& c : input) {
      c = Fr::Random(&rng);
    }
    std::vector<Fr> v = input;
    d.Fft(&v);
    EXPECT_EQ(v, NaiveEvaluate(input, Fr::One(), omega)) << "Fft, n = " << n;

    v = input;
    d.CosetFft(&v);
    EXPECT_EQ(v, NaiveEvaluate(input, g, omega)) << "CosetFft, n = " << n;

    // Ifft: c_i = (1/n) sum_k v_k omega^-ik; CosetIfft also scales c_i by g^-i.
    std::vector<Fr> inverse = NaiveEvaluate(input, Fr::One(), omega_inv);
    std::vector<Fr> coset_inverse(n);
    Fr scale = n_inv;
    for (size_t i = 0; i < n; ++i) {
      coset_inverse[i] = inverse[i] * scale;
      inverse[i] = inverse[i] * n_inv;
      scale = scale * g_inv;
    }
    v = input;
    d.Ifft(&v);
    EXPECT_EQ(v, inverse) << "Ifft, n = " << n;
    v = input;
    d.CosetIfft(&v);
    EXPECT_EQ(v, coset_inverse) << "CosetIfft, n = " << n;
  }
}

TEST(Domain, VanishingPolynomial) {
  EvaluationDomain d(8);
  // Z vanishes on the domain and not on the coset.
  EXPECT_EQ(d.EvaluateVanishing(d.omega()), Fr::Zero());
  EXPECT_EQ(d.EvaluateVanishing(Fr::One()), Fr::Zero());
  EXPECT_NE(d.VanishingOnCoset(), Fr::Zero());
}

TEST(Domain, LagrangeInterpolation) {
  EvaluationDomain d(4);
  Rng rng(610);
  Fr tau = Fr::Random(&rng);
  std::vector<Fr> lag = d.LagrangeAt(tau);
  // Sum of Lagrange basis values is 1.
  Fr sum = Fr::Zero();
  for (const Fr& l : lag) {
    sum = sum + l;
  }
  EXPECT_EQ(sum, Fr::One());
  // Interpolating x^2 through its evaluations reproduces tau^2.
  Fr point = Fr::One();
  Fr acc = Fr::Zero();
  for (size_t j = 0; j < d.size(); ++j) {
    acc = acc + lag[j] * point.Square();
    point = point * d.omega();
  }
  EXPECT_EQ(acc, tau.Square());
}

TEST(BatchInvertTest, MatchesIndividualInverses) {
  Rng rng(611);
  std::vector<Fr> values;
  for (int i = 0; i < 20; ++i) {
    values.push_back(i % 5 == 0 ? Fr::Zero() : Fr::Random(&rng));
  }
  std::vector<Fr> inverted = values;
  BatchInvert(&inverted);
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].IsZero()) {
      EXPECT_TRUE(inverted[i].IsZero());
    } else {
      EXPECT_EQ(inverted[i], values[i].Inverse());
    }
  }
}

}  // namespace
}  // namespace nope
