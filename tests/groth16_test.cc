#include "src/groth16/groth16.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/threadpool.h"

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

// The prover core with a quiet token and no hooks. It must not throw, on any
// input.
groth16::ProveResult ProveCore(const groth16::ProvingKey& pk, const ConstraintSystem& circuit,
                               std::span<const Fr> assignment, Rng* rng) {
  groth16::ProveResult result;
  EXPECT_NO_THROW(result = groth16::Prove(pk, circuit, assignment, rng, CancellationToken(),
                                          nullptr));
  return result;
}

// Checks the code of a failed result and that its context names the check.
void ExpectError(const groth16::ProveResult& result, ErrorCode code, const std::string& names) {
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status.error().code, code) << result.status.ToString();
  EXPECT_NE(result.status.error().context.find(names), std::string::npos)
      << result.status.ToString();
}

TEST(ProveCore, CountModeCircuitIsMissing) {
  Rng rng(620);
  const auto pk = groth16::Setup(CubicCircuit(3, 35), &rng);
  ConstraintSystem counted(ConstraintSystem::Mode::kCount);
  Var x = counted.AddPublicInput(Fr::FromU64(35));
  Var w = counted.AddWitness(Fr::FromU64(3));
  counted.Enforce(LC(w), LC(w), LC(x));
  ExpectError(ProveCore(pk, counted, counted.values(), &rng), ErrorCode::kMissing, "kCount");
}

// The inputs of MoreConstraintsThanKeyThrows and QueryTableOfWrongLengthThrows,
// plus a circuit with one more public input, through the core.
TEST(ProveCore, EachKeyShapeMismatchIsNamed) {
  auto squares = [](size_t constraints, bool y_public) {
    ConstraintSystem cs;
    Var x = cs.AddPublicInput(Fr::FromU64(3));
    Var y = y_public ? cs.AddPublicInput(Fr::FromU64(9)) : cs.AddWitness(Fr::FromU64(9));
    for (size_t i = 0; i < constraints; ++i) {
      cs.Enforce(LC(x), LC(x), LC(y));
    }
    return cs;
  };
  Rng rng(621);
  const auto squares_pk = groth16::Setup(squares(2, false), &rng);
  for (const ConstraintSystem& wrong : {squares(5001, false), squares(1, false)}) {
    ExpectError(ProveCore(squares_pk, wrong, wrong.values(), &rng), ErrorCode::kMismatch,
                "constraint count");
  }
  ConstraintSystem two_public = squares(2, true);
  ExpectError(ProveCore(squares_pk, two_public, two_public.values(), &rng),
              ErrorCode::kMismatch, "public input count");

  ConstraintSystem cs = CubicCircuit(3, 35);
  const auto pk = groth16::Setup(cs, &rng);
  const std::pair<std::vector<G1Affine> groth16::ProvingKey::*, const char*> g1_tables[] = {
      {&groth16::ProvingKey::a_query, "A query length"},
      {&groth16::ProvingKey::b_g1_query, "B-in-G1 query length"},
      {&groth16::ProvingKey::l_query, "L query length"},
      {&groth16::ProvingKey::h_query, "H query length"},
  };
  for (const auto& [member, name] : g1_tables) {
    groth16::ProvingKey bad = pk;
    (bad.*member).pop_back();
    ExpectError(ProveCore(bad, cs, cs.values(), &rng), ErrorCode::kMismatch, name);
  }
  groth16::ProvingKey bad = pk;
  bad.b_g2_query.pop_back();
  ExpectError(ProveCore(bad, cs, cs.values(), &rng), ErrorCode::kMismatch,
              "B-in-G2 query length");
  groth16::ProvingKey longer = pk;
  longer.h_query.push_back(longer.h_query.back());
  ExpectError(ProveCore(longer, cs, cs.values(), &rng), ErrorCode::kMismatch, "H query length");
  // The matching circuit still proves.
  groth16::ProveResult ok = ProveCore(pk, cs, cs.values(), &rng);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(groth16::Verify(pk.vk(), {Fr::FromU64(35)}, ok.proof));
}

TEST(ProveCore, AssignmentOneWireShortIsBadLength) {
  Rng rng(622);
  ConstraintSystem cs = CubicCircuit(3, 35);
  const auto pk = groth16::Setup(cs, &rng);
  std::vector<Fr> short_assignment = cs.values();
  short_assignment.pop_back();
  ExpectError(ProveCore(pk, cs, short_assignment, &rng), ErrorCode::kBadLength, "4 values");
}

TEST(ProveCore, WireZeroNotOneIsMismatch) {
  Rng rng(623);
  ConstraintSystem cs = CubicCircuit(3, 35);
  const auto pk = groth16::Setup(cs, &rng);
  std::vector<Fr> assignment = cs.values();
  assignment[kOneVar] = Fr::FromU64(2);
  ExpectError(ProveCore(pk, cs, assignment, &rng), ErrorCode::kMismatch, "wire 0");
}

// The first violated row is named, whatever the thread count: rows 300 and
// 550 of a squaring chain fall in different parallel shares.
TEST(ProveCore, UnsatisfiedRowIsNamedByIndex) {
  ConstraintSystem cs;
  Var acc = cs.AddPublicInput(Fr::FromU64(3));
  Fr acc_val = Fr::FromU64(3);
  for (size_t i = 0; i < 600; ++i) {
    acc_val = acc_val * acc_val;
    Var next = cs.AddWitness(acc_val);
    cs.Enforce(LC(acc), LC(acc), LC(next));
    acc = next;
  }
  Rng rng(624);
  const auto pk = groth16::Setup(cs, &rng);
  // Row i squares wire i + 1 into wire i + 2.
  std::vector<Fr> assignment = cs.values();
  assignment[552] = assignment[552] + Fr::One();
  ExpectError(ProveCore(pk, cs, assignment, &rng), ErrorCode::kMismatch, "constraint 550");
  assignment[302] = assignment[302] + Fr::One();
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    ThreadPool::SetGlobalThreads(threads);
    ExpectError(ProveCore(pk, cs, assignment, &rng), ErrorCode::kMismatch,
                "violates constraint 300");
  }
  ThreadPool::SetGlobalThreads(0);  // restore the environment default
  // The three-argument forward throws instead.
  ConstraintSystem bad = cs;
  bad.SetValueForTest(302, assignment[302]);
  EXPECT_THROW(groth16::Prove(pk, bad, &rng), std::invalid_argument);
}

TEST(ProveCore, FiredTokenIsCancelled) {
  Rng rng(625);
  ConstraintSystem cs = CubicCircuit(3, 35);
  const auto pk = groth16::Setup(cs, &rng);
  CancellationSource source;
  source.Cancel();
  groth16::ProveResult result;
  EXPECT_NO_THROW(result = groth16::Prove(pk, cs, cs.values(), &rng, source.token(), nullptr));
  ExpectError(result, ErrorCode::kCancelled, "token");
}

// The core proves `assignment`, not the values the circuit carries: the
// same proof bytes as proving a circuit that carries that witness.
TEST(ProveCore, ProvesTheAssignmentNotTheCircuitsValues) {
  Rng setup_rng(626);
  ConstraintSystem circuit = CubicCircuit(3, 35);
  const auto pk = groth16::Setup(circuit, &setup_rng);
  ConstraintSystem other = CubicCircuit(2, 15);
  Rng rng_a(627), rng_b(627);
  groth16::ProveResult core = ProveCore(pk, circuit, other.values(), &rng_a);
  ASSERT_TRUE(core.ok());
  EXPECT_EQ(core.proof.ToBytes(), groth16::Prove(pk, other, &rng_b).ToBytes());
  EXPECT_TRUE(groth16::Verify(pk.vk(), {Fr::FromU64(15)}, core.proof));
  EXPECT_FALSE(groth16::Verify(pk.vk(), {Fr::FromU64(35)}, core.proof));
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
  Result<groth16::Proof> decoded = groth16::Proof::TryFromBytes(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().a.Equals(proof.a));
  EXPECT_TRUE(decoded.value().b.Equals(proof.b));
  EXPECT_TRUE(decoded.value().c.Equals(proof.c));
  EXPECT_TRUE(groth16::Verify(pk.vk(), {Fr::FromU64(35)}, decoded.value()));

  EXPECT_FALSE(groth16::Proof::TryFromBytes(Bytes(127)).ok());
  Bytes corrupt = encoded;
  corrupt[5] ^= 0xff;
  // Either decode fails (x not on curve) or the proof no longer verifies.
  Result<groth16::Proof> p2 = groth16::Proof::TryFromBytes(corrupt);
  if (p2.ok()) {
    EXPECT_FALSE(groth16::Verify(pk.vk(), {Fr::FromU64(35)}, p2.value()));
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

// SyntheticCircuit(n) has n constraints and 2 public inputs (wire 0 and
// x_0 = 2), so n + 2 points: exactly on a 2^k, a 3 * 2^k and a 9 * 2^k rung,
// and one point above each.
TEST(Groth16, ProvesOnEveryKindOfRung) {
  const std::pair<size_t, size_t> cases[] = {{62, 64},   {63, 72},  {94, 96},
                                             {95, 128},  {142, 144}, {143, 192}};
  Rng rng(614);
  for (const auto& [constraints, rung] : cases) {
    ConstraintSystem cs = bench::SyntheticCircuit(constraints);
    ASSERT_EQ(cs.NumConstraints() + cs.NumPublic(), constraints + 2);
    const groth16::ProvingKey pk = groth16::Setup(cs, &rng);
    EXPECT_EQ(pk.h_query.size() + 1, rung) << constraints << " constraints";
    const groth16::Proof proof = groth16::Prove(pk, cs, &rng);
    EXPECT_TRUE(groth16::Verify(pk.vk(), {Fr::FromU64(2)}, proof)) << constraints;
    EXPECT_FALSE(groth16::Verify(pk.vk(), {Fr::FromU64(3)}, proof)) << constraints;
  }
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

TEST(Domain, SizeForClimbsTheLadder) {
  const std::pair<size_t, size_t> ladder[] = {
      {1, 2},           {3, 3},           {5, 6},           {7, 8},
      {9, 9},           {10, 12},         {13, 16},         {307, 384},
      {147456, 147456}, {147457, 196608}, {149320, 196608}, {196609, 262144},
      {262144, 262144}, {1130000, 1179648}, {6878986, 8388608}};
  for (const auto& [min_size, size] : ladder) {
    EXPECT_EQ(EvaluationDomain::SizeFor(min_size), size) << "min_size = " << min_size;
  }
  // The top rung; no domain is built this large.
  const size_t cap = size_t{9} << 28;
  EXPECT_EQ(EvaluationDomain::SizeFor(cap), cap);
  EXPECT_DEATH(EvaluationDomain::SizeFor(cap + 1), "domain exceeds");
}

// sum_i coeffs[i] * x^i by Horner's rule: the O(n) reference for one output
// of any transform.
Fr Horner(const std::vector<Fr>& coeffs, const Fr& x) {
  Fr acc = Fr::Zero();
  for (size_t i = coeffs.size(); i-- > 0;) {
    acc = acc * x + coeffs[i];
  }
  return acc;
}

TEST(Domain, TransformsMatchNaiveEvaluation) {
  Rng rng(612);
  std::vector<size_t> sizes;
  for (size_t log_n = 1; log_n <= 10; ++log_n) {
    sizes.push_back(size_t{1} << log_n);
  }
  for (size_t n : {3, 6, 9, 12, 18, 36, 3 << 10, 9 << 10}) {
    sizes.push_back(n);
  }
  for (size_t n : sizes) {
    EvaluationDomain d(n);
    ASSERT_EQ(d.size(), n);
    // omega has order exactly n, whose only prime factors are 2 and 3.
    const Fr omega = d.omega();
    ASSERT_EQ(omega.Pow(BigUInt(n)), Fr::One());
    if (n % 2 == 0) {
      ASSERT_NE(omega.Pow(BigUInt(n / 2)), Fr::One()) << "n = " << n;
    }
    if (n % 3 == 0) {
      ASSERT_NE(omega.Pow(BigUInt(n / 3)), Fr::One()) << "n = " << n;
    }
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
    // Every output up to 1,024 points; above that a seeded sample of 64,
    // which keeps the case fast under the sanitizers.
    std::vector<size_t> outputs;
    if (n <= 1024) {
      for (size_t k = 0; k < n; ++k) {
        outputs.push_back(k);
      }
    } else {
      for (int i = 0; i < 64; ++i) {
        outputs.push_back(rng.NextBelow(n));
      }
    }
    // Output k of each transform is scale * scale_step^k * Horner(input,
    // base * step^k): Fft evaluates at omega^k, CosetFft at g * omega^k,
    // Ifft is (1/n) sum_i v_i omega^-ik, and CosetIfft also scales
    // coefficient k by g^-k.
    using Transform =
        void (EvaluationDomain::*)(std::vector<Fr>*, const CancellationToken*) const;
    struct Case {
      Transform transform;
      const char* name;
      Fr base, step, scale, scale_step;
    };
    const Case cases[] = {
        {&EvaluationDomain::Fft, "Fft", Fr::One(), omega, Fr::One(), Fr::One()},
        {&EvaluationDomain::CosetFft, "CosetFft", g, omega, Fr::One(), Fr::One()},
        {&EvaluationDomain::Ifft, "Ifft", Fr::One(), omega_inv, n_inv, Fr::One()},
        {&EvaluationDomain::CosetIfft, "CosetIfft", Fr::One(), omega_inv, n_inv, g_inv},
    };
    for (const Case& c : cases) {
      std::vector<Fr> v = input;
      (d.*c.transform)(&v, nullptr);
      for (size_t k : outputs) {
        const BigUInt e(static_cast<uint64_t>(k));
        ASSERT_EQ(v[k], Horner(input, c.base * c.step.Pow(e)) * c.scale * c.scale_step.Pow(e))
            << c.name << ", n = " << n << ", k = " << k;
      }
    }

    std::vector<Fr> v = input;
    d.Fft(&v);
    d.Ifft(&v);
    EXPECT_EQ(v, input) << "Fft then Ifft, n = " << n;
    d.CosetFft(&v);
    d.CosetIfft(&v);
    EXPECT_EQ(v, input) << "CosetFft then CosetIfft, n = " << n;
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
  Rng rng(610);
  for (size_t n : {4, 6, 9}) {
    EvaluationDomain d(n);
    Fr tau = Fr::Random(&rng);
    std::vector<Fr> lag = d.LagrangeAt(tau);
    // Sum of Lagrange basis values is 1.
    Fr sum = Fr::Zero();
    for (const Fr& l : lag) {
      sum = sum + l;
    }
    EXPECT_EQ(sum, Fr::One()) << "n = " << n;
    // Interpolating x^2 through its evaluations reproduces tau^2.
    Fr point = Fr::One();
    Fr acc = Fr::Zero();
    for (size_t j = 0; j < d.size(); ++j) {
      acc = acc + lag[j] * point.Square();
      point = point * d.omega();
    }
    EXPECT_EQ(acc, tau.Square()) << "n = " << n;
  }
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
