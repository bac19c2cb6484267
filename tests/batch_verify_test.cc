// Seeded mutation harness for BatchVerify (ISSUE 7): across >= 1000 mutated
// proof/input batches, BatchVerify must accept a batch iff Verify accepts
// every member, and must name exactly the failing members. Mutants mix
// parse-level corruption (src/base/mutator.* over the 128-byte wire form,
// decoded back when the decoder lets them through) with directly-constructed
// bad Proof objects that bypass the parser — the in-process attack surface
// the point-check contract exists for.
//
// Also pinned here: the prepared-VK path returns byte-identical verdicts to
// the unprepared path, for NOPE_THREADS in {1, 2, 7}, and the prepared key
// Setup returns is the one PrepareVerifyingKey builds.
#include <gtest/gtest.h>

#include <vector>

#include "src/base/mutator.h"
#include "src/base/threadpool.h"
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

// p == 3 (mod 4) square root in Fp2 (mirrors the proof decoder's helper).
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

G2 CofactorTorsionPoint(Rng* rng) {
  for (;;) {
    Fp2 x{Fq::Random(rng), Fq::Random(rng)};
    Fp2 rhs = x.Square() * x + Bn254G2Config::B();
    Fp2 y;
    if (!SqrtFp2(rhs, &y) || y.IsZero()) {
      continue;
    }
    G2 t = G2::FromAffine(x, y).ScalarMul(Bn254Order());
    if (!t.IsInfinity()) {
      return t;
    }
  }
}

// Shared expensive fixture: one setup, four valid (statement, proof) pairs.
// Verification runs against the prepared key Setup returns (pk.pvk).
struct Fixture {
  groth16::ProvingKey pk;
  std::vector<groth16::BatchEntry> valid;  // one per statement
  G2 torsion;                              // reusable out-of-subgroup offset

  Fixture() {
    Rng rng(8801);
    // w^3 + w + 5 = x for (w, x) pairs below; same circuit shape, so one
    // Setup serves all four statements.
    const std::pair<uint64_t, uint64_t> kStatements[] = {
        {3, 35}, {2, 15}, {4, 73}, {5, 135}};
    ConstraintSystem shape = CubicCircuit(3, 35);
    pk = groth16::Setup(shape, &rng);
    for (auto [w, x] : kStatements) {
      ConstraintSystem cs = CubicCircuit(w, x);
      groth16::BatchEntry e;
      e.proof = groth16::Prove(pk, cs, &rng);
      e.public_inputs = {Fr::FromU64(x)};
      valid.push_back(std::move(e));
    }
    torsion = CofactorTorsionPoint(&rng);
  }
};

Fixture& fixture() {
  static Fixture* f = new Fixture();
  return *f;
}

// One mutated batch member, seeded from `rng`. Structural mutants dominate
// (they exercise the cheap reject path); semantic mutants (valid points,
// wrong equation) force the combined-check-plus-fallback path.
groth16::BatchEntry MutantEntry(Rng* rng, Mutator* mutator) {
  Fixture& f = fixture();
  const groth16::BatchEntry& base =
      f.valid[rng->NextU64() % f.valid.size()];
  groth16::BatchEntry e = base;
  switch (rng->NextU64() % 10) {
    case 0:  // valid as-is
      break;
    case 1:  // wrong public input (semantic: pairing check fails)
      e.public_inputs = {Fr::FromU64(rng->NextU64() % 1000 + 1000)};
      break;
    case 2: {  // cross-statement swap (semantic)
      const groth16::BatchEntry& other =
          f.valid[rng->NextU64() % f.valid.size()];
      e.public_inputs = other.public_inputs;
      break;
    }
    case 3:  // infinity A (structural)
      e.proof.a = G1::Infinity();
      break;
    case 4:  // infinity B (structural)
      e.proof.b = G2::Infinity();
      break;
    case 5:  // infinity C (structural)
      e.proof.c = G1::Infinity();
      break;
    case 6:  // off-curve A, bypassing the parser (structural)
      e.proof.a.x = e.proof.a.x + Fq::One();
      break;
    case 7:  // on-curve, out-of-subgroup B (structural)
      e.proof.b = e.proof.b.Add(f.torsion);
      break;
    case 8:  // wrong arity (structural)
      e.public_inputs.push_back(Fr::One());
      break;
    case 9: {  // parse-level mutant of the wire bytes
      Bytes mutated = mutator->Mutate(base.proof.ToBytes());
      Result<groth16::Proof> decoded = groth16::Proof::TryFromBytes(mutated);
      if (decoded.ok()) {
        // Survived the strict decoder: valid points, (almost surely) wrong
        // proof — the semantic path.
        e.proof = decoded.value();
      } else {
        // Decoder already rejects these bytes; the batch-level stand-in is
        // a tampered-but-decodable proof (group op on A).
        e.proof.a = e.proof.a.Double();
      }
      break;
    }
  }
  return e;
}

TEST(BatchVerifyHarness, AgreesWithMemberwiseVerifyAcross1000Batches) {
  Fixture& f = fixture();
  Mutator mutator(8901);
  Rng rng(8902);
  constexpr int kBatches = 1000;
  size_t all_ok_batches = 0, rejected_members = 0;
  for (int iter = 0; iter < kBatches; ++iter) {
    size_t n = 1 + rng.NextU64() % 4;
    std::vector<groth16::BatchEntry> batch;
    batch.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(MutantEntry(&rng, &mutator));
    }

    std::vector<size_t> expect_rejected;
    for (size_t i = 0; i < n; ++i) {
      if (!groth16::Verify(f.pk.pvk, batch[i].public_inputs, batch[i].proof)) {
        expect_rejected.push_back(i);
      }
    }

    Rng batch_rng(0xba7c4 ^ static_cast<uint64_t>(iter));
    groth16::BatchVerifyResult res =
        groth16::BatchVerify(f.pk.pvk, batch, &batch_rng);
    ASSERT_EQ(res.all_ok, expect_rejected.empty())
        << "batch " << iter << ": all_ok disagrees with member-wise Verify";
    ASSERT_EQ(res.rejected, expect_rejected) << "batch " << iter;
    all_ok_batches += res.all_ok ? 1 : 0;
    rejected_members += res.rejected.size();
  }
  // The harness must have exercised both sides meaningfully.
  EXPECT_GT(all_ok_batches, 10u);
  EXPECT_GT(rejected_members, 100u);
}

TEST(BatchVerifyHarness, EmptyBatchIsVacuouslyOk) {
  Fixture& f = fixture();
  Rng rng(8903);
  groth16::BatchVerifyResult res = groth16::BatchVerify(f.pk.pvk, {}, &rng);
  EXPECT_TRUE(res.all_ok);
  EXPECT_TRUE(res.rejected.empty());
}

TEST(BatchVerifyHarness, PreparedVerdictsIdenticalAcrossThreadCounts) {
  Fixture& f = fixture();
  // Verdict vector over a fixed seeded mutant set, recomputed under each
  // thread count: prepared and unprepared paths must agree bit for bit
  // (bool verdicts plus rejected index sets), independent of NOPE_THREADS.
  struct Recorded {
    std::vector<bool> prepared, unprepared;
    std::vector<std::vector<size_t>> batch_rejected;
  };
  std::vector<Recorded> runs;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{7}}) {
    ThreadPool::SetGlobalThreads(threads);
    Mutator mutator(8904);
    Rng rng(8905);
    Recorded rec;
    for (int iter = 0; iter < 40; ++iter) {
      groth16::BatchEntry e = MutantEntry(&rng, &mutator);
      rec.prepared.push_back(
          groth16::Verify(f.pk.pvk, e.public_inputs, e.proof));
      rec.unprepared.push_back(
          groth16::Verify(f.pk.vk(), e.public_inputs, e.proof));
      Rng batch_rng(0x7d ^ static_cast<uint64_t>(iter));
      rec.batch_rejected.push_back(
          groth16::BatchVerify(f.pk.pvk, {e}, &batch_rng).rejected);
    }
    runs.push_back(std::move(rec));
  }
  ThreadPool::SetGlobalThreads(0);
  for (size_t r = 0; r < runs.size(); ++r) {
    EXPECT_EQ(runs[r].prepared, runs[r].unprepared)
        << "prepared/unprepared verdicts diverged at thread run " << r;
    EXPECT_EQ(runs[r].prepared, runs[0].prepared)
        << "verdicts varied with thread count";
    EXPECT_EQ(runs[r].batch_rejected, runs[0].batch_rejected)
        << "batch rejections varied with thread count";
  }
}

TEST(BatchVerifyHarness, SetupCarriesThePreparedKey) {
  Fixture& f = fixture();
  // Setup's prepared key is exactly what PrepareVerifyingKey builds from the
  // plain key, line for line.
  groth16::PreparedVerifyingKey fresh = groth16::PrepareVerifyingKey(f.pk.vk());
  EXPECT_TRUE(f.pk.pvk.alpha_beta == fresh.alpha_beta);
  for (const auto& [a, b] : {std::pair{&f.pk.pvk.gamma_prep, &fresh.gamma_prep},
                             std::pair{&f.pk.pvk.delta_prep, &fresh.delta_prep}}) {
    EXPECT_FALSE(a->infinity);
    ASSERT_EQ(a->lines.size(), b->lines.size());
    for (size_t i = 0; i < a->lines.size(); ++i) {
      EXPECT_TRUE(a->lines[i].c0 == b->lines[i].c0 && a->lines[i].c1 == b->lines[i].c1 &&
                  a->lines[i].c2 == b->lines[i].c2)
          << "line " << i;
    }
  }
  for (const groth16::BatchEntry& e : f.valid) {
    EXPECT_TRUE(groth16::Verify(f.pk.pvk, e.public_inputs, e.proof));
  }
  groth16::Proof bad = f.valid[0].proof;
  bad.b = bad.b.Add(f.torsion);
  EXPECT_FALSE(groth16::Verify(f.pk.pvk, f.valid[0].public_inputs, bad));
}

}  // namespace
}  // namespace nope
