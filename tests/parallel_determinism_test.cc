// Cross-thread-count determinism: the parallel proving pipeline must return
// byte-identical results for every NOPE_THREADS value. Field elements are
// canonical (fully reduced Montgomery form), so any Fr mismatch or any
// Jacobian-coordinate mismatch in an MSM result indicates the chunk grid or
// merge order leaked the thread count. Sizes deliberately straddle the
// signed-affine kernel's fixed chunk grid of max(512, 8 * 2^(c-1)) points,
// the ParallelFor min-chunk sizes, and BatchInvert's 1024-element block
// grid; witness-shaped inputs run every part of MsmAffine's density split.
#include <gtest/gtest.h>

#include <functional>
#include <thread>
#include <vector>

#include "src/base/threadpool.h"
#include "src/ec/batch_affine.h"
#include "src/ec/bn254.h"
#include "src/ec/msm.h"
#include "src/groth16/groth16.h"
#include "tests/witness_mix.h"

namespace nope {
namespace {

std::vector<size_t> ThreadCounts() {
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) {
    hw = 1;
  }
  return {1, 2, 7, hw};
}

// Exact representation equality -- stricter than Equals(), which compares
// the group element modulo the Jacobian z factor.
bool FieldRepEq(const Fq& a, const Fq& b) { return a.limbs() == b.limbs(); }
bool FieldRepEq(const Fp2& a, const Fp2& b) {
  return FieldRepEq(a.c0, b.c0) && FieldRepEq(a.c1, b.c1);
}
template <typename Point>
bool PointRepEq(const Point& a, const Point& b) {
  return FieldRepEq(a.x, b.x) && FieldRepEq(a.y, b.y) && FieldRepEq(a.z, b.z);
}
template <typename Affine>
bool AffineRepEq(const Affine& a, const Affine& b) {
  if (a.infinity || b.infinity) {
    return a.infinity == b.infinity;
  }
  return FieldRepEq(a.x, b.x) && FieldRepEq(a.y, b.y);
}

class ParallelDeterminism : public ::testing::Test {
 protected:
  void TearDown() override { ThreadPool::SetGlobalThreads(0); }
};

TEST_F(ParallelDeterminism, MsmG1BitIdenticalAcrossThreadCounts) {
  Rng rng(4242);
  // 1500 spans multiple chunks of the kernel's fixed grid (the GLV path
  // doubles n, so 1500 becomes a 3000-point signed-affine instance).
  for (size_t n : {3u, 100u, 255u, 256u, 257u, 1500u}) {
    std::vector<G1> bases;
    std::vector<BigUInt> scalars;
    bases.reserve(n);
    scalars.reserve(n);
    G1 p = G1Generator();
    for (size_t i = 0; i < n; ++i) {
      bases.push_back(p);
      p = p.Add(G1Generator());
      scalars.push_back(BigUInt::RandomBelow(&rng, Bn254Order()));
    }
    ThreadPool::SetGlobalThreads(1);
    G1 reference = MsmAffine(BatchToAffine(bases), scalars);
    for (size_t t : ThreadCounts()) {
      ThreadPool::SetGlobalThreads(t);
      G1 got = MsmAffine(BatchToAffine(bases), scalars);
      EXPECT_TRUE(PointRepEq(reference, got)) << "n=" << n << " threads=" << t;
    }
  }
}

TEST_F(ParallelDeterminism, MsmG2BitIdenticalAcrossThreadCounts) {
  Rng rng(777);
  for (size_t n : {10u, 300u}) {
    std::vector<G2> bases;
    std::vector<BigUInt> scalars;
    G2 p = G2Generator();
    for (size_t i = 0; i < n; ++i) {
      bases.push_back(p);
      p = p.Add(G2Generator());
      scalars.push_back(BigUInt::RandomBelow(&rng, Bn254Order()));
    }
    ThreadPool::SetGlobalThreads(1);
    G2 reference = MsmAffine(BatchToAffine(bases), scalars);
    for (size_t t : ThreadCounts()) {
      ThreadPool::SetGlobalThreads(t);
      EXPECT_TRUE(PointRepEq(reference, MsmAffine(BatchToAffine(bases), scalars)))
          << "n=" << n << " threads=" << t;
    }
  }
}

// The signed-digit + GLV path specifically: affine bases straddling the
// signed kernel's chunk grid (512-point chunks at small c; the GLV expansion
// doubles the instance size on top).
TEST_F(ParallelDeterminism, MsmAffineGlvG1BitIdenticalAcrossThreadCounts) {
  Rng rng(60321);
  for (size_t n : {5u, 511u, 512u, 513u, 1500u}) {
    std::vector<G1> jac;
    std::vector<BigUInt> scalars;
    G1 p = G1Generator();
    for (size_t i = 0; i < n; ++i) {
      jac.push_back(p);
      p = p.Add(G1Generator());
      scalars.push_back(BigUInt::RandomBelow(&rng, Bn254Order()));
    }
    std::vector<G1Affine> bases = BatchToAffine(jac);
    ThreadPool::SetGlobalThreads(1);
    G1 reference = MsmAffine(bases, scalars);
    for (size_t t : ThreadCounts()) {
      ThreadPool::SetGlobalThreads(t);
      EXPECT_TRUE(PointRepEq(reference, MsmAffine(bases, scalars)))
          << "n=" << n << " threads=" << t;
    }
  }
}

// G2 runs the signed-digit kernel without the endomorphism; cover it (and
// the no-GLV MsmSignedAffine entry point) separately.
TEST_F(ParallelDeterminism, MsmSignedAffineG2BitIdenticalAcrossThreadCounts) {
  Rng rng(60322);
  for (size_t n : {10u, 600u}) {
    std::vector<G2> jac;
    std::vector<BigUInt> scalars;
    G2 p = G2Generator();
    for (size_t i = 0; i < n; ++i) {
      jac.push_back(p);
      p = p.Add(G2Generator());
      scalars.push_back(BigUInt::RandomBelow(&rng, Bn254Order()));
    }
    std::vector<G2Affine> bases = BatchToAffine(jac);
    std::vector<MsmScalar> limbs(n, MsmScalar{});
    for (size_t i = 0; i < n; ++i) {
      std::copy(scalars[i].limbs().begin(), scalars[i].limbs().end(), limbs[i].begin());
    }
    ThreadPool::SetGlobalThreads(1);
    G2 reference = MsmSignedAffine(bases, limbs);
    for (size_t t : ThreadCounts()) {
      ThreadPool::SetGlobalThreads(t);
      EXPECT_TRUE(PointRepEq(reference, MsmSignedAffine(bases, limbs)))
          << "n=" << n << " threads=" << t;
    }
  }
}

// Witness-shaped inputs through MsmAffine's density split: the classify
// pass, the short part, the GLV (G1) or full-length (G2) tail and the fixed
// part order must all be thread-count independent. At n = 60000 the short
// part (~18.6k scalars, c = 12) spans two 16384-point chunks.
template <typename Point>
void ExpectWitnessMixBitIdentical(const Point& gen, std::initializer_list<size_t> sizes,
                                  uint64_t seed) {
  for (size_t n : sizes) {
    std::vector<Point> jac;
    std::vector<BigUInt> scalars;
    WitnessMix(gen, n, seed + n, &jac, &scalars);
    const auto bases = BatchToAffine(jac);
    ThreadPool::SetGlobalThreads(1);
    Point reference = MsmAffine(bases, scalars);
    for (size_t t : ThreadCounts()) {
      ThreadPool::SetGlobalThreads(t);
      EXPECT_TRUE(PointRepEq(reference, MsmAffine(bases, scalars)))
          << "n=" << n << " threads=" << t;
    }
  }
}

TEST_F(ParallelDeterminism, WitnessShapedMsmG1BitIdenticalAcrossThreadCounts) {
  ExpectWitnessMixBitIdentical(G1Generator(), {65, 513, 4097, 60000}, 60323);
}

TEST_F(ParallelDeterminism, WitnessShapedMsmG2BitIdenticalAcrossThreadCounts) {
  ExpectWitnessMixBitIdentical(G2Generator(), {65, 513, 3000}, 60324);
}

// BatchToAffine's block grid (1024) is fixed, so conversion itself must be
// thread-count independent too -- Setup's affine tables depend on it.
TEST_F(ParallelDeterminism, BatchToAffineBitIdenticalAcrossThreadCounts) {
  std::vector<G1> jac;
  G1 p = G1Generator();
  for (size_t i = 0; i < 2500; ++i) {
    jac.push_back(p);
    p = p.Double();
  }
  ThreadPool::SetGlobalThreads(1);
  std::vector<G1Affine> reference = BatchToAffine(jac);
  for (size_t t : ThreadCounts()) {
    ThreadPool::SetGlobalThreads(t);
    std::vector<G1Affine> got = BatchToAffine(jac);
    ASSERT_EQ(reference.size(), got.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      ASSERT_TRUE(AffineRepEq(reference[i], got[i]))
          << "index=" << i << " threads=" << t;
    }
  }
}

TEST_F(ParallelDeterminism, FftFamilyBitIdenticalAcrossThreadCounts) {
  Rng rng(31337);
  for (size_t n : {6u, 8u, 9u, 2048u, 4096u, 3u << 11, 9u << 10}) {
    EvaluationDomain domain(n);
    std::vector<Fr> input(domain.size());
    for (auto& v : input) {
      v = Fr::Random(&rng);
    }
    using Transform =
        std::function<void(const EvaluationDomain&, std::vector<Fr>*)>;
    const Transform transforms[] = {
        [](const EvaluationDomain& d, std::vector<Fr>* a) { d.Fft(a); },
        [](const EvaluationDomain& d, std::vector<Fr>* a) { d.Ifft(a); },
        [](const EvaluationDomain& d, std::vector<Fr>* a) { d.CosetFft(a); },
        [](const EvaluationDomain& d, std::vector<Fr>* a) { d.CosetIfft(a); },
    };
    for (const Transform& op : transforms) {
      ThreadPool::SetGlobalThreads(1);
      std::vector<Fr> reference = input;
      op(domain, &reference);
      for (size_t t : ThreadCounts()) {
        ThreadPool::SetGlobalThreads(t);
        std::vector<Fr> got = input;
        op(domain, &got);
        ASSERT_EQ(reference.size(), got.size());
        for (size_t i = 0; i < reference.size(); ++i) {
          ASSERT_EQ(reference[i], got[i]) << "n=" << n << " threads=" << t
                                          << " index=" << i;
        }
      }
    }
  }
}

TEST_F(ParallelDeterminism, FftIfftRoundTrips) {
  Rng rng(5);
  EvaluationDomain domain(4096);
  std::vector<Fr> input(domain.size());
  for (auto& v : input) {
    v = Fr::Random(&rng);
  }
  std::vector<Fr> work = input;
  domain.Fft(&work);
  domain.Ifft(&work);
  for (size_t i = 0; i < input.size(); ++i) {
    ASSERT_EQ(input[i], work[i]) << "index=" << i;
  }

  // The Toy rotation's rung, 3 * 2^16: the forward transform's bytes match
  // across thread counts and the inverse returns the input.
  EvaluationDomain rung(3u << 16);
  ASSERT_EQ(rung.size(), 3u << 16);
  std::vector<Fr> coeffs(rung.size());
  for (auto& v : coeffs) {
    v = Fr::Random(&rng);
  }
  std::vector<Fr> reference;
  for (size_t t : {1u, 2u, 7u}) {
    ThreadPool::SetGlobalThreads(t);
    std::vector<Fr> evals = coeffs;
    rung.Fft(&evals);
    if (reference.empty()) {
      reference = evals;
    }
    for (size_t i = 0; i < evals.size(); ++i) {
      ASSERT_EQ(reference[i], evals[i]) << "threads=" << t << " index=" << i;
    }
    rung.Ifft(&evals);
    for (size_t i = 0; i < evals.size(); ++i) {
      ASSERT_EQ(coeffs[i], evals[i]) << "threads=" << t << " index=" << i;
    }
  }
}

TEST_F(ParallelDeterminism, BatchInvertBlockedMatchesSerial) {
  Rng rng(99);
  // BatchInvert inverts 1024-element blocks (BatchToAffine's grid): 100 is
  // one partial block, 2047 one full block and a partial one, 2048 two full
  // blocks, 5000 four full blocks and a partial one.
  for (size_t n : {100u, 2047u, 2048u, 5000u}) {
    std::vector<Fr> input(n);
    for (size_t i = 0; i < n; ++i) {
      input[i] = (i % 97 == 0) ? Fr::Zero() : Fr::Random(&rng);
    }
    ThreadPool::SetGlobalThreads(1);
    std::vector<Fr> reference = input;
    BatchInvert(&reference);
    // Semantics: zeros stay zero, everything else is inverted.
    for (size_t i = 0; i < n; ++i) {
      if (input[i].IsZero()) {
        ASSERT_TRUE(reference[i].IsZero());
      } else {
        ASSERT_EQ(input[i] * reference[i], Fr::One()) << "index=" << i;
      }
    }
    for (size_t t : ThreadCounts()) {
      ThreadPool::SetGlobalThreads(t);
      std::vector<Fr> got = input;
      BatchInvert(&got);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(reference[i], got[i]) << "n=" << n << " threads=" << t
                                        << " index=" << i;
      }
    }
  }
}

// End to end: a full Groth16 proof (seeded randomizers) must serialize to
// the same 128 bytes at every thread count.
TEST_F(ParallelDeterminism, ProveBytesIdenticalAcrossThreadCounts) {
  ConstraintSystem cs;
  Var pub = cs.AddPublicInput(Fr::FromU64(2));
  Fr acc_val = Fr::FromU64(2);
  Var acc = cs.AddWitness(acc_val);
  cs.EnforceEqual(LC(acc), LC(pub));
  for (size_t i = 1; i < 512; ++i) {
    Fr next_val = acc_val * acc_val;
    Var next = cs.AddWitness(next_val);
    cs.Enforce(LC(acc), LC(acc), LC(next));
    acc = next;
    acc_val = next_val;
  }

  Rng setup_rng(42);
  groth16::ProvingKey pk = groth16::Setup(cs, &setup_rng);

  ThreadPool::SetGlobalThreads(1);
  Rng prove_rng(7);
  Bytes reference = groth16::Prove(pk, cs, &prove_rng).ToBytes();
  for (size_t t : ThreadCounts()) {
    ThreadPool::SetGlobalThreads(t);
    Rng rng(7);
    groth16::Proof proof = groth16::Prove(pk, cs, &rng);
    EXPECT_EQ(reference, proof.ToBytes()) << "threads=" << t;
    EXPECT_TRUE(groth16::Verify(pk.vk(), {cs.ValueOf(1)}, proof));
  }
}

// Setup is also deterministic under a fixed seed: the query tables are
// element-independent fixed-base muls plus chunked power walks.
TEST_F(ParallelDeterminism, SetupQueryTablesIdenticalAcrossThreadCounts) {
  ConstraintSystem cs;
  Var pub = cs.AddPublicInput(Fr::FromU64(3));
  Fr acc_val = Fr::FromU64(3);
  Var acc = cs.AddWitness(acc_val);
  cs.EnforceEqual(LC(acc), LC(pub));
  for (size_t i = 1; i < 300; ++i) {
    Fr next_val = acc_val * acc_val;
    Var next = cs.AddWitness(next_val);
    cs.Enforce(LC(acc), LC(acc), LC(next));
    acc = next;
    acc_val = next_val;
  }

  ThreadPool::SetGlobalThreads(1);
  Rng rng_ref(1234);
  groth16::ProvingKey reference = groth16::Setup(cs, &rng_ref);
  for (size_t t : ThreadCounts()) {
    ThreadPool::SetGlobalThreads(t);
    Rng rng(1234);
    groth16::ProvingKey got = groth16::Setup(cs, &rng);
    ASSERT_EQ(reference.a_query.size(), got.a_query.size());
    for (size_t i = 0; i < reference.a_query.size(); ++i) {
      ASSERT_TRUE(AffineRepEq(reference.a_query[i], got.a_query[i]))
          << "a_query[" << i << "] threads=" << t;
    }
    ASSERT_EQ(reference.h_query.size(), got.h_query.size());
    for (size_t i = 0; i < reference.h_query.size(); ++i) {
      ASSERT_TRUE(AffineRepEq(reference.h_query[i], got.h_query[i]))
          << "h_query[" << i << "] threads=" << t;
    }
    for (size_t i = 0; i < reference.l_query.size(); ++i) {
      ASSERT_TRUE(AffineRepEq(reference.l_query[i], got.l_query[i]))
          << "l_query[" << i << "] threads=" << t;
    }
  }
}

}  // namespace
}  // namespace nope
