// Micro-benchmarks for the §5 cryptography representations: constraint
// counts for modular multiplication, EC point operations, full ECDSA
// verification (256-bit vs. GLV), and RSA, at both P-256/RSA-2048 scale and
// the toy demo scale. Reproduces the §8.3 claims that NOPE's techniques cut
// ECDSA from ~17x RSA to 3-4x RSA.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/ec/batch_affine.h"
#include "src/r1cs/ecdsa_gadget.h"
#include "src/r1cs/rsa_gadget.h"
#include "src/r1cs/toy_curve.h"
#include "src/sig/rsa.h"

using namespace nope;

namespace {

const bench::Emitter emit("micro_crypto");

// --- Field-op throughput (scalar CIOS vs SIMD batch kernels) --------------

// Each measurement folds its results into a checksum that is printed at the
// end, so the optimizer cannot delete the timed loops.
uint64_t g_checksum = 0;

template <typename F>
void BenchFieldOps(const char* name) {
  constexpr size_t kN = 4096;     // elements per pass (fits in L1/L2)
  constexpr int kReps = 200;      // passes per timed measurement
  Rng rng(0xbe);
  std::vector<F> a(kN);
  std::vector<F> b(kN);
  std::vector<F> out(kN);
  for (size_t i = 0; i < kN; ++i) {
    a[i] = F::Random(&rng);
    b[i] = F::Random(&rng);
  }
  auto time_ns_per_op = [&](const char* op, double ops, auto body) {
    emit(std::string(name) + "_" + op, bench::TimeMs(body) * 1e6 / ops);
  };

  // Scalar multiply / square: element-at-a-time through the CIOS path.
  time_ns_per_op("mul_ns_scalar", double(kN) * kReps, [&] {
    for (int r = 0; r < kReps; ++r) {
      for (size_t i = 0; i < kN; ++i) {
        out[i] = a[i] * b[i];
      }
    }
  });
  g_checksum ^= out[kN - 1].limbs()[0];

  time_ns_per_op("sqr_ns_scalar", double(kN) * kReps, [&] {
    for (int r = 0; r < kReps; ++r) {
      for (size_t i = 0; i < kN; ++i) {
        out[i] = a[i].Square();
      }
    }
  });
  g_checksum ^= out[kN - 1].limbs()[0];

  // Batch multiply / square: whatever backend the process selected
  // (NOPE_SIMD env). With NOPE_SIMD=off these measure the batch-API
  // overhead over the scalar path.
  time_ns_per_op("mul_ns_simd", double(kN) * kReps, [&] {
    for (int r = 0; r < kReps; ++r) {
      F::MulBatch(a.data(), b.data(), out.data(), kN);
    }
  });
  g_checksum ^= out[kN - 1].limbs()[0];

  time_ns_per_op("sqr_ns_simd", double(kN) * kReps, [&] {
    for (int r = 0; r < kReps; ++r) {
      F::SquareBatch(a.data(), out.data(), kN);
    }
  });
  g_checksum ^= out[kN - 1].limbs()[0];

  // Single inversion (Fermat ladder), and the amortized per-element cost of
  // batch inversion, serial vs lane-parallel.
  constexpr size_t kInvN = 256;
  time_ns_per_op("inv_ns", double(kInvN), [&] {
    for (size_t i = 0; i < kInvN; ++i) {
      out[i] = a[i].Inverse();
    }
  });
  g_checksum ^= out[kInvN - 1].limbs()[0];

  constexpr int kInvReps = 50;
  std::vector<F> vals(kN);
  time_ns_per_op("batchinv_ns_scalar", double(kN) * kInvReps, [&] {
    for (int r = 0; r < kInvReps; ++r) {
      for (size_t i = 0; i < kN; ++i) {
        vals[i] = a[i];
      }
      batch_affine_detail::BatchInvertSerial(vals.data(), kN);
    }
  });
  g_checksum ^= vals[kN - 1].limbs()[0];

  time_ns_per_op("batchinv_ns_simd", double(kN) * kInvReps, [&] {
    for (int r = 0; r < kInvReps; ++r) {
      for (size_t i = 0; i < kN; ++i) {
        vals[i] = a[i];
      }
      BatchInvertField(&vals);
    }
  });
  g_checksum ^= vals[kN - 1].limbs()[0];
}

void BenchAllFields() {
  printf("\n=== Field-op throughput (backend=%s, lanes=%zu) ===\n",
         Fr::SimdBackendName(), Fr::SimdLanes());
  emit("simd_lanes", Fr::SimdLanes());
  BenchFieldOps<Fq>("fq");
  BenchFieldOps<Fr>("fr");
  BenchFieldOps<P256Fq>("p256fq");
  BenchFieldOps<P256Fn>("p256fn");
  printf("checksum: %016llx\n",
         static_cast<unsigned long long>(g_checksum));
}

size_t MulModCost(const BigUInt& q, bool naive) {
  ConstraintSystem cs;
  ModularGadget g(&cs, q);
  Rng rng(1);
  auto a = g.Alloc(BigUInt::RandomBelow(&rng, q));
  auto b = g.Alloc(BigUInt::RandomBelow(&rng, q));
  size_t before = cs.NumConstraints();
  if (naive) {
    g.NaiveMulMod(a, b);
  } else {
    g.MulMod(a, b);
  }
  return cs.NumConstraints() - before;
}

size_t EcAddCost(const CurveSpec& spec, EcGadget::Technique tech, bool doubling) {
  ConstraintSystem cs;
  EcGadget ec(&cs, spec, tech);
  NativeCurve curve(spec);
  auto p = ec.AllocPoint(curve.ScalarMul(BigUInt(5), curve.Generator()));
  auto q = ec.AllocPoint(curve.ScalarMul(BigUInt(9), curve.Generator()));
  size_t before = cs.NumConstraints();
  if (doubling) {
    ec.Double(p);
  } else {
    ec.Add(p, q);
  }
  return cs.NumConstraints() - before;
}

size_t EcdsaCost(const CurveSpec& spec, EcGadget::Technique tech, EcdsaMsmMode mode) {
  Rng rng(2);
  NativeCurve curve(spec);
  BigUInt priv = BigUInt::RandomBelow(&rng, spec.n - BigUInt(1)) + BigUInt(1);
  auto pub = curve.ScalarMul(priv, curve.Generator());
  Bytes digest = rng.NextBytes(31);
  ToyEcdsaSignature sig = ToyEcdsaSign(spec, priv, digest, &rng);

  ConstraintSystem cs(ConstraintSystem::Mode::kCount);
  EcGadget ec(&cs, spec, tech);
  auto pub_pt = ec.AllocPoint(pub);
  auto z = ec.scalar_field().Alloc(BigUInt::FromBytes(digest) % spec.n);
  auto r = ec.scalar_field().Alloc(sig.r);
  auto s = ec.scalar_field().Alloc(sig.s);
  EnforceEcdsaVerify(&ec, pub_pt, z, r, s, mode);
  return cs.NumConstraints();
}

size_t RsaCost(size_t bits, RsaTechnique tech) {
  Rng rng(3);
  RsaPrivateKey key = GenerateRsaKey(&rng, bits);
  Bytes digest = rng.NextBytes(32);
  Bytes sig = RsaSignDigest32(key, digest);
  ConstraintSystem cs(ConstraintSystem::Mode::kCount);
  ModularGadget g(&cs, key.pub.n);
  auto sig_num = g.Alloc(BigUInt::FromBytes(sig));
  std::vector<LC> digest_lcs;
  for (uint8_t b : digest) {
    digest_lcs.emplace_back(cs.AddWitness(Fr::FromU64(b)));
  }
  EnforceRsaVerify(&g, sig_num, BuildPkcs1Em(&g, digest_lcs), tech);
  return cs.NumConstraints();
}

}  // namespace

int main() {
  BenchAllFields();

  printf("\n=== Cryptography representations: constraint counts (paper §5, §8.3) ===\n\n");

  BigUInt p256 = CurveSpec::P256().p;
  printf("Modular multiplication (one mulmod):\n");
  printf("  %-24s %12s %12s %8s\n", "modulus", "naive", "NOPE", "ratio");
  struct ModCase {
    const char* label;
    BigUInt q;
  };
  Rng mod_rng(4);
  std::vector<ModCase> mods = {{"P-256 prime (256-bit)", p256},
                               {"RSA-2048 modulus",
                                GenerateRsaKey(&mod_rng, 2048).pub.n}};
  for (const auto& m : mods) {
    size_t naive = MulModCost(m.q, true);
    size_t fast = MulModCost(m.q, false);
    printf("  %-24s %12zu %12zu %7.1fx\n", m.label, naive, fast,
           static_cast<double>(naive) / fast);
  }

  CurveSpec p256_spec = CurveSpec::P256();
  CurveSpec toy = FindToyCurve(42);
  printf("\nEC point operations over P-256 (non-native field):\n");
  printf("  %-14s %12s %12s %8s\n", "operation", "naive", "NOPE hint", "ratio");
  for (bool doubling : {false, true}) {
    size_t naive = EcAddCost(p256_spec, EcGadget::Technique::kNaive, doubling);
    size_t hint = EcAddCost(p256_spec, EcGadget::Technique::kNopeHints, doubling);
    printf("  %-14s %12zu %12zu %7.1fx\n", doubling ? "point double" : "point add", naive, hint,
           static_cast<double>(naive) / hint);
  }

  printf("\nFull ECDSA verification (P-256 scale):\n");
  size_t ecdsa_naive = EcdsaCost(p256_spec, EcGadget::Technique::kNaive, EcdsaMsmMode::k256Msm);
  size_t ecdsa_256 = EcdsaCost(p256_spec, EcGadget::Technique::kNopeHints, EcdsaMsmMode::k256Msm);
  size_t ecdsa_glv = EcdsaCost(p256_spec, EcGadget::Technique::kNopeHints, EcdsaMsmMode::kGlvMsm);
  printf("  %-34s %12zu\n", "naive ops + 256-bit MSM", ecdsa_naive);
  printf("  %-34s %12zu\n", "NOPE hints + 256-bit MSM", ecdsa_256);
  printf("  %-34s %12zu\n", "NOPE hints + GLV 128-bit MSM", ecdsa_glv);
  printf("  MSM transform saving: %.2fx (paper App. C: ~2x)\n",
         static_cast<double>(ecdsa_256) / ecdsa_glv);
  printf("  total crypto saving:  %.1fx (paper: ~4.5x on ECDSA)\n",
         static_cast<double>(ecdsa_naive) / ecdsa_glv);

  printf("\nRSA-2048 verification:\n");
  size_t rsa_naive = RsaCost(2048, RsaTechnique::kNaive);
  size_t rsa_nope = RsaCost(2048, RsaTechnique::kNope);
  printf("  %-34s %12zu\n", "naive (schoolbook + per-op mod)", rsa_naive);
  printf("  %-34s %12zu\n", "NOPE (carry-polynomial congruence)", rsa_nope);

  printf("\nECDSA vs RSA (the paper's §8.3 headline):\n");
  printf("  naive ECDSA / naive RSA:  %5.1fx (paper: ~17x)\n",
         static_cast<double>(ecdsa_naive) / rsa_naive);
  printf("  NOPE ECDSA / NOPE RSA:    %5.1fx (paper: 3-4x)\n",
         static_cast<double>(ecdsa_glv) / rsa_nope);

  printf("\nToy demo scale (what the end-to-end pipeline proves):\n");
  printf("  ECDSA (GLV):  %zu constraints\n",
         EcdsaCost(toy, EcGadget::Technique::kNopeHints, EcdsaMsmMode::kGlvMsm));
  printf("  RSA-512:      %zu constraints\n", RsaCost(512, RsaTechnique::kNope));
  return 0;
}
