// Prints FNV-1a digests of (a) a seeded 512-point G1 MSM's affine result,
// (b) a seeded Groth16 proof's 128-byte encoding, (c) a seeded chain of
// FFTs, (d) seeded witness-shaped G1 and G2 MSMs (tests/witness_mix.h:
// mostly zero and one scalars, so every part of MsmAffine's density split
// runs), (e) seeded P-256 keys, RFC 6979 signatures and verdicts, (f) a
// seeded prepared key's public-input sums, (g) every point of a seeded
// Groth16 Setup, affine, and (h) a seeded chain of FFTs on a 9 * 2^10
// domain, which runs both radix-3 stages. (e), (f) and (g) run on tables
// built by BatchToAffine: the odd multiples of P-256's generator, the
// prepared key's IC tables and Setup's generator tables. Not a gtest: ci.sh
// runs this binary under different NOPE_SIMD / NOPE_THREADS environments and
// diffs the stdout, pinning the cross-process determinism contract (proof and
// transform bytes bit-identical across SIMD backends and thread counts).
// The env is read once per process, so the comparison must span processes.
// Every build and backend prints
//   msm_digest=c31aa84fae27c583
//   proof_digest=8706f4e88de61cdd
//   fft_digest=b8b5a41a944a3c13
//   witness_msm_digest=422eb994f89fcbc6
//   ecdsa_digest=3e5d18f1239d01f3
//   ic_digest=b2beb92e028cc3c0
//   setup_digest=c320321d229d593b
//   radix3_digest=f730498b21b4e597
#include <cstdint>
#include <cstdio>

#include "src/ec/batch_affine.h"
#include "src/ec/msm.h"
#include "src/groth16/groth16.h"
#include "src/sig/ecdsa.h"
#include "tests/witness_mix.h"

namespace nope {
namespace {

uint64_t Fnv1a(const uint8_t* data, size_t n, uint64_t h = 0xcbf29ce484222325ull) {
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ data[i]) * 0x100000001b3ull;
  }
  return h;
}

uint64_t MsmDigest() {
  Rng rng(424242);
  const size_t n = 512;
  std::vector<G1> bases(n);
  std::vector<BigUInt> scalars(n);
  G1 acc = G1Generator();
  for (size_t i = 0; i < n; ++i) {
    bases[i] = acc;
    acc = acc.Double().Add(G1Generator());
    scalars[i] = BigUInt::RandomBelow(&rng, Fr::params().modulus_big);
  }
  G1Affine res = MsmAffine(BatchToAffine(bases), scalars).ToAffine();
  Bytes enc = res.x.ToBigUInt().ToBytes(32);
  Bytes enc_y = res.y.ToBigUInt().ToBytes(32);
  uint64_t h = Fnv1a(enc.data(), enc.size());
  h = Fnv1a(enc_y.data(), enc_y.size(), h);
  return h;
}

uint64_t FieldDigest(const Fq& v, uint64_t h) {
  Bytes enc = v.ToBigUInt().ToBytes(32);
  return Fnv1a(enc.data(), enc.size(), h);
}
uint64_t FieldDigest(const Fp2& v, uint64_t h) {
  return FieldDigest(v.c1, FieldDigest(v.c0, h));
}

template <typename Point>
uint64_t WitnessMsmDigest(const Point& gen, size_t n, uint64_t seed, uint64_t h) {
  std::vector<Point> jac;
  std::vector<BigUInt> scalars;
  WitnessMix(gen, n, seed, &jac, &scalars);
  auto res = MsmAffine(BatchToAffine(jac), scalars).ToAffine();
  return FieldDigest(res.y, FieldDigest(res.x, h));
}

uint64_t WitnessMsmDigest() {
  uint64_t h = WitnessMsmDigest(G1Generator(), 4097, 5150, 0xcbf29ce484222325ull);
  return WitnessMsmDigest(G2Generator(), 513, 5151, h);
}

uint64_t ProofDigest() {
  ConstraintSystem cs;
  Var x = cs.AddPublicInput(Fr::FromU64(35));
  Var w = cs.AddWitness(Fr::FromU64(3));
  Fr w_fr = Fr::FromU64(3);
  Var w2 = cs.AddWitness(w_fr * w_fr);
  Var w3 = cs.AddWitness(w_fr * w_fr * w_fr);
  cs.Enforce(LC(w), LC(w), LC(w2));
  cs.Enforce(LC(w2), LC(w), LC(w3));
  cs.EnforceEqual(LC(w3) + LC(w) + LC::Constant(Fr::FromU64(5)), LC(x));

  Rng rng(98765);
  auto pk = groth16::Setup(cs, &rng);
  auto proof = groth16::Prove(pk, cs, &rng);
  if (!groth16::Verify(pk.vk(), {Fr::FromU64(35)}, proof)) {
    std::fprintf(stderr, "proof failed to verify\n");
    std::exit(2);
  }
  Bytes enc = proof.ToBytes();
  return Fnv1a(enc.data(), enc.size());
}

// A seeded chain Fft -> Ifft -> CosetFft -> CosetIfft on a domain of `size`
// points, digesting every transform's output (the round trips would
// otherwise hide a stage).
uint64_t TransformChainDigest(size_t size, uint64_t seed) {
  using Transform = void (EvaluationDomain::*)(std::vector<Fr>*, const CancellationToken*) const;
  Rng rng(seed);
  EvaluationDomain domain(size);
  std::vector<Fr> v(domain.size());
  for (Fr& x : v) {
    x = Fr::Random(&rng);
  }
  uint64_t h = 0xcbf29ce484222325ull;
  for (Transform t : {&EvaluationDomain::Fft, &EvaluationDomain::Ifft,
                      &EvaluationDomain::CosetFft, &EvaluationDomain::CosetIfft}) {
    (domain.*t)(&v, nullptr);
    for (const Fr& x : v) {
      Bytes enc = x.ToBigUInt().ToBytes(32);
      h = Fnv1a(enc.data(), enc.size(), h);
    }
  }
  return h;
}

// 2^12 points: its 2048-butterfly stages run the full-width batched twiddle
// multiplies that the proof digest's 6-point domain never reaches.
uint64_t FftDigest() { return TransformChainDigest(size_t{1} << 12, 314159); }

// 9 * 2^10 points: ten radix-2 stages, then radix-3 stages of span 2^10 and
// 3 * 2^10 with their batched twiddle and cube-root multiplies.
uint64_t Radix3Digest() { return TransformChainDigest(size_t{9} << 10, 220022); }

// Keys, signatures and verdicts on the message and on a corrupted copy.
uint64_t EcdsaDigest() {
  Rng rng(190019);
  uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < 24; ++i) {
    EcdsaKeyPair kp = GenerateEcdsaKey(&rng);
    Bytes msg = rng.NextBytes(48);
    EcdsaSignature sig = EcdsaSign(kp.priv, msg);
    Bytes bad = msg;
    bad[i] ^= 1;
    Bytes enc = kp.pub.Encode();
    AppendBytes(&enc, sig.Encode());
    enc.push_back(EcdsaVerify(kp.pub, msg, sig) ? 1 : 0);
    enc.push_back(EcdsaVerify(kp.pub, bad, sig) ? 1 : 0);
    h = Fnv1a(enc.data(), enc.size(), h);
  }
  return h;
}

// ic[0] + sum_j x_j ic[j+1] for an 8-input key, on inputs of every width:
// 0, 1, r - 1, 2^64 + 1, 2^128 - 1 and random full-width values.
uint64_t IcDigest() {
  Rng rng(190020);
  groth16::VerifyingKey vk{G1Generator(), G2Generator(), G2Generator(), G2Generator(), {}};
  for (int j = 0; j < 9; ++j) {
    vk.ic.push_back(G1Generator().ScalarMul(BigUInt::RandomBelow(&rng, Bn254Order())));
  }
  const groth16::PreparedVerifyingKey pvk = groth16::PrepareVerifyingKey(vk);
  const std::vector<Fr> special = {
      Fr::Zero(), Fr::One(), -Fr::One(), Fr::FromBigUInt((BigUInt(1) << 64) + BigUInt(1)),
      Fr::FromBigUInt((BigUInt(1) << 128) - BigUInt(1))};
  uint64_t h = 0xcbf29ce484222325ull;
  for (int round = 0; round < 4; ++round) {
    std::vector<Fr> x(8);
    for (size_t j = 0; j < x.size(); ++j) {
      x[j] = (j + round) % 3 == 0 ? Fr::Random(&rng) : special[(j + round) % special.size()];
    }
    G1Affine res = groth16::PreparedIcSum(pvk, x).ToAffine();
    h = FieldDigest(res.y, FieldDigest(res.x, h));
  }
  return h;
}

template <typename Config>
uint64_t PointDigest(const AffinePoint<Config>& p, uint64_t h) {
  const uint8_t infinity = p.infinity ? 1 : 0;
  return Fnv1a(&infinity, 1, FieldDigest(p.y, FieldDigest(p.x, h)));
}

template <typename Config>
uint64_t PointsDigest(const std::vector<AffinePoint<Config>>& points, uint64_t h) {
  for (const AffinePoint<Config>& p : points) {
    h = PointDigest(p, h);
  }
  return h;
}

// Every point of a seeded Setup, affine: the five query tables, the
// verifying key, beta_g1 and delta_g1, and the prepared key's IC tables.
// The circuit has 3 public inputs and a 384-point (3 * 2^7) domain; each
// chain factor y_i is zero in A and C, and the last link is zero in A and B.
uint64_t SetupDigest() {
  Rng rng(200020);
  ConstraintSystem cs;
  std::vector<Fr> inputs(3);
  std::vector<Var> pub;
  for (Fr& v : inputs) {
    v = Fr::Random(&rng);
    pub.push_back(cs.AddPublicInput(v));
  }
  for (size_t j = 0; j < pub.size(); ++j) {
    cs.Enforce(LC(pub[j]), LC(pub[j]), LC(cs.AddWitness(inputs[j] * inputs[j])));
  }
  Fr link = Fr::Random(&rng);
  Var x = cs.AddWitness(link);
  for (int i = 0; i < 300; ++i) {
    const Fr y = Fr::Random(&rng);
    link = link * y;
    Var next = cs.AddWitness(link);
    cs.Enforce(LC(x), LC(cs.AddWitness(y)), LC(next));
    x = next;
  }
  const groth16::ProvingKey pk = groth16::Setup(cs, &rng);
  uint64_t h = 0xcbf29ce484222325ull;
  for (const auto* query : {&pk.a_query, &pk.b_g1_query, &pk.l_query, &pk.h_query}) {
    h = PointsDigest(*query, h);
  }
  h = PointsDigest(pk.b_g2_query, h);
  const groth16::VerifyingKey& vk = pk.vk();
  for (const G1& p : {vk.alpha_g1, pk.beta_g1, pk.delta_g1}) {
    h = PointDigest(p.ToAffine(), h);
  }
  for (const G2& p : {vk.beta_g2, vk.gamma_g2, vk.delta_g2}) {
    h = PointDigest(p.ToAffine(), h);
  }
  for (const G1& p : vk.ic) {
    h = PointDigest(p.ToAffine(), h);
  }
  for (const FixedBaseTable<Bn254G1Config>& table : pk.pvk.ic_tables) {
    h = PointsDigest(table.points(), h);
  }
  return h;
}

}  // namespace
}  // namespace nope

int main() {
  // Backend name goes to stderr: stdout must be identical across backends
  // so ci.sh can diff it directly.
  std::fprintf(stderr, "backend=%s\n", nope::Fr::SimdBackendName());
  std::printf("msm_digest=%016llx\n",
              static_cast<unsigned long long>(nope::MsmDigest()));
  std::printf("proof_digest=%016llx\n",
              static_cast<unsigned long long>(nope::ProofDigest()));
  std::printf("fft_digest=%016llx\n",
              static_cast<unsigned long long>(nope::FftDigest()));
  std::printf("witness_msm_digest=%016llx\n",
              static_cast<unsigned long long>(nope::WitnessMsmDigest()));
  std::printf("ecdsa_digest=%016llx\n",
              static_cast<unsigned long long>(nope::EcdsaDigest()));
  std::printf("ic_digest=%016llx\n",
              static_cast<unsigned long long>(nope::IcDigest()));
  std::printf("setup_digest=%016llx\n",
              static_cast<unsigned long long>(nope::SetupDigest()));
  std::printf("radix3_digest=%016llx\n",
              static_cast<unsigned long long>(nope::Radix3Digest()));
  return 0;
}
