#include "src/groth16/groth16.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "src/base/threadpool.h"
#include "src/ec/msm.h"

namespace nope {
namespace groth16 {

namespace {

// --- Point compression ------------------------------------------------------

constexpr uint8_t kFlagInfinity = 0x80;
constexpr uint8_t kFlagOddY = 0x40;

bool SqrtFq(const Fq& a, Fq* out) {
  // BN254's p == 3 (mod 4).
  static const BigUInt exp = (Fq::params().modulus_big + BigUInt(1)) >> 2;
  Fq r = a.Pow(exp);
  if (r.Square() != a) {
    return false;
  }
  *out = r;
  return true;
}

bool SqrtFp2(const Fp2& a, Fp2* out) {
  if (a.IsZero()) {
    *out = Fp2::Zero();
    return true;
  }
  static const BigUInt exp1 = (Fq::params().modulus_big - BigUInt(3)) >> 2;  // (p-3)/4
  static const BigUInt exp2 = (Fq::params().modulus_big - BigUInt(1)) >> 1;  // (p-1)/2
  Fp2 a1 = a.Pow(exp1);
  Fp2 x0 = a1 * a;
  Fp2 alpha = a1 * x0;
  Fp2 x;
  Fp2 minus_one = -Fp2::One();
  if (alpha == minus_one) {
    Fp2 u{Fq::Zero(), Fq::One()};
    x = x0 * u;
  } else {
    Fp2 b = (alpha + Fp2::One()).Pow(exp2);
    x = b * x0;
  }
  if (x.Square() != a) {
    return false;
  }
  *out = x;
  return true;
}

bool OddParityFq(const Fq& y) { return y.ToBigUInt().Bit(0); }

bool OddParityFp2(const Fp2& y) {
  if (!y.c0.IsZero()) {
    return OddParityFq(y.c0);
  }
  return OddParityFq(y.c1);
}

Bytes EncodeG1(const G1& p) {
  Bytes out(32, 0);
  auto aff = p.ToAffine();
  if (aff.infinity) {
    out[0] = kFlagInfinity;
    return out;
  }
  out = aff.x.ToBigUInt().ToBytes(32);
  if (OddParityFq(aff.y)) {
    out[0] |= kFlagOddY;
  }
  return out;
}

// Canonical infinity is the flag byte alone: every other bit must be zero,
// otherwise distinct byte strings would decode to the same point.
bool IsCanonicalInfinity(const Bytes& bytes) {
  if (bytes[0] != kFlagInfinity) {
    return false;
  }
  for (size_t i = 1; i < bytes.size(); ++i) {
    if (bytes[i] != 0) {
      return false;
    }
  }
  return true;
}

// Decodes a 32-byte big-endian field element whose top two bits are flag
// bits. Rejects non-canonical values >= p (Fq::FromBigUInt would silently
// reduce them, making the encoding non-injective).
Result<Fq> TryDecodeFq(Bytes bytes, const char* what) {
  bytes[0] &= 0x3f;
  BigUInt v = BigUInt::FromBytes(bytes);
  if (!(v < Fq::params().modulus_big)) {
    return Error(ErrorCode::kOutOfRange,
                 std::string(what) + " coordinate not reduced mod p");
  }
  return Fq::FromBigUInt(v);
}

Result<G1> TryDecodeG1(const Bytes& bytes, const char* what) {
  if (bytes.size() != 32) {
    return Error(ErrorCode::kBadLength,
                 std::string(what) + ": G1 encoding must be 32 bytes");
  }
  if (bytes[0] & kFlagInfinity) {
    if (!IsCanonicalInfinity(bytes)) {
      return Error(ErrorCode::kBadEncoding,
                   std::string(what) + ": non-canonical G1 infinity");
    }
    return G1::Infinity();
  }
  bool odd = (bytes[0] & kFlagOddY) != 0;
  NOPE_ASSIGN_OR_RETURN(Fq x, TryDecodeFq(bytes, what));
  Fq rhs = x.Square() * x + Fq::FromU64(3);
  Fq y;
  if (!SqrtFq(rhs, &y)) {
    return Error(ErrorCode::kNotOnCurve,
                 std::string(what) + ": G1 x-coordinate not on curve");
  }
  if (y.IsZero() && odd) {
    return Error(ErrorCode::kBadEncoding,
                 std::string(what) + ": odd-parity flag on two-torsion point");
  }
  if (OddParityFq(y) != odd) {
    y = -y;
  }
  return G1::FromAffine(x, y);
}

Bytes EncodeG2(const G2& p) {
  Bytes out(64, 0);
  auto aff = p.ToAffine();
  if (aff.infinity) {
    out[0] = kFlagInfinity;
    return out;
  }
  Bytes c1 = aff.x.c1.ToBigUInt().ToBytes(32);
  Bytes c0 = aff.x.c0.ToBigUInt().ToBytes(32);
  std::copy(c1.begin(), c1.end(), out.begin());
  std::copy(c0.begin(), c0.end(), out.begin() + 32);
  if (OddParityFp2(aff.y)) {
    out[0] |= kFlagOddY;
  }
  return out;
}

Result<G2> TryDecodeG2(const Bytes& bytes, const char* what) {
  if (bytes.size() != 64) {
    return Error(ErrorCode::kBadLength,
                 std::string(what) + ": G2 encoding must be 64 bytes");
  }
  if (bytes[0] & kFlagInfinity) {
    if (!IsCanonicalInfinity(bytes)) {
      return Error(ErrorCode::kBadEncoding,
                   std::string(what) + ": non-canonical G2 infinity");
    }
    return G2::Infinity();
  }
  Bytes c1b(bytes.begin(), bytes.begin() + 32);
  Bytes c0b(bytes.begin() + 32, bytes.end());
  bool odd = (c1b[0] & kFlagOddY) != 0;
  NOPE_ASSIGN_OR_RETURN(Fq xc1, TryDecodeFq(c1b, what));
  if (c0b[0] & 0xc0) {
    return Error(ErrorCode::kBadEncoding,
                 std::string(what) + ": flag bits set in G2 x.c0 limb");
  }
  NOPE_ASSIGN_OR_RETURN(Fq xc0, TryDecodeFq(c0b, what));
  Fp2 x{xc0, xc1};
  Fp2 rhs = x.Square() * x + Bn254G2Config::B();
  Fp2 y;
  if (!SqrtFp2(rhs, &y)) {
    return Error(ErrorCode::kNotOnCurve,
                 std::string(what) + ": G2 x-coordinate not on curve");
  }
  if (y.IsZero() && odd) {
    return Error(ErrorCode::kBadEncoding,
                 std::string(what) + ": odd-parity flag on two-torsion point");
  }
  if (OddParityFp2(y) != odd) {
    y = -y;
  }
  return G2::FromAffine(x, y);
}

// --- Helpers ----------------------------------------------------------------

// Minimum elements per parallel share for the element-independent loops
// below; each element's value is canonical, so partitioning never changes
// output bytes.
constexpr size_t kProveMinChunk = 256;

// Montgomery -> standard-form limbs for the MSMs. The conversion is one
// Montgomery multiply by 1 per element, so it batches through the SIMD
// backend (Fr::ToStdLimbsBatch); values are canonical either way, so output
// bytes cannot depend on the backend or the partitioning.
std::vector<MsmScalar> ToStdLimbs(std::span<const Fr> values, const CancellationToken* cancel) {
  const size_t count = values.size();
  std::vector<MsmScalar> out(count);
  ThreadPool::Global().ParallelFor(
      0, count, ThreadPool::ComputeMinChunk(count, kProveMinChunk),
      [&](size_t lo, size_t hi) {
        Fr::ToStdLimbsBatch(&values[lo], &out[lo], hi - lo);
      },
      cancel);
  return out;
}

MsmScalar ToStdLimbs(const Fr& value) {
  MsmScalar out{};
  Fr::ToStdLimbsBatch(&value, &out, 1);
  return out;
}

Fr RandomNonZero(Rng* rng) {
  while (true) {
    Fr v = Fr::Random(rng);
    if (!v.IsZero()) {
      return v;
    }
  }
}

}  // namespace

Bytes Proof::ToBytes() const {
  Bytes out = EncodeG1(a);
  Bytes bb = EncodeG2(b);
  Bytes cb = EncodeG1(c);
  AppendBytes(&out, bb);
  AppendBytes(&out, cb);
  return out;
}

Result<Proof> Proof::TryFromBytes(const Bytes& bytes) {
  if (bytes.size() != 128) {
    return Error(ErrorCode::kBadLength, "Groth16 proof must be 128 bytes");
  }
  Proof p;
  NOPE_ASSIGN_OR_RETURN(p.a,
                        TryDecodeG1(Bytes(bytes.begin(), bytes.begin() + 32), "proof A"));
  NOPE_ASSIGN_OR_RETURN(
      p.b, TryDecodeG2(Bytes(bytes.begin() + 32, bytes.begin() + 96), "proof B"));
  NOPE_ASSIGN_OR_RETURN(p.c,
                        TryDecodeG1(Bytes(bytes.begin() + 96, bytes.end()), "proof C"));
  // G1 has cofactor 1, so A and C are in-group by the curve check above. B
  // lives on the twist with a large cofactor; confirm order-r membership
  // before it ever reaches a pairing.
  if (!G2InSubgroup(p.b)) {
    return Error(ErrorCode::kNotInSubgroup, "proof B outside the r-order subgroup");
  }
  return p;
}

ProvingKey Setup(const ConstraintSystem& cs, Rng* rng) {
  if (cs.mode() != ConstraintSystem::Mode::kCount && !cs.IsSatisfied()) {
    // Setup does not strictly need a satisfying assignment, but an
    // unsatisfied system at setup time almost always indicates a gadget bug;
    // fail fast with context.
    size_t bad = 0;
    cs.IsSatisfied(&bad);
    throw std::invalid_argument("Setup: assignment violates constraint " + std::to_string(bad));
  }
  if (cs.mode() == ConstraintSystem::Mode::kCount) {
    throw std::invalid_argument("Setup requires a materialized (kProve) constraint system");
  }

  size_t num_public = cs.NumPublic();
  size_t num_vars = cs.NumVariables();
  size_t num_constraints = cs.NumConstraints();
  EvaluationDomain domain(num_constraints + num_public);

  Fr tau = RandomNonZero(rng);
  Fr alpha = RandomNonZero(rng);
  Fr beta = RandomNonZero(rng);
  Fr gamma = RandomNonZero(rng);
  Fr delta = RandomNonZero(rng);
  Fr gamma_inv = gamma.Inverse();
  Fr delta_inv = delta.Inverse();

  std::vector<Fr> lag = domain.LagrangeAt(tau);

  std::vector<Fr> a_tau(num_vars, Fr::Zero());
  std::vector<Fr> b_tau(num_vars, Fr::Zero());
  std::vector<Fr> c_tau(num_vars, Fr::Zero());
  const auto& constraints = cs.constraints();
  for (size_t j = 0; j < constraints.size(); ++j) {
    for (const auto& [v, coeff] : constraints[j].a.terms()) {
      a_tau[v] = a_tau[v] + coeff * lag[j];
    }
    for (const auto& [v, coeff] : constraints[j].b.terms()) {
      b_tau[v] = b_tau[v] + coeff * lag[j];
    }
    for (const auto& [v, coeff] : constraints[j].c.terms()) {
      c_tau[v] = c_tau[v] + coeff * lag[j];
    }
  }
  // Input-consistency rows: public variable i is pinned to evaluation point
  // num_constraints + i (libsnark's QAP padding), preventing malleation of
  // public inputs into the witness.
  for (size_t i = 0; i < num_public; ++i) {
    a_tau[i] = a_tau[i] + lag[num_constraints + i];
  }

  // Hundreds of thousands of multiplications per generator: 8-bit windows,
  // 4,224 points per table and ~32 mixed additions per multiplication.
  const FixedBaseTable<Bn254G1Config> t1(G1Generator(), 8);
  const FixedBaseTable<Bn254G2Config> t2(G2Generator(), 8);

  ProvingKey pk;
  pk.num_public = num_public;
  pk.num_constraints = num_constraints;

  VerifyingKey vk;
  vk.alpha_g1 = t1.Mul(ToStdLimbs(alpha));
  vk.beta_g2 = t2.Mul(ToStdLimbs(beta));
  vk.gamma_g2 = t2.Mul(ToStdLimbs(gamma));
  vk.delta_g2 = t2.Mul(ToStdLimbs(delta));
  pk.beta_g1 = t1.Mul(ToStdLimbs(beta));
  pk.delta_g1 = t1.Mul(ToStdLimbs(delta));

  // The query tables are hundreds of thousands of independent fixed-base
  // multiplications; each slot is written exactly once, so any partition
  // yields identical tables.
  // Query tables are built as Jacobian temporaries (the fixed-base table
  // yields Jacobian points), then converted to affine in one batched pass
  // each -- the representation the MSM kernel consumes.
  ThreadPool& pool = ThreadPool::Global();
  constexpr size_t kSetupMinChunk = 64;
  std::vector<G1> a_jac(num_vars);
  std::vector<G1> b_g1_jac(num_vars);
  std::vector<G2> b_g2_jac(num_vars);
  pool.ParallelFor(0, num_vars,
                   ThreadPool::ComputeMinChunk(num_vars, kSetupMinChunk),
                   [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const MsmScalar b = ToStdLimbs(b_tau[i]);
      a_jac[i] = t1.Mul(ToStdLimbs(a_tau[i]));
      b_g1_jac[i] = t1.Mul(b);
      b_g2_jac[i] = t2.Mul(b);
    }
  });
  pk.a_query = BatchToAffine(a_jac);
  pk.b_g1_query = BatchToAffine(b_g1_jac);
  pk.b_g2_query = BatchToAffine(b_g2_jac);

  vk.ic.reserve(num_public);
  for (size_t i = 0; i < num_public; ++i) {
    Fr k = (beta * a_tau[i] + alpha * b_tau[i] + c_tau[i]) * gamma_inv;
    vk.ic.push_back(t1.Mul(ToStdLimbs(k)));
  }
  pk.pvk = PrepareVerifyingKey(vk);
  std::vector<G1> l_jac(num_vars - num_public);
  pool.ParallelFor(num_public, num_vars,
                   ThreadPool::ComputeMinChunk(num_vars - num_public,
                                               kSetupMinChunk),
                   [&](size_t lo, size_t hi) {
                     for (size_t i = lo; i < hi; ++i) {
                       Fr k = (beta * a_tau[i] + alpha * b_tau[i] + c_tau[i]) *
                              delta_inv;
                       l_jac[i - num_public] = t1.Mul(ToStdLimbs(k));
                     }
                   });
  pk.l_query = BatchToAffine(l_jac);

  Fr z_tau = domain.EvaluateVanishing(tau);
  Fr h_base = z_tau * delta_inv;
  std::vector<G1> h_jac(domain.size() - 1);
  pool.ParallelFor(0, domain.size() - 1,
                   ThreadPool::ComputeMinChunk(domain.size() - 1,
                                               kSetupMinChunk),
                   [&](size_t lo, size_t hi) {
                     Fr power =
                         h_base * tau.Pow(BigUInt(static_cast<uint64_t>(lo)));
                     for (size_t i = lo; i < hi; ++i) {
                       h_jac[i] = t1.Mul(ToStdLimbs(power));
                       power = power * tau;
                     }
                   });
  pk.h_query = BatchToAffine(h_jac);
  return pk;
}

ProveResult Prove(const ProvingKey& pk, const ConstraintSystem& circuit,
                  std::span<const Fr> assignment, Rng* rng, const CancellationToken& cancel,
                  const ProveStageHooks* hooks) {
  // Stage timing is observation-only: it draws on the hook's clock, never on
  // the Rng, and a disabled hook costs two branches per stage.
  const bool timed = hooks != nullptr && hooks->on_stage != nullptr;
  uint64_t stage_start = timed && hooks->clock != nullptr ? hooks->clock->NowMs() : 0;
  auto stage_done = [&](const char* stage) {
    if (!timed) {
      return;
    }
    uint64_t now = hooks->clock != nullptr ? hooks->clock->NowMs() : 0;
    hooks->on_stage(stage, now - stage_start);
    stage_start = now;
  };
  auto fail = [](ErrorCode code, const std::string& context) {
    return ProveResult{Status(code, "Prove: " + context), Proof{}};
  };
  auto cancelled = [&] { return fail(ErrorCode::kCancelled, "the token fired"); };

  if (circuit.mode() != ConstraintSystem::Mode::kProve) {
    return fail(ErrorCode::kMissing, "the circuit stores no matrices (kCount mode)");
  }
  // An expired deadline aborts before any linear-time work, so a hopeless
  // proving job costs near nothing.
  if (cancel.cancelled()) {
    return cancelled();
  }
  // The QAP rows and every MSM below are sized from the key, so a circuit
  // and a key whose shapes disagree stop here, before any work. (Public
  // inputs are wires, so wires - public cannot wrap.)
  const size_t wires = circuit.NumVariables();
  const struct {
    const char* what;
    size_t key;
    size_t circuit;
  } shapes[] = {
      {"A query length", pk.a_query.size(), wires},
      {"public input count", pk.num_public, circuit.NumPublic()},
      {"constraint count", pk.num_constraints, circuit.NumConstraints()},
      {"B-in-G1 query length", pk.b_g1_query.size(), wires},
      {"B-in-G2 query length", pk.b_g2_query.size(), wires},
      {"L query length", pk.l_query.size(), wires - circuit.NumPublic()},
  };
  for (const auto& shape : shapes) {
    if (shape.key != shape.circuit) {
      return fail(ErrorCode::kMismatch, std::string("key ") + shape.what + " is " +
                                            std::to_string(shape.key) + ", the circuit needs " +
                                            std::to_string(shape.circuit));
    }
  }
  if (assignment.size() != wires) {
    return fail(ErrorCode::kBadLength, "assignment has " + std::to_string(assignment.size()) +
                                           " values for " + std::to_string(wires) + " wires");
  }
  if (assignment[kOneVar] != Fr::One()) {
    return fail(ErrorCode::kMismatch, "assignment wire 0 (the constant one) is not 1");
  }
  EvaluationDomain domain(pk.num_constraints + pk.num_public);
  size_t n = domain.size();
  if (pk.h_query.size() != n - 1) {
    return fail(ErrorCode::kMismatch, "key H query length is " +
                                          std::to_string(pk.h_query.size()) +
                                          ", the circuit's domain needs " + std::to_string(n - 1));
  }

  std::vector<Fr> a_vals(n, Fr::Zero());
  std::vector<Fr> b_vals(n, Fr::Zero());
  std::vector<Fr> c_vals(n, Fr::Zero());
  // Satisfaction is checked on the row values the QAP needs anyway, so each
  // row is evaluated once. A share stops at its first violated row; the
  // smallest such row over all shares is the first overall, whatever the
  // partition.
  const auto& constraints = circuit.constraints();
  const size_t m = constraints.size();
  std::atomic<size_t> first_bad{m};
  ThreadPool& pool = ThreadPool::Global();
  pool.ParallelFor(0, m, ThreadPool::ComputeMinChunk(m, kProveMinChunk),
                   [&](size_t lo, size_t hi) {
    for (size_t j = lo; j < hi; ++j) {
      a_vals[j] = EvalLc(constraints[j].a, assignment);
      b_vals[j] = EvalLc(constraints[j].b, assignment);
      c_vals[j] = EvalLc(constraints[j].c, assignment);
      if (a_vals[j] * b_vals[j] != c_vals[j]) {
        size_t seen = first_bad.load();
        while (j < seen && !first_bad.compare_exchange_weak(seen, j)) {
        }
        return;
      }
    }
  }, &cancel);
  if (cancel.cancelled()) {
    return cancelled();
  }
  if (first_bad.load() != m) {
    return fail(ErrorCode::kMismatch,
                "assignment violates constraint " + std::to_string(first_bad.load()));
  }
  for (size_t i = 0; i < pk.num_public; ++i) {
    a_vals[pk.num_constraints + i] = assignment[i];
  }
  stage_done("witness");

  domain.Ifft(&a_vals, &cancel);
  domain.Ifft(&b_vals, &cancel);
  domain.Ifft(&c_vals, &cancel);
  domain.CosetFft(&a_vals, &cancel);
  domain.CosetFft(&b_vals, &cancel);
  domain.CosetFft(&c_vals, &cancel);
  if (cancel.cancelled()) {
    return cancelled();
  }
  stage_done("fft");
  Fr z_inv = domain.VanishingOnCoset().Inverse();
  std::vector<Fr> h(n);
  pool.ParallelFor(0, n, ThreadPool::ComputeMinChunk(n, kProveMinChunk),
                   [&](size_t lo, size_t hi) {
    for (size_t k = lo; k < hi; ++k) {
      h[k] = (a_vals[k] * b_vals[k] - c_vals[k]) * z_inv;
    }
  }, &cancel);
  domain.CosetIfft(&h, &cancel);
  if (cancel.cancelled()) {
    return cancelled();
  }
  stage_done("h_poly");

  std::vector<MsmScalar> z_all = ToStdLimbs(assignment, &cancel);
  std::vector<MsmScalar> h_scalars = ToStdLimbs({h.data(), n - 1}, &cancel);
  if (cancel.cancelled()) {
    return cancelled();
  }
  stage_done("scalars");

  // The Rng draws happen unconditionally past this point, so a quiet token
  // leaves the caller's Rng as a run without a token would.
  Fr r = Fr::Random(rng);
  Fr s = Fr::Random(rng);

  // The shape checks above pin every table length to its scalar count; L
  // takes the witness suffix of z_all.
  const size_t num_wit = wires - pk.num_public;
  G1 a = pk.vk().alpha_g1.Add(MsmAffine(pk.a_query, z_all.data(), wires, &cancel))
             .Add(pk.delta_g1.ScalarMul(r.ToBigUInt()));
  G2 b = pk.vk().beta_g2.Add(MsmAffine(pk.b_g2_query, z_all.data(), wires, &cancel))
             .Add(pk.vk().delta_g2.ScalarMul(s.ToBigUInt()));
  G1 b_g1 = pk.beta_g1.Add(MsmAffine(pk.b_g1_query, z_all.data(), wires, &cancel))
                .Add(pk.delta_g1.ScalarMul(s.ToBigUInt()));
  if (cancel.cancelled()) {
    return cancelled();
  }

  G1 c = MsmAffine(pk.l_query, z_all.data() + pk.num_public, num_wit, &cancel)
             .Add(MsmAffine(pk.h_query, h_scalars.data(), n - 1, &cancel))
             .Add(a.ScalarMul(s.ToBigUInt()))
             .Add(b_g1.ScalarMul(r.ToBigUInt()))
             .Add(pk.delta_g1.ScalarMul((r * s).ToBigUInt()).Negate());
  if (cancel.cancelled()) {
    return cancelled();
  }
  stage_done("msm");

  return ProveResult{Status::Ok(), Proof{a, b, c}};
}

Proof Prove(const ProvingKey& pk, const ConstraintSystem& cs, Rng* rng) {
  ProveResult result = Prove(pk, cs, cs.values(), rng, CancellationToken(), nullptr);
  if (!result.ok()) {
    throw std::invalid_argument(result.status.ToString());
  }
  return result.proof;
}

ProveResult Prove(const ProvingKey& pk, const ConstraintSystem& cs, Rng* rng,
                  const CancellationToken& cancel, const ProveStageHooks* hooks) {
  return Prove(pk, cs, cs.values(), rng, cancel, hooks);
}

namespace {

// The point-check contract shared by every Verify entry point (see the
// header). The parse path enforces the same rules, but a Proof constructed
// in-process bypasses it, so the verifier re-checks: an infinity A/B/C
// would trivialize its pairing factor (MillerLoop maps identity inputs to
// 1), and an out-of-subgroup B breaks bilinearity.
bool ProofPointsOk(const Proof& proof) {
  if (proof.a.IsInfinity() || proof.b.IsInfinity() || proof.c.IsInfinity()) {
    return false;
  }
  if (!proof.a.IsOnCurve() || !proof.c.IsOnCurve()) {
    return false;
  }
  return G2InSubgroup(proof.b);
}

// [IC]1 = ic[0] + sum_j x_j ic[j+1] for an unprepared key: one MSM.
G1 IcCombination(const VerifyingKey& vk, const std::vector<Fr>& public_inputs) {
  std::vector<G1> bases(vk.ic.begin() + 1, vk.ic.end());
  std::vector<MsmScalar> scalars = ToStdLimbs(public_inputs, nullptr);
  return vk.ic[0].Add(MsmAffine(BatchToAffine(bases), scalars.data(), scalars.size()));
}

}  // namespace

bool Verify(const VerifyingKey& vk, const std::vector<Fr>& public_inputs, const Proof& proof) {
  if (public_inputs.size() + 1 != vk.ic.size()) {
    return false;
  }
  if (!ProofPointsOk(proof)) {
    return false;
  }
  G1 ic = IcCombination(vk, public_inputs);

  // e(A, B) = e(alpha, beta) e(IC, gamma) e(C, delta).
  return PairingProductIsOne({{proof.a, proof.b},
                              {ic.Negate(), vk.gamma_g2},
                              {proof.c.Negate(), vk.delta_g2},
                              {vk.alpha_g1.Negate(), vk.beta_g2}});
}

size_t PreparedVerifyingKey::SizeBytes() const {
  size_t bytes = sizeof(*this) + vk.ic.capacity() * sizeof(G1) + gamma_prep.SizeBytes() +
                 delta_prep.SizeBytes();
  for (const FixedBaseTable<Bn254G1Config>& table : ic_tables) {
    bytes += table.SizeBytes();
  }
  return bytes;
}

PreparedVerifyingKey PrepareVerifyingKey(const VerifyingKey& vk) {
  PreparedVerifyingKey pvk;
  pvk.vk = vk;
  pvk.ic_tables.reserve(vk.ic.empty() ? 0 : vk.ic.size() - 1);
  for (size_t j = 1; j < vk.ic.size(); ++j) {
    pvk.ic_tables.emplace_back(vk.ic[j], 4);  // 4-bit windows: 520 points
  }
  pvk.gamma_prep = PrepareG2(vk.gamma_g2);
  pvk.delta_prep = PrepareG2(vk.delta_g2);
  pvk.alpha_beta = Pairing(vk.alpha_g1, vk.beta_g2);
  return pvk;
}

G1 PreparedIcSum(const PreparedVerifyingKey& pvk, const std::vector<Fr>& public_inputs) {
  NOPE_INVARIANT(public_inputs.size() + 1 == pvk.vk.ic.size(),
                 "PreparedIcSum: input count does not match the key");
  NOPE_INVARIANT(pvk.ic_tables.size() == public_inputs.size(),
                 "PreparedIcSum: the prepared key's IC tables do not match its key");
  std::vector<MsmScalar> scalars = ToStdLimbs(public_inputs, nullptr);
  G1 acc = G1::Infinity();
  for (size_t j = 0; j < scalars.size(); ++j) {
    acc = pvk.ic_tables[j].MulAdd(scalars[j], acc);
  }
  return pvk.vk.ic[0].Add(acc);
}

bool Verify(const PreparedVerifyingKey& pvk, const std::vector<Fr>& public_inputs,
            const Proof& proof) {
  if (public_inputs.size() + 1 != pvk.vk.ic.size()) {
    return false;
  }
  if (!ProofPointsOk(proof)) {
    return false;
  }
  G1 ic = PreparedIcSum(pvk, public_inputs);

  // e(A, B) e(-IC, gamma) e(-C, delta) = e(alpha, beta), the unprepared
  // equation with the constant factor moved to the right-hand side (exact
  // rearrangement: the final exponentiation is a homomorphism).
  G2Prepared b_prep = PrepareG2(proof.b);
  Fp12 f = MultiMillerLoop({{proof.a, &b_prep},
                            {ic.Negate(), &pvk.gamma_prep},
                            {proof.c.Negate(), &pvk.delta_prep}});
  return FinalExponentiation(f) == pvk.alpha_beta;
}

BatchVerifyResult BatchVerify(const PreparedVerifyingKey& pvk,
                              const std::vector<BatchEntry>& batch, Rng* rng) {
  BatchVerifyResult out;
  if (batch.empty()) {
    out.all_ok = true;
    return out;
  }

  // Structural pass: input arity and point membership per member. Offenders
  // are identified immediately and excluded from the combined check.
  std::vector<size_t> candidates;
  candidates.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].public_inputs.size() + 1 != pvk.vk.ic.size() ||
        !ProofPointsOk(batch[i].proof)) {
      out.rejected.push_back(i);
    } else {
      candidates.push_back(i);
    }
  }
  if (candidates.empty()) {
    return out;
  }

  // Random linear combination: raise member i's equation to z_i. Drawing
  // per-candidate keeps the draw sequence a pure function of (seed,
  // candidate count), so batches replay deterministically.
  std::vector<Fr> z(candidates.size());
  Fr z_sum = Fr::Zero();
  for (Fr& zi : z) {
    zi = RandomNonZero(rng);
    z_sum = z_sum + zi;
  }

  // Aggregate the fixed-G2 sides in the exponent (cheap Fr arithmetic), so
  // the whole batch pays one IC table sum, one C MSM and two prepared pairs
  // in the multi-Miller loop:
  //   prod_i e(A_i, B_i)^{z_i}
  //     = e(alpha, beta)^{sum z_i} e(sum z_i IC_i, gamma) e(sum z_i C_i, delta),
  // with sum z_i IC_i = (sum z_i) ic[0] + sum_j (sum_i z_i x_ij) ic[j+1]
  //                   = PreparedIcSum(sum_i z_i x_i) + (sum z_i - 1) ic[0].
  std::vector<Fr> ic_scalars(pvk.vk.ic.size() - 1, Fr::Zero());
  std::vector<G1> c_bases;
  c_bases.reserve(candidates.size());
  for (size_t k = 0; k < candidates.size(); ++k) {
    const BatchEntry& e = batch[candidates[k]];
    for (size_t j = 0; j < e.public_inputs.size(); ++j) {
      ic_scalars[j] = ic_scalars[j] + z[k] * e.public_inputs[j];
    }
    c_bases.push_back(e.proof.c);
  }
  std::vector<MsmScalar> z_limbs = ToStdLimbs(z, nullptr);
  G1 ic_agg = PreparedIcSum(pvk, ic_scalars)
                  .Add(pvk.vk.ic[0].ScalarMul((z_sum - Fr::One()).ToBigUInt()));
  G1 c_agg = MsmAffine(BatchToAffine(c_bases), z_limbs.data(), z_limbs.size());

  std::vector<G2Prepared> b_prep;
  b_prep.reserve(candidates.size());
  for (size_t i : candidates) {
    b_prep.push_back(PrepareG2(batch[i].proof.b));
  }
  std::vector<std::pair<G1, const G2Prepared*>> terms;
  terms.reserve(candidates.size() + 2);
  for (size_t k = 0; k < candidates.size(); ++k) {
    terms.push_back({batch[candidates[k]].proof.a.ScalarMul(z[k].ToBigUInt()), &b_prep[k]});
  }
  terms.push_back({ic_agg.Negate(), &pvk.gamma_prep});
  terms.push_back({c_agg.Negate(), &pvk.delta_prep});
  // e(alpha, beta) is a pairing value, so the cyclotomic power applies.
  bool combined = FinalExponentiation(MultiMillerLoop(terms)) ==
                  pvk.alpha_beta.CyclotomicPow(z_sum.ToBigUInt().Naf());

  if (combined) {
    // Completeness of the combined check is exact, so structural rejects
    // are the only possible offenders here.
    out.all_ok = out.rejected.empty();
    return out;
  }
  // The combined product failed: at least one member's equation is wrong.
  // Fall back to per-proof verification to name the offenders.
  for (size_t i : candidates) {
    if (!Verify(pvk, batch[i].public_inputs, batch[i].proof)) {
      out.rejected.push_back(i);
    }
  }
  std::sort(out.rejected.begin(), out.rejected.end());
  return out;
}

Proof RandomizeProof(const VerifyingKey& vk, const Proof& proof, Rng* rng) {
  // (A, B, C) -> (t A, t^{-1} B + t^{-1} r delta, C + r A') where A' = t A.
  Fr t = RandomNonZero(rng);
  Fr r = Fr::Random(rng);
  Fr t_inv = t.Inverse();
  G1 a2 = proof.a.ScalarMul(t.ToBigUInt());
  G2 b2 = proof.b.ScalarMul(t_inv.ToBigUInt())
              .Add(vk.delta_g2.ScalarMul((t_inv * r).ToBigUInt()));
  G1 c2 = proof.c.Add(proof.a.ScalarMul(r.ToBigUInt()));
  return Proof{a2, b2, c2};
}

}  // namespace groth16
}  // namespace nope
