// Groth16 zkSNARK over BN254 — the paper's proving back-end (§2.3).
//
// Proofs are two G1 elements and one G2 element; compressed they serialize to
// exactly 128 bytes, the size the paper reports embedding in certificates.
// Verification is a four-pairing product check whose cost is independent of
// statement size.
//
// The trusted setup here is single-party: the toxic waste (tau, alpha, beta,
// gamma, delta) is sampled and dropped in-process. A production deployment
// would run an MPC ceremony, which the paper maps onto the DNSSEC root key
// ceremony.
#ifndef SRC_GROTH16_GROTH16_H_
#define SRC_GROTH16_GROTH16_H_

#include <functional>
#include <span>
#include <vector>

#include "src/base/cancellation.h"
#include "src/base/result.h"
#include "src/ec/bn254.h"
#include "src/ec/fixed_base.h"
#include "src/groth16/domain.h"
#include "src/r1cs/constraint_system.h"

namespace nope {
namespace groth16 {

struct Proof {
  G1 a;
  G2 b;
  G1 c;

  // Compressed encoding: 32 (A) + 64 (B) + 32 (C) = 128 bytes.
  Bytes ToBytes() const;

  // Strict decoder for untrusted bytes. Rejects non-canonical encodings
  // (field elements >= p, garbage under an infinity flag) and points off the
  // curve or, for B, outside the order-r subgroup, so decoding is injective:
  // a Proof that decodes successfully re-encodes to the identical 128 bytes.
  static Result<Proof> TryFromBytes(const Bytes& bytes);
};

struct VerifyingKey {
  G1 alpha_g1;
  G2 beta_g2;
  G2 gamma_g2;
  G2 delta_g2;
  std::vector<G1> ic;  // one per public variable, including the constant 1
};

// Precomputed verifier state for one verifying key. The G2 inputs of the
// pairing product that never change per deployment — gamma, delta — have
// their Miller-loop lines computed once here, and e(alpha, beta) is fully
// paired. A prepared verification is then one multi-Miller loop over
// (A, B) with B prepared on the spot and the two stored line sets, plus one
// final exponentiation; the unprepared path prepares all four G2 points and
// loops over four pairs. Verdicts are identical to the unprepared path on
// every input (asserted by the mutation harness): the checks differ only by
// moving the constant e(alpha, beta) to the right-hand side, which is exact,
// not probabilistic.
//
// The public-input bases ic[1..] are fixed too, so their sum runs on one
// FixedBaseTable per base at c = 4 (src/ec/fixed_base.h): 65 windows of the
// multiples 1..8, affine, so an input costs one mixed addition per nonzero
// signed 4-bit digit and no doubling. 520 points per input: 256 KB for the
// 7-input NOPE key.
struct PreparedVerifyingKey {
  VerifyingKey vk;                                       // ic[0] and the plain key
  std::vector<FixedBaseTable<Bn254G1Config>> ic_tables;  // one per ic[1..]
  G2Prepared gamma_prep;                                 // lines for gamma_g2
  G2Prepared delta_prep;                                 // lines for delta_g2
  Fp12 alpha_beta;                                       // e(alpha_g1, beta_g2)

  // Resident footprint (the proving service's key-cache byte budget).
  size_t SizeBytes() const;
};

PreparedVerifyingKey PrepareVerifyingKey(const VerifyingKey& vk);

// [IC]1 = ic[0] + sum_j x_j ic[j+1], the public-input term of the pairing
// product, from the prepared key's table. Any Fr inputs; public_inputs must
// hold pvk.vk.ic.size() - 1 of them.
G1 PreparedIcSum(const PreparedVerifyingKey& pvk, const std::vector<Fr>& public_inputs);

struct ProvingKey {
  // The verifying key, prepared at Setup; pvk.vk is the key's only copy of
  // the plain verifying key.
  PreparedVerifyingKey pvk;
  const VerifyingKey& vk() const { return pvk.vk; }

  G1 beta_g1;
  G1 delta_g1;
  // Query tables are stored affine: the MSM kernel consumes affine bases
  // directly (mixed additions), the per-element memory drops by a third, and
  // the conversion happens once at Setup via BatchToAffine.
  std::vector<G1Affine> a_query;     // [A_i(tau)]1, all variables
  std::vector<G1Affine> b_g1_query;  // [B_i(tau)]1
  std::vector<G2Affine> b_g2_query;  // [B_i(tau)]2
  std::vector<G1Affine> l_query;     // [(beta A_i + alpha B_i + C_i)/delta]1, witness vars
  std::vector<G1Affine> h_query;     // [tau^i Z(tau)/delta]1, i < domain-1
  size_t num_public = 0;
  size_t num_constraints = 0;
};

// Statement-specific one-time setup. The constraint system may carry any
// satisfying or non-satisfying assignment; only its matrices matter here.
// The returned key carries its verifying key already prepared.
ProvingKey Setup(const ConstraintSystem& cs, Rng* rng);

// Optional per-stage instrumentation for the prover. When hooks is non-null
// and on_stage is set, the prover invokes it on the calling thread at each
// completed stage boundary with the stage name and the elapsed milliseconds
// measured on `clock` (stages completed before a cancellation still report).
// Stage names, in order:
//   "witness"  — A, B and C row evaluations (each row once, with the
//                satisfaction check on the same values)
//   "fft"      — the six iFFT/coset-FFT transforms
//   "h_poly"   — quotient evaluation + coset iFFT
//   "scalars"  — Montgomery-to-integer scalar conversions
//   "msm"      — the five MSMs + final group arithmetic
// The hook observes; it must not mutate prover inputs or call back into the
// prover. With a null clock, elapsed_ms is always 0. Hook invocations never
// touch the Rng, so instrumented and bare runs produce bit-identical proofs.
struct ProveStageHooks {
  const Clock* clock = nullptr;
  std::function<void(const char* stage, uint64_t elapsed_ms)> on_stage;
};

// proof is meaningful only when status is ok.
struct ProveResult {
  Status status;
  Proof proof;

  bool ok() const { return status.ok(); }
};

// The prover: a zero-knowledge proof that `assignment` satisfies the
// matrices of `circuit`. circuit is read only for its constraints and
// counts; every value comes from assignment, one per circuit wire, in the
// circuit's wire order. So a fixed circuit proves a new witness without
// being copied.
//
// Never throws. A failed check returns its error, and its context names the
// check:
//   kMissing    — circuit stores no matrices (kCount mode);
//   kMismatch   — a key count or query-table length that does not fit the
//                 circuit, an assignment whose wire 0 is not 1, or an
//                 assignment that violates a constraint (named by index);
//   kBadLength  — an assignment with a value count other than the wire count;
//   kCancelled  — the token fired.
// The token is polled cooperatively: at entry, between pipeline phases (row
// evaluation, each FFT, each MSM), and inside the parallel loops at chunk
// boundaries, so an already-expired deadline returns promptly and a
// mid-flight cancellation abandons queued work within one chunk. The global
// ThreadPool is always left reusable. A failed check returns before the Rng
// is drawn; a quiet token and the hooks never touch it, so they leave the
// proof bit-identical.
ProveResult Prove(const ProvingKey& pk, const ConstraintSystem& circuit,
                  std::span<const Fr> assignment, Rng* rng, const CancellationToken& cancel,
                  const ProveStageHooks* hooks);

// Forwards that prove cs.values(), the assignment cs carries. The first
// throws std::invalid_argument with the status text on any error.
Proof Prove(const ProvingKey& pk, const ConstraintSystem& cs, Rng* rng);
ProveResult Prove(const ProvingKey& pk, const ConstraintSystem& cs, Rng* rng,
                  const CancellationToken& cancel, const ProveStageHooks* hooks);

// public_inputs excludes the constant 1 (so its length is vk.ic.size() - 1).
//
// Point-check contract (all Verify entry points, prepared or not): proofs
// are rejected unless A and C are on the curve (G1 has cofactor 1, so that
// is full membership), B is in the order-r G2 subgroup, and none of A/B/C
// is the point at infinity. The parse path (Proof::TryFromBytes) enforces
// the same membership rules, but in-process callers can construct a Proof
// directly, so Verify must not trust its inputs: an infinity factor would
// trivialize one pairing in the product (MillerLoop maps identity inputs
// to 1), and an out-of-subgroup B would leave the pairing undefined as a
// bilinear map.
bool Verify(const VerifyingKey& vk, const std::vector<Fr>& public_inputs, const Proof& proof);

// Single-proof verification against a prepared key. Same point-check
// contract and same verdict as Verify(vk, ...); it skips the three G2
// preparations and the e(alpha, beta) Miller loop that path pays per proof.
bool Verify(const PreparedVerifyingKey& pvk, const std::vector<Fr>& public_inputs,
            const Proof& proof);

// One member of a verification batch.
struct BatchEntry {
  Proof proof;
  std::vector<Fr> public_inputs;
};

struct BatchVerifyResult {
  // True iff every member of the batch verifies individually.
  bool all_ok = false;
  // When all_ok is false: the indices of the offending members, in
  // ascending order. Structural rejects (wrong input count, bad points) are
  // identified directly; if the combined pairing check fails, each
  // remaining member is re-verified individually to name the offenders.
  std::vector<size_t> rejected;
};

// Random-linear-combination batch verification: N proofs cost one
// multi-Miller loop over N + 2 pairs ((z_i A_i, B_i) plus the aggregated
// gamma and delta G1 sides), one final exponentiation and one cyclotomic
// exponentiation of the precomputed e(alpha, beta) — versus N loops over
// three pairs and N final exponentiations unbatched.
//
// Soundness: each member's pairing equation is raised to an independent
// uniformly random nonzero z_i drawn from `rng`; a batch containing an
// invalid member passes with probability at most ~1/r (~2^-254) over the
// choice of z. The caller owns the seeding policy: verification-time
// batching should seed from entropy the prover cannot predict (or, for
// deterministic replay, from a transcript hash over the batch — the
// scenario/bench harnesses derive the seed from their sweep seed so runs
// replay byte-identically). Completeness is exact: a batch whose members
// all verify always passes, for every z.
BatchVerifyResult BatchVerify(const PreparedVerifyingKey& pvk,
                              const std::vector<BatchEntry>& batch, Rng* rng);

// Groth16 proofs are re-randomizable: returns a different proof for the same
// statement that still verifies. This is the proof-malleability the paper's
// weak-simulation-extractability discussion (§3.2) must contend with; NOPE
// tolerates it because N and TS are bound inside the statement.
Proof RandomizeProof(const VerifyingKey& vk, const Proof& proof, Rng* rng);

}  // namespace groth16
}  // namespace nope

#endif  // SRC_GROTH16_GROTH16_H_
