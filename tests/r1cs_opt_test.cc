// Optimizer pipeline tests: per-pass unit tests on hand-built systems, the
// assignment map/lift round trip, the determinism contract (builds of one
// statement shape from different witnesses reduce to identical matrices),
// the pinned optimized Full() matrices, the rotation path that proves
// against the circuit stored at setup (with the per-rotation optimize as its
// oracle), and the acceptance bar — >= 10% constraint reduction on the
// full statement circuit (baseline gadget design) with proofs still
// verifying. The Full() design already bakes the NOPE paper's hand
// optimizations into the gadgets themselves, which leaves the optimizer
// less slack; its floor is asserted separately at >= 5% (measured ~6.4%,
// see EXPERIMENTS.md).
#include "src/r1cs/opt/optimizer.h"

#include <gtest/gtest.h>

#include "src/core/nope.h"
#include "src/core/statement.h"
#include "src/groth16/groth16.h"
#include "src/pki/san_encoding.h"
#include "src/r1cs/opt/report.h"
#include "src/r1cs/parse_gadgets.h"

namespace nope {
namespace {

Fr U64Fr(uint64_t v) { return Fr::FromU64(v); }

// a * b = c over fresh witnesses, with the product value filled in honestly.
Var Mul(ConstraintSystem* cs, Var a, Var b) {
  Var c = cs->AddWitness(cs->ValueOf(a) * cs->ValueOf(b));
  cs->Enforce(LC(a), LC(b), LC(c));
  return c;
}

bool SameLc(const LC& x, const LC& y) {
  LC cx = x, cy = y;
  cx.Canonicalize();
  cy.Canonicalize();
  if (cx.terms().size() != cy.terms().size()) return false;
  for (size_t i = 0; i < cx.terms().size(); ++i) {
    if (cx.terms()[i].first != cy.terms()[i].first) return false;
    if (!(cx.terms()[i].second == cy.terms()[i].second)) return false;
  }
  return true;
}

bool SameMatrices(const ConstraintSystem& x, const ConstraintSystem& y) {
  if (x.NumConstraints() != y.NumConstraints()) return false;
  if (x.NumVariables() != y.NumVariables()) return false;
  if (x.NumPublic() != y.NumPublic()) return false;
  for (size_t i = 0; i < x.constraints().size(); ++i) {
    const Constraint& cx = x.constraints()[i];
    const Constraint& cy = y.constraints()[i];
    if (!SameLc(cx.a, cy.a) || !SameLc(cx.b, cy.b) || !SameLc(cx.c, cy.c)) return false;
  }
  return true;
}

TEST(Optimizer, FoldsConstantProductsAndDropsTrivial) {
  ConstraintSystem cs;
  Var x = cs.AddWitness(U64Fr(7));
  // (3 * 1) * x = y  --  constant a-side, folds to the linear 3x - y = 0.
  Var y = cs.AddWitness(U64Fr(21));
  cs.Enforce(LC::Constant(U64Fr(3)), LC(x), LC(y));
  // 0 * x = 0 is trivially true and must disappear.
  cs.Enforce(LC::Constant(Fr::Zero()), LC(x), LC::Constant(Fr::Zero()));
  // Keep x and y alive post-substitution with a genuine product.
  Var z = Mul(&cs, x, y);
  cs.Enforce(LC(z), LC::Constant(Fr::One()), LC::Constant(U64Fr(147)));

  OptimizeResult res = Optimize(cs);
  EXPECT_GE(res.stats.folded_constant, 1u);
  EXPECT_GE(res.stats.dropped_trivial, 1u);
  EXPECT_LT(res.cs.NumConstraints(), cs.NumConstraints());
  EXPECT_TRUE(res.cs.IsSatisfied());
}

TEST(Optimizer, EliminatesDeadWitnessKeepsPublic) {
  ConstraintSystem cs;
  Var p = cs.AddPublicInput(U64Fr(5));
  Var used = cs.AddWitness(U64Fr(2));
  cs.AddWitness(U64Fr(99));  // never referenced: dead
  cs.Enforce(LC(p), LC(used), LC::Constant(U64Fr(10)));

  OptimizeResult res = Optimize(cs);
  EXPECT_GE(res.stats.dead_vars, 1u);
  EXPECT_LT(res.cs.NumVariables(), cs.NumVariables());
  // Public inputs are pinned: same count, same ids.
  EXPECT_EQ(res.cs.NumPublic(), cs.NumPublic());
  EXPECT_EQ(res.var_map[p], p);
  EXPECT_TRUE(res.cs.IsSatisfied());
  // A dead variable lifts to zero; everything else round-trips.
  std::vector<Fr> lifted = res.LiftAssignment(res.cs.values());
  ASSERT_EQ(lifted.size(), cs.NumVariables());
  EXPECT_EQ(lifted[p], U64Fr(5));
  EXPECT_EQ(lifted[used], U64Fr(2));
  EXPECT_TRUE(cs.SatisfiedBy(lifted));
}

TEST(Optimizer, DedupesExactDuplicateConstraints) {
  ConstraintSystem cs;
  Var x = cs.AddWitness(U64Fr(3));
  Var y = cs.AddWitness(U64Fr(9));
  for (int i = 0; i < 4; ++i) {
    cs.Enforce(LC(x), LC(x), LC(y));  // same constraint four times
  }
  cs.Enforce(LC(y), LC::Constant(Fr::One()), LC::Constant(U64Fr(9)));

  OptimizeResult res = Optimize(cs);
  EXPECT_GE(res.stats.deduped_constraints, 3u);
  EXPECT_TRUE(res.cs.IsSatisfied());
}

TEST(Optimizer, SharesDuplicateDefiningProducts) {
  // Two gadget instances each compute x*y into a private fresh variable;
  // the share pass must merge the definitions.
  ConstraintSystem cs;
  Var x = cs.AddWitness(U64Fr(4));
  Var y = cs.AddWitness(U64Fr(6));
  Var t0 = Mul(&cs, x, y);
  Var t1 = Mul(&cs, x, y);
  // Both results feed further constraints.
  cs.Enforce(LC(t0), LC::Constant(Fr::One()), LC::Constant(U64Fr(24)));
  cs.Enforce(LC(t1), LC::Constant(Fr::One()), LC::Constant(U64Fr(24)));

  OptimizeResult res = Optimize(cs);
  EXPECT_GE(res.stats.shared_products + res.stats.deduped_constraints, 1u);
  EXPECT_LT(res.cs.NumConstraints(), cs.NumConstraints());
  EXPECT_TRUE(res.cs.IsSatisfied());
}

TEST(Optimizer, AffineShareRewritesRelatedProducts) {
  // x*(y + 1) = c1 and x*(y + 3) = c2 satisfy the identity c2 - c1 = 2x, so
  // the second product must decay into that linear constraint.
  ConstraintSystem cs;
  Var x = cs.AddWitness(U64Fr(5));
  Var y = cs.AddWitness(U64Fr(2));
  Var c1 = cs.AddWitness(U64Fr(15));
  Var c2 = cs.AddWitness(U64Fr(25));
  cs.Enforce(LC(x), LC(y) + LC::Constant(Fr::One()), LC(c1));
  cs.Enforce(LC(x), LC(y) + LC::Constant(U64Fr(3)), LC(c2));
  // Keep all four wires load-bearing.
  cs.Enforce(LC(c1) + LC(c2), LC(x), LC::Constant(U64Fr(200)));
  ASSERT_TRUE(cs.IsSatisfied());

  OptimizeResult res = Optimize(cs);
  EXPECT_GE(res.stats.affine_rewrites, 1u);
  EXPECT_TRUE(res.cs.IsSatisfied());
  // Only one genuine product remains; everything else is linear.
  size_t products = 0;
  for (const Constraint& con : res.cs.constraints()) {
    if (!con.a.IsConstant() && !con.b.IsConstant()) ++products;
  }
  EXPECT_LE(products, 2u);
}

TEST(Optimizer, UnifiesDuplicateGadgetSpans) {
  // Two SliceNope instances over the same array at the same start are the
  // same sub-circuit on the same inputs: span unification aliases the
  // second instance's wires onto the first and its constraints dedupe away.
  ConstraintSystem cs;
  std::vector<Var> vars = AllocateBytes(&cs, Bytes(16, 0x42));
  std::vector<LC> arr(vars.begin(), vars.end());
  std::vector<LC> s1 = SliceNope(&cs, arr, LC::Constant(U64Fr(3)), 4);
  std::vector<LC> s2 = SliceNope(&cs, arr, LC::Constant(U64Fr(3)), 4);
  // Both outputs escape into later constraints, so nothing here is dead.
  for (size_t i = 0; i < s1.size(); ++i) {
    cs.EnforceEqual(s1[i], s2[i]);
  }
  ASSERT_TRUE(cs.IsSatisfied());

  OptimizeResult res = Optimize(cs);
  EXPECT_GE(res.stats.unified_spans, 1u);
  EXPECT_GE(res.stats.unified_vars, 1u);
  EXPECT_TRUE(res.cs.IsSatisfied());
  EXPECT_LT(res.cs.NumConstraints(), cs.NumConstraints());
  // Lift reconstructs the duplicate instance's wires from the original's.
  std::vector<Fr> lifted = res.LiftAssignment(res.MapAssignment(cs.values()));
  EXPECT_TRUE(cs.SatisfiedBy(lifted));
}

TEST(Optimizer, DoesNotUnifyPureAllocationSpans) {
  // Two allocation-only spans (no external wire references) range-check
  // different data; they match structurally but must never merge.
  ConstraintSystem cs;
  std::vector<Var> a;
  std::vector<Var> b;
  {
    GadgetScope scope(&cs, "Alloc");
    a = AllocateBytes(&cs, Bytes(4, 0x11));
  }
  {
    GadgetScope scope(&cs, "Alloc");
    b = AllocateBytes(&cs, Bytes(4, 0x77));
  }
  // Both buffers feed later constraints with their own values.
  cs.EnforceEqual(LC(a[0]), LC::Constant(U64Fr(0x11)));
  cs.EnforceEqual(LC(b[0]), LC::Constant(U64Fr(0x77)));
  ASSERT_TRUE(cs.IsSatisfied());

  OptimizeResult res = Optimize(cs);
  EXPECT_TRUE(res.cs.IsSatisfied());
  std::vector<Fr> lifted = res.LiftAssignment(res.MapAssignment(cs.values()));
  EXPECT_TRUE(cs.SatisfiedBy(lifted));
  for (size_t v = 0; v < lifted.size(); ++v) {
    EXPECT_EQ(lifted[v], cs.values()[v]) << "var " << v;
  }
}

TEST(Optimizer, MapLiftRoundTripOnGadgetSystem) {
  // On a real gadget system every variable is either kept or eliminated with
  // a recorded expression, so Lift(Map(w)) == w for the honest witness.
  Rng rng(77);
  ConstraintSystem cs;
  Bytes bytes = rng.NextBytes(16);
  std::vector<Var> vars = AllocateBytes(&cs, bytes);
  std::vector<LC> arr(vars.begin(), vars.end());
  MaskNope(&cs, arr, LC::Constant(U64Fr(9)));
  ASSERT_TRUE(cs.IsSatisfied());

  OptimizeResult res = Optimize(cs);
  EXPECT_TRUE(res.cs.IsSatisfied());
  std::vector<Fr> mapped = res.MapAssignment(cs.values());
  EXPECT_TRUE(res.cs.SatisfiedBy(mapped));
  std::vector<Fr> lifted = res.LiftAssignment(mapped);
  ASSERT_EQ(lifted.size(), cs.values().size());
  for (size_t v = 0; v < lifted.size(); ++v) {
    EXPECT_EQ(lifted[v], cs.values()[v]) << "var " << v;
  }
  EXPECT_TRUE(cs.SatisfiedBy(lifted));
}

TEST(Optimizer, VarMapAndInverseAreConsistent) {
  ConstraintSystem cs;
  ToBits(&cs, LC::Constant(U64Fr(173)), 8);
  std::vector<Var> vars = AllocateBytes(&cs, Bytes(16, 0x61));
  std::vector<LC> arr(vars.begin(), vars.end());
  SliceNope(&cs, arr, LC::Constant(U64Fr(3)), 4);
  OptimizeResult res = Optimize(cs);
  ASSERT_EQ(res.var_map.size(), cs.NumVariables());
  ASSERT_EQ(res.inverse_map.size(), res.cs.NumVariables());
  for (Var nv = 0; nv < res.inverse_map.size(); ++nv) {
    Var ov = res.inverse_map[nv];
    ASSERT_LT(ov, res.var_map.size());
    EXPECT_EQ(res.var_map[ov], nv);
  }
  size_t eliminated = 0;
  for (Var ov = 0; ov < res.var_map.size(); ++ov) {
    if (res.var_map[ov] == OptimizeResult::kEliminatedVar) {
      ++eliminated;
    } else {
      EXPECT_EQ(res.inverse_map[res.var_map[ov]], ov);
    }
  }
  EXPECT_EQ(eliminated + res.cs.NumVariables(), cs.NumVariables());
}

struct OptStatementFixture {
  DnssecHierarchy dns{CryptoSuite::Toy(), 4001};
  DnsName domain = DnsName::FromString("example.com");

  OptStatementFixture() {
    dns.AddZone(DnsName::FromString("com"));
    dns.AddZone(domain);
  }

  StatementParams Params() {
    StatementParams params;
    params.suite = &CryptoSuite::Toy();
    params.num_levels = 1;
    params.max_name_len = 32;
    params.options = StatementOptions::Full();
    return params;
  }

  StatementWitness Witness(uint8_t t_byte) {
    StatementWitness w;
    w.chain = dns.BuildChain(domain);
    w.leaf_ksk_private_key = dns.Find(domain)->ksk().ec_priv;
    w.tls_key_digest = Bytes(32, t_byte);
    w.ca_name_digest = Bytes(32, 0xbb);
    w.truncated_ts = 2916666;
    return w;
  }
};

TEST(OptimizerStatement, DeterministicAcrossWitnesses) {
  // The determinism contract: two builds of the same statement shape with
  // different witness values reduce to identical matrices and wire maps.
  OptStatementFixture f;
  ConstraintSystem cs1;
  BuildNopeStatement(&cs1, f.Params(), f.Witness(0xaa));
  ConstraintSystem cs2;
  BuildNopeStatement(&cs2, f.Params(), f.Witness(0x17));
  OptimizeResult r1 = Optimize(cs1);
  OptimizeResult r2 = Optimize(cs2);
  EXPECT_TRUE(SameMatrices(r1.cs, r2.cs));
  EXPECT_EQ(r1.var_map, r2.var_map);
  // And optimizing twice from the same input is byte-for-byte stable.
  OptimizeResult r1b = Optimize(cs1);
  EXPECT_TRUE(SameMatrices(r1.cs, r1b.cs));
  EXPECT_EQ(r1.var_map, r1b.var_map);
}

TEST(OptimizerStatement, ReducesFullStatementAtLeastTenPercent) {
  // The complete statement circuit with the baseline gadget design: every
  // chain-of-trust check is present, and the parsing/crypto gadgets are the
  // straightforward versions whose cross-instance redundancy the optimizer
  // is responsible for recovering (measured ~10.3%; the +design ablation
  // reaches ~11.4%).
  OptStatementFixture f;
  StatementParams params = f.Params();
  params.options = StatementOptions::Baseline();
  ConstraintSystem cs;
  BuildNopeStatement(&cs, params, f.Witness(0xaa));
  ASSERT_TRUE(cs.IsSatisfied());
  OptimizeResult res = Optimize(cs);
  EXPECT_TRUE(res.cs.IsSatisfied());
  double reduction = 1.0 - static_cast<double>(res.cs.NumConstraints()) /
                               static_cast<double>(cs.NumConstraints());
  EXPECT_GE(reduction, 0.10) << "pre=" << cs.NumConstraints()
                             << " post=" << res.cs.NumConstraints();
}

TEST(OptimizerStatement, ReducesNopeDesignStatementAtLeastFivePercent) {
  // Full() uses the NOPE-optimized gadgets (slice-by-shift, suffix-sum
  // masks, GLV MSM), which already eliminate by construction most of what
  // the optimizer recovers above; ~87% of the remaining constraints are
  // distinct bit range checks that no sound matrix-level transform can
  // merge. Measured reduction: ~6.4%.
  OptStatementFixture f;
  ConstraintSystem cs;
  BuildNopeStatement(&cs, f.Params(), f.Witness(0xaa));
  ASSERT_TRUE(cs.IsSatisfied());
  OptimizeResult res = Optimize(cs);
  EXPECT_TRUE(res.cs.IsSatisfied());
  double reduction = 1.0 - static_cast<double>(res.cs.NumConstraints()) /
                               static_cast<double>(cs.NumConstraints());
  EXPECT_GE(reduction, 0.05) << "pre=" << cs.NumConstraints()
                             << " post=" << res.cs.NumConstraints();
  // The density report attributes every constraint exactly once.
  DensityReport report = BuildDensityReport(cs, &res);
  EXPECT_EQ(report.total_constraints_pre, cs.NumConstraints());
  EXPECT_EQ(report.total_constraints_post, res.cs.NumConstraints());
  size_t attributed_pre = 0;
  size_t attributed_post = 0;
  for (const GadgetDensityRow& row : report.rows) {
    attributed_pre += row.constraints_pre;
    attributed_post += row.constraints_post;
  }
  EXPECT_EQ(attributed_pre, report.total_constraints_pre);
  EXPECT_EQ(attributed_post, report.total_constraints_post);
}

TEST(OptimizerStatement, OptimizedProofsVerify) {
  // Setup on the sample-witness build, Prove on the real-witness build, both
  // through the optimizer; verification is unchanged.
  OptStatementFixture f;
  Rng rng(2024);
  ConstraintSystem setup_cs;
  BuildNopeStatement(&setup_cs, f.Params(), f.Witness(0x04));
  groth16::ProvingKey pk = groth16::Setup(Optimize(setup_cs).cs, &rng);

  StatementWitness w = f.Witness(0xaa);
  ConstraintSystem prove_cs;
  BuildNopeStatement(&prove_cs, f.Params(), w);
  groth16::Proof proof = groth16::Prove(pk, Optimize(prove_cs).cs, &rng);

  std::vector<Fr> pub = NopePublicInputs(f.Params(), f.domain, w.tls_key_digest,
                                         w.ca_name_digest, w.truncated_ts);
  EXPECT_TRUE(groth16::Verify(pk.vk(), pub, proof));
  // Tampered public input still rejects.
  pub[0] = pub[0] + Fr::One();
  EXPECT_FALSE(groth16::Verify(pk.vk(), pub, proof));
}

// FNV-1a over the matrices: shape, then every constraint side's terms.
uint64_t MatrixDigest(const ConstraintSystem& cs) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };
  mix(cs.NumPublic());
  mix(cs.NumVariables());
  mix(cs.NumConstraints());
  for (const Constraint& con : cs.constraints()) {
    for (const LC* side : {&con.a, &con.b, &con.c}) {
      mix(side->terms().size());
      for (const auto& [v, k] : side->terms()) {
        mix(v);
        for (uint64_t limb : k.limbs()) {
          mix(limb);
        }
      }
    }
  }
  return h;
}

// FNV-1a over a byte string.
uint64_t BytesDigest(const Bytes& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t b : bytes) {
    h = (h ^ b) * 0x100000001b3ull;
  }
  return h;
}

TEST(OptimizerStatement, OptimizedFullStatementIsPinned) {
  // Deployed keys are set up for these exact matrices, so a change inside
  // the optimizer (its comparators, its hashing, its pass order) must not
  // move them.
  OptStatementFixture f;
  ConstraintSystem cs;
  BuildNopeStatement(&cs, f.Params(), f.Witness(0xaa));
  OptimizeResult res = Optimize(cs);
  EXPECT_EQ(res.cs.NumConstraints(), 149300u);
  EXPECT_EQ(res.cs.NumVariables(), 147363u);
  EXPECT_EQ(MatrixDigest(res.cs), 0xd8cf20e031d3e3cbull);
}

TEST(OptimizerStatement, RotationMatchesPerRotationOptimize) {
  // A key rotation proves against the circuit NopeTrustedSetup stored. The
  // oracle is the per-rotation path: synthesize the statement, optimize it,
  // prove. From the same Rng state both give the same proof bytes, with the
  // optimizer on and off.
  const Bytes tls_key(65, 0x04);
  const uint64_t now = 1750000000;
  StatementOptions raw = StatementOptions::Full();
  raw.optimize_circuit = false;
  size_t optimized_wires = 0;
  for (const StatementOptions& options : {StatementOptions::Full(), raw}) {
    // Hierarchies from one seed sign identically while they see the same
    // calls: `twin` replays setup's sample-witness chain, then builds the
    // witness GenerateNopeProof builds on `f`.
    OptStatementFixture f;
    OptStatementFixture twin;
    Rng setup_rng(99);
    NopeDeployment dep = NopeTrustedSetup(&f.dns, f.domain, options, &setup_rng);
    twin.dns.BuildChain(twin.domain);
    ConstraintSystem cs;
    BuildNopeStatement(&cs, dep.params,
                       BuildWitness(&twin.dns, twin.domain, tls_key, "Example CA", now));
    Rng oracle_rng(7);
    groth16::Proof oracle =
        options.optimize_circuit ? groth16::Prove(dep.pk, Optimize(cs).cs, &oracle_rng)
                                 : groth16::Prove(dep.pk, cs, &oracle_rng);

    Rng rng(7);
    NopeProofBundle bundle =
        GenerateNopeProof(dep, &f.dns, f.domain, tls_key, "Example CA", now, &rng);
    EXPECT_EQ(bundle.proof.ToBytes(), oracle.ToBytes());
    // The oracle runs the same Prove, so it cannot see a prover change that
    // moves proof bytes; the digests pin them.
    EXPECT_EQ(BytesDigest(bundle.proof.ToBytes()),
              options.optimize_circuit ? 0xb9bd2b3e6ff9c29bull : 0x6b871d4ed0cb44ebull);
    Result<groth16::Proof> decoded =
        groth16::Proof::TryFromBytes(DecodeProofFromSans(bundle.sans, f.domain).value());
    ASSERT_TRUE(decoded.ok());
    std::vector<Fr> pub = NopePublicInputs(dep.params, f.domain, TlsKeyDigest(tls_key),
                                           CaNameDigest("Example CA"), TruncateTimestamp(now));
    EXPECT_TRUE(groth16::Verify(dep.vk(), pub, decoded.value()));

    EXPECT_EQ(dep.statement_wires, cs.NumVariables());
    EXPECT_EQ(dep.circuit_wires.size(), dep.pk.a_query.size());
    if (options.optimize_circuit) {
      optimized_wires = dep.circuit_wires.size();
    } else {
      // The unoptimized circuit is the statement itself, under the identity map.
      EXPECT_TRUE(SameMatrices(dep.circuit, cs));
      for (size_t i = 0; i < dep.circuit_wires.size(); ++i) {
        ASSERT_EQ(dep.circuit_wires[i], i);
      }
      EXPECT_LT(optimized_wires, dep.circuit_wires.size());
    }
  }
}

TEST(OptimizerStatement, CountModeSynthesisGivesProveModeValues) {
  // A key rotation synthesizes its statement in kCount mode and reads only
  // the values; no gadget branches on the mode, so they are the kProve
  // values, without the matrices.
  OptStatementFixture f;
  StatementWitness w = f.Witness(0xaa);
  ConstraintSystem proved;
  BuildNopeStatement(&proved, f.Params(), w);
  ConstraintSystem counted(ConstraintSystem::Mode::kCount);
  BuildNopeStatement(&counted, f.Params(), w);
  EXPECT_EQ(counted.NumConstraints(), proved.NumConstraints());
  EXPECT_EQ(counted.NumPublic(), proved.NumPublic());
  EXPECT_TRUE(counted.constraints().empty());
  EXPECT_TRUE(counted.values() == proved.values());
}

TEST(OptimizerStatement, RotationRejectsCircuitThatDoesNotFit) {
  OptStatementFixture f;
  ConstraintSystem statement;
  BuildNopeStatement(&statement, f.Params(), f.Witness(0xaa));
  const Var wires = static_cast<Var>(statement.NumVariables());

  // A deployment assembled by hand, as a verifier-side stand-in is: the
  // statement shape and keys for a one-product circuit, but no circuit from
  // setup.
  ConstraintSystem stand_in;
  Var x = stand_in.AddPublicInput(Fr::FromU64(3));
  Var y = stand_in.AddWitness(Fr::FromU64(9));
  stand_in.Enforce(LC(x), LC(x), LC(y));
  Rng rng(5);
  NopeDeployment dep;
  dep.params = f.Params();
  dep.pk = groth16::Setup(stand_in, &rng);
  auto rotate = [&] {
    return GenerateNopeProof(dep, &f.dns, f.domain, Bytes(65, 0x04), "Example CA", 1750000000,
                             &rng);
  };
  EXPECT_THROW(rotate(), std::invalid_argument);

  dep.circuit = stand_in;
  dep.statement_wires = wires;
  dep.circuit_wires = {kOneVar, 1, wires};  // past the statement's last wire
  EXPECT_THROW(rotate(), std::invalid_argument);
  dep.circuit_wires = {kOneVar, 1};  // shorter than the circuit
  EXPECT_THROW(rotate(), std::invalid_argument);
  // A map that fits but pairs the circuit with statement wires it does not
  // constrain: Prove's satisfaction check rejects the assignment.
  dep.circuit_wires = {kOneVar, 1, 2};
  EXPECT_THROW(rotate(), std::invalid_argument);
}

}  // namespace
}  // namespace nope
