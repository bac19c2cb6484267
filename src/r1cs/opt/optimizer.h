// R1CS optimization pipeline (ROADMAP item 3).
//
// Runs once per deployment, in NopeTrustedSetup, between gadget synthesis and
// Groth16 Setup. Passes:
//   (a) linear-combination canonicalization + constant folding: every LC is
//       sorted/merged/zero-free, and a*b = c with a constant side is folded
//       to the linear form L * 1 = 0;
//   (b) dead-wire elimination: witness variables used by no constraint are
//       dropped, and a single-use "defining product" a*b = k*v (v nowhere
//       else) is projected out together with its constraint;
//   (c) common-subexpression sharing: exact duplicate constraints collapse
//       to one, and two products with identical (a, b) sides that each
//       define a fresh variable share one definition;
//   plus linear substitution: a linear constraint L = 0 defines one of its
//   variables, which is folded into its uses when the fill-in is small.
//
// Two structural passes extend (c) across gadget instances:
//   (e) span unification: two scope spans with the same name whose constraint
//       ranges are identical under the positional variable correspondence
//       (span-local wire i <-> span-local wire i, external wires equal) are
//       the same sub-circuit applied to the same inputs. The duplicate's
//       local wires are aliased onto the original's and its constraints decay
//       into exact duplicates that (c) removes.
//   (f) affine product sharing: products S * (V + k1) = c1 and
//       S * (V + k2) = c2 differ by the identity c2 - c1 = (k2 - k1) * S, so
//       the second is replaced by that linear constraint.
// Span unification first, then rounds of (a), substitution, (c), (f), (b)
// until a round changes nothing or 8 rounds have run. Every pass always runs.
//
// Precondition: every scope span is *functional*, its local wires uniquely
// determined by its external inputs. The Map direction of the equivalence
// contract below relies on it, since (e) aliases the local wires of two
// spans with equal inputs. Every gadget in this library meets it (bit
// decompositions, inverse hints, carry/quotient witnesses are all unique).
// The gadget audit's optimizer oracle (src/r1cs/audit) tests it for every
// registered gadget: a span whose free wire escapes it shows up there as a
// pre-satisfying assignment that the optimized system rejects
// (kOptLostWitness).
//
// Determinism contract: the optimized matrices are a pure function of the
// input matrices (never of the witness values), all passes run serially in
// constraint order, and the result is identical across NOPE_THREADS.
//
// Deployment contract: NopeTrustedSetup optimizes the statement built from a
// sample witness and keeps only the optimized matrices and inverse_map in the
// NopeDeployment (not the eliminations journal or the scope attribution).
// Each key rotation maps its own statement's assignment through that map
// (MapAssignment's job) and proves against the stored matrices; it never
// calls into this directory. That is sound because groth16::Prove still
// checks the mapped assignment against the deployed matrices.
//
// Assignment mapping: because variables are eliminated, the optimized and
// original systems index different witness vectors. MapAssignment compresses
// an original assignment (dropping eliminated variables); LiftAssignment
// recomputes eliminated variables from the recorded elimination expressions.
// Satisfiability equivalence, checked exhaustively by the audit harness:
//   * w satisfies the original  =>  MapAssignment(w) satisfies the optimized
//   * w' satisfies the optimized => LiftAssignment(w') satisfies the original
#ifndef SRC_R1CS_OPT_OPTIMIZER_H_
#define SRC_R1CS_OPT_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "src/r1cs/constraint_system.h"

namespace nope {

struct OptStats {
  size_t rounds = 0;
  size_t constraints_before = 0;
  size_t constraints_after = 0;
  size_t vars_before = 0;
  size_t vars_after = 0;
  size_t folded_constant = 0;      // products rewritten to linear form
  size_t dropped_trivial = 0;      // 0 == 0 constraints removed
  size_t substituted_vars = 0;     // linear definitions folded out
  size_t shared_products = 0;      // duplicate defining products merged
  size_t deduped_constraints = 0;  // exact duplicate constraints removed
  size_t dead_vars = 0;            // variables with no remaining use
  size_t projected_products = 0;   // single-use defining products dropped
  size_t unified_spans = 0;        // duplicate gadget spans aliased away
  size_t unified_vars = 0;         // local wires merged by span unification
  size_t affine_rewrites = 0;      // products rewritten via the affine identity
};

// How an eliminated original variable's value is recovered from an optimized
// assignment. Expressions reference original variable ids that were still
// alive when the elimination was recorded, so LiftAssignment replays the
// list in reverse order.
struct Elimination {
  enum class Kind {
    kDead,     // unconstrained: lifts to zero
    kLinear,   // var = constant + sum_i coeff_i * old_var_i
    kProduct,  // var = scale * Eval(a) * Eval(b)
  };
  Kind kind = Kind::kDead;
  Var var = 0;  // original id
  Fr constant;
  std::vector<std::pair<Var, Fr>> terms;
  LC a, b;
  Fr scale;
};

struct OptimizeResult {
  static constexpr Var kEliminatedVar = 0xffffffffu;
  static constexpr uint32_t kNoScope = 0xffffffffu;

  // The optimized system (kProve mode), seeded with the mapped assignment of
  // the input system's values.
  ConstraintSystem cs;
  // Original var id -> optimized var id (kEliminatedVar if eliminated).
  // Public inputs are never eliminated and keep their ids.
  std::vector<Var> var_map;
  // Optimized var id -> original var id.
  std::vector<Var> inverse_map;
  // In elimination order (LiftAssignment replays it in reverse).
  std::vector<Elimination> eliminations;
  // Per optimized constraint: index into the ORIGINAL system's scopes() of
  // the innermost scope that emitted it (kNoScope if unscoped), so density
  // reports can attribute post-optimization counts to gadget instances.
  std::vector<uint32_t> constraint_scope;
  OptStats stats;

  // Compresses an original-indexed assignment to the optimized indexing.
  std::vector<Fr> MapAssignment(const std::vector<Fr>& old_values) const;
  // Expands an optimized-indexed assignment back to the original indexing,
  // recomputing eliminated variables from their recorded expressions.
  std::vector<Fr> LiftAssignment(const std::vector<Fr>& new_values) const;
};

// Optimizes a kProve-mode system with every pass above. The input is not
// modified.
OptimizeResult Optimize(const ConstraintSystem& cs);

// Innermost-scope attribution for the ORIGINAL system: element i names the
// scopes() index owning constraint i (kNoScope when outside every scope).
// Scopes whose name starts with '~' mark shared primitives (ToBits,
// Indicator, ...) for span unification; they are transparent here so density
// reports keep gadget-level granularity.
std::vector<uint32_t> InnermostConstraintScopes(const ConstraintSystem& cs);
// Same attribution for variables.
std::vector<uint32_t> InnermostVarScopes(const ConstraintSystem& cs);

}  // namespace nope

#endif  // SRC_R1CS_OPT_OPTIMIZER_H_
