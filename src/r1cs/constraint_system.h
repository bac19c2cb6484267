// Rank-1 constraint system (R1CS) front-end over BN254's scalar field.
//
// This plays the role Circom plays in the paper's implementation (§7): gadget
// code builds the constraint matrices and simultaneously computes the witness
// assignment. Two modes exist:
//   * kProve: constraints are materialized for Groth16 setup/proving.
//   * kCount: only the constraint count is tracked, allowing the Figure 6
//     ablation to size multi-million-constraint circuit variants without
//     holding their matrices in memory (the paper does the same; §8.3).
//
// A convention throughout: variable 0 is the constant 1, public inputs are
// allocated before any witness variable, and each variable carries its value
// so gadgets can compute prover hints inline (the "prover supplies R, the
// constraints check collinearity" pattern of §5.2).
#ifndef SRC_R1CS_CONSTRAINT_SYSTEM_H_
#define SRC_R1CS_CONSTRAINT_SYSTEM_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/ff/fp.h"

namespace nope {

using Var = uint32_t;
constexpr Var kOneVar = 0;

// Sparse linear combination sum_i coeff_i * var_i. Kept unsorted; duplicate
// variables are allowed (they add). Canonicalize() produces the sorted,
// merged, zero-free form the optimizer passes operate on.
class LinearCombination {
 public:
  LinearCombination() = default;
  LinearCombination(Var v) { terms_.emplace_back(v, Fr::One()); }  // NOLINT(runtime/explicit)
  static LinearCombination Constant(const Fr& c);

  LinearCombination& Add(Var v, const Fr& coeff);
  LinearCombination operator+(const LinearCombination& o) const;
  LinearCombination operator-(const LinearCombination& o) const;
  LinearCombination operator*(const Fr& s) const;

  // Sorts terms by variable id, merges duplicates, drops zero coefficients.
  // Evaluation under any assignment is unchanged.
  LinearCombination& Canonicalize();

  // True when every term is on the constant-one variable (vacuously for the
  // empty combination); such a combination evaluates to ConstantValue()
  // under every assignment.
  bool IsConstant() const;
  Fr ConstantValue() const;

  const std::vector<std::pair<Var, Fr>>& terms() const { return terms_; }
  bool IsEmpty() const { return terms_.empty(); }

 private:
  std::vector<std::pair<Var, Fr>> terms_;
};

using LC = LinearCombination;

struct Constraint {
  LC a;
  LC b;
  LC c;
};

// Evaluates a linear combination under an explicit assignment (values[v] for
// every variable the combination mentions; values[0] must be 1).
Fr EvalLc(const LC& lc, std::span<const Fr> values);

// A named half-open region of constraints and variables, recorded by
// BeginScope/EndScope. Gadgets annotate their synthesis with scopes so the
// optimizer's density report (and the audit harness) can attribute
// constraints and aux wires to the gadget instance that emitted them.
// Spans nest properly; `depth` is 0 for top-level scopes.
struct ScopeSpan {
  std::string name;
  size_t depth = 0;
  size_t first_constraint = 0;
  size_t num_constraints = 0;
  size_t first_var = 0;
  size_t num_vars = 0;
};

class ConstraintSystem {
 public:
  enum class Mode { kProve, kCount };

  explicit ConstraintSystem(Mode mode = Mode::kProve);

  Mode mode() const { return mode_; }

  // Public inputs must all be allocated before the first witness variable.
  Var AddPublicInput(const Fr& value);
  Var AddWitness(const Fr& value);

  // Enforces a * b = c. In kCount mode only the counter advances.
  void Enforce(const LC& a, const LC& b, const LC& c);

  // Convenience: enforce lc == value (as constants * 1).
  void EnforceEqual(const LC& lhs, const LC& rhs);
  // Enforce that v is 0 or 1.
  void EnforceBoolean(Var v);

  Fr ValueOf(Var v) const { return values_[v]; }
  Fr Eval(const LC& lc) const;

  size_t NumConstraints() const { return num_constraints_; }
  size_t NumVariables() const { return values_.size(); }
  // Count includes the constant-one variable.
  size_t NumPublic() const { return num_public_; }
  const std::vector<Constraint>& constraints() const { return constraints_; }
  const std::vector<Fr>& values() const { return values_; }

  // Full satisfaction check (kProve mode only); returns the index of the
  // first violated constraint in *bad if non-null.
  bool IsSatisfied(size_t* bad = nullptr) const;

  // Like IsSatisfied but against an externally supplied assignment using the
  // same variable indexing (values.size() == NumVariables(), values[0] == 1).
  // The audit harness uses this to test mutated assignments without touching
  // the system's own witness.
  bool SatisfiedBy(const std::vector<Fr>& values, size_t* bad = nullptr) const;

  // Scope annotations: cheap bookkeeping in both modes. Every BeginScope
  // must be matched by an EndScope; unbalanced calls throw.
  void BeginScope(std::string name);
  void EndScope();
  const std::vector<ScopeSpan>& scopes() const { return scopes_; }

  // Overwrites the value of a variable. Used by negative tests to corrupt a
  // witness and check that proofs over it are rejected.
  void SetValueForTest(Var v, const Fr& value) { values_[v] = value; }

 private:
  Mode mode_;
  size_t num_public_ = 0;
  bool witness_started_ = false;
  size_t num_constraints_ = 0;
  std::vector<Fr> values_;
  std::vector<Constraint> constraints_;
  std::vector<ScopeSpan> scopes_;
  std::vector<size_t> open_scopes_;  // indices into scopes_, innermost last
};

// RAII scope annotation: `GadgetScope scope(cs, "ToBits");` marks every
// constraint and variable emitted until the end of the block.
class GadgetScope {
 public:
  GadgetScope(ConstraintSystem* cs, std::string name) : cs_(cs) {
    cs_->BeginScope(std::move(name));
  }
  ~GadgetScope() { cs_->EndScope(); }
  GadgetScope(const GadgetScope&) = delete;
  GadgetScope& operator=(const GadgetScope&) = delete;

 private:
  ConstraintSystem* cs_;
};

}  // namespace nope

#endif  // SRC_R1CS_CONSTRAINT_SYSTEM_H_
