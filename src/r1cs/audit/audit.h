// Per-gadget soundness/completeness audit harness (ROADMAP item 3).
//
// For every registered gadget the harness synthesizes seeded instances and
// then searches near the honest witness for two kinds of holes:
//   * soundness: an assignment that satisfies the constraints but violates
//     the gadget's declared spec (the constraints are too weak);
//   * completeness: a spec-valid drawn instance whose honest witness the
//     constraints reject (the constraints are too strong).
// With with_optimizer set, every instance is additionally optimized and a
// differential oracle asserts satisfiability-equivalence:
// each pre-system assignment that satisfies the original constraints must map
// to a satisfying post-system assignment, and each post-system assignment
// that satisfies the optimized constraints must lift to a satisfying (and
// spec-conforming) pre-system assignment.
//
// The search is a seeded mutation walk (the same spirit as the byte-level
// mutators in src/base/mutator.*, lifted to field elements): mutants differ
// from the honest witness in 1..4 variables, with value edits drawn from a
// fixed op table. Satisfaction of a mutant is decided incrementally — only
// constraints touching mutated variables are re-evaluated — so thousands of
// assignments per gadget stay cheap even on hash-sized systems.
#ifndef SRC_R1CS_AUDIT_AUDIT_H_
#define SRC_R1CS_AUDIT_AUDIT_H_

#include <string>
#include <vector>

#include "src/r1cs/gadget.h"
#include "src/r1cs/opt/optimizer.h"

namespace nope {

struct AuditOptions {
  uint64_t seed = 1;
  size_t instances = 4;            // seeded instances per gadget
  size_t expensive_instances = 2;  // for Gadget::IsExpensive() gadgets
  // Total mutated assignments per gadget (split across instances and across
  // the pre-/post-optimization search streams). The acceptance bar is 10^3.
  size_t min_assignments = 1000;
  bool with_optimizer = true;
};

struct AuditFinding {
  enum class Kind {
    kSynthesisFailed,    // every synthesis attempt threw
    kHonestUnsatisfied,  // completeness: honest witness rejected
    kHonestSpecFails,    // spec/synthesis disagreement on the honest witness
    kSoundnessHole,      // constraints accept a spec-violating assignment
    kCountModeMismatch,  // kCount and kProve disagree on counts
    kOptLostWitness,     // pre-satisfying assignment rejected post-opt
    kOptAddedWitness,    // post-satisfying assignment rejected pre-opt
    kOptSoundnessHole,   // post-only witness whose lift violates the spec
  };
  Kind kind;
  std::string gadget;
  uint64_t instance_seed = 0;
  std::string detail;
};

const char* AuditFindingKindName(AuditFinding::Kind kind);

struct GadgetAuditResult {
  std::string name;
  size_t instances = 0;
  size_t assignments_checked = 0;  // honest + mutants, both streams
  size_t accepted_pre = 0;         // mutants satisfying the original system
  size_t accepted_post = 0;        // mutants satisfying the optimized system
  size_t constraints_pre = 0;      // of the first instance
  size_t constraints_post = 0;
  std::vector<AuditFinding> findings;

  bool Clean() const { return findings.empty(); }
};

GadgetAuditResult AuditGadget(const Gadget& gadget, const AuditOptions& options);

// Audits every gadget in `gadgets` (defaults to StandardGadgets() when empty).
std::vector<GadgetAuditResult> AuditAll(const AuditOptions& options,
                                        const std::vector<const Gadget*>& gadgets = {});

// One line per gadget plus one line per finding; for logs and test output.
std::string AuditSummary(const std::vector<GadgetAuditResult>& results);

}  // namespace nope

#endif  // SRC_R1CS_AUDIT_AUDIT_H_
