#include "src/r1cs/audit/audit.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace nope {
namespace {

constexpr size_t kMaxSynthesisAttempts = 10;
constexpr size_t kMaxFindingsPerKind = 3;
constexpr size_t kMaxDirtyVars = 4;

uint64_t HashName(const std::string& name) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a, for per-gadget seed diversity
  for (char c : name) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ull;
  }
  return h;
}

// Incremental satisfaction: re-evaluates only the constraints that mention a
// mutated variable, against a base assignment known to satisfy everything.
class DeltaChecker {
 public:
  explicit DeltaChecker(const ConstraintSystem& cs) : cs_(cs) {
    occ_.resize(cs.NumVariables());
    const std::vector<Constraint>& cons = cs.constraints();
    for (size_t i = 0; i < cons.size(); ++i) {
      for (const LC* lc : {&cons[i].a, &cons[i].b, &cons[i].c}) {
        for (const auto& [v, coeff] : lc->terms()) {
          occ_[v].push_back(i);
        }
      }
    }
    for (std::vector<size_t>& list : occ_) {
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    }
    stamp_.assign(cs.NumConstraints(), 0);
  }

  // `values` must equal the base satisfying assignment except at `dirty`.
  bool Satisfied(const std::vector<Fr>& values, const std::vector<Var>& dirty) {
    ++epoch_;
    const std::vector<Constraint>& cons = cs_.constraints();
    for (Var v : dirty) {
      for (size_t ci : occ_[v]) {
        if (stamp_[ci] == epoch_) {
          continue;
        }
        stamp_[ci] = epoch_;
        const Constraint& con = cons[ci];
        if (EvalLc(con.a, values) * EvalLc(con.b, values) != EvalLc(con.c, values)) {
          return false;
        }
      }
    }
    return true;
  }

 private:
  const ConstraintSystem& cs_;
  std::vector<std::vector<size_t>> occ_;
  std::vector<uint64_t> stamp_;
  uint64_t epoch_ = 0;
};

// One witness-variable edit drawn from a fixed op table. Returns a
// description for findings.
std::string MutateVar(std::vector<Fr>* values, Var v, Rng* rng) {
  char buf[96];
  switch (rng->NextBelow(8)) {
    case 0:
      (*values)[v] = Fr::Zero();
      std::snprintf(buf, sizeof(buf), "v%u=0", v);
      break;
    case 1:
      (*values)[v] = Fr::One();
      std::snprintf(buf, sizeof(buf), "v%u=1", v);
      break;
    case 2:
      (*values)[v] = (*values)[v] + Fr::One();
      std::snprintf(buf, sizeof(buf), "v%u+=1", v);
      break;
    case 3:
      (*values)[v] = (*values)[v] - Fr::One();
      std::snprintf(buf, sizeof(buf), "v%u-=1", v);
      break;
    case 4:
      (*values)[v] = Fr::Random(rng);
      std::snprintf(buf, sizeof(buf), "v%u=random", v);
      break;
    case 5: {
      Var src = static_cast<Var>(1 + rng->NextBelow(values->size() - 1));
      (*values)[v] = (*values)[src];
      std::snprintf(buf, sizeof(buf), "v%u=v%u", v, src);
      break;
    }
    case 6:
      (*values)[v] = -(*values)[v];
      std::snprintf(buf, sizeof(buf), "v%u=-v%u", v, v);
      break;
    default: {
      uint64_t shift = 1 + rng->NextBelow(16);
      (*values)[v] = (*values)[v] * Fr::FromU64(uint64_t{1} << shift);
      std::snprintf(buf, sizeof(buf), "v%u<<=%llu", v, static_cast<unsigned long long>(shift));
      break;
    }
  }
  return buf;
}

struct Mutant {
  std::vector<Var> dirty;
  std::string desc;
};

// Applies 1..kMaxDirtyVars edits to *values (restores are the caller's job
// via the returned dirty list and the base assignment).
Mutant DrawMutant(std::vector<Fr>* values, Rng* rng) {
  Mutant m;
  size_t k = 1 + rng->NextBelow(kMaxDirtyVars);
  for (size_t i = 0; i < k; ++i) {
    if (values->size() <= 1) {
      break;
    }
    Var v = static_cast<Var>(1 + rng->NextBelow(values->size() - 1));
    std::string desc = MutateVar(values, v, rng);
    m.dirty.push_back(v);
    m.desc += m.desc.empty() ? desc : "," + desc;
  }
  return m;
}

class FindingSink {
 public:
  FindingSink(GadgetAuditResult* result, const std::string& gadget)
      : result_(result), gadget_(gadget) {}

  void Add(AuditFinding::Kind kind, uint64_t seed, std::string detail) {
    size_t count = 0;
    for (const AuditFinding& f : result_->findings) {
      if (f.kind == kind) {
        ++count;
      }
    }
    if (count >= kMaxFindingsPerKind) {
      return;
    }
    result_->findings.push_back(AuditFinding{kind, gadget_, seed, std::move(detail)});
  }

 private:
  GadgetAuditResult* result_;
  std::string gadget_;
};

}  // namespace

const char* AuditFindingKindName(AuditFinding::Kind kind) {
  switch (kind) {
    case AuditFinding::Kind::kSynthesisFailed:
      return "synthesis_failed";
    case AuditFinding::Kind::kHonestUnsatisfied:
      return "honest_unsatisfied";
    case AuditFinding::Kind::kHonestSpecFails:
      return "honest_spec_fails";
    case AuditFinding::Kind::kSoundnessHole:
      return "soundness_hole";
    case AuditFinding::Kind::kCountModeMismatch:
      return "count_mode_mismatch";
    case AuditFinding::Kind::kOptLostWitness:
      return "opt_lost_witness";
    case AuditFinding::Kind::kOptAddedWitness:
      return "opt_added_witness";
    case AuditFinding::Kind::kOptSoundnessHole:
      return "opt_soundness_hole";
  }
  return "unknown";
}

GadgetAuditResult AuditGadget(const Gadget& gadget, const AuditOptions& options) {
  GadgetAuditResult result;
  result.name = gadget.name();
  size_t instances =
      gadget.IsExpensive() ? options.expensive_instances : options.instances;
  instances = std::max<size_t>(instances, 1);
  size_t per_instance = (options.min_assignments + instances - 1) / instances;
  FindingSink sink(&result, result.name);
  Rng seeder(options.seed ^ HashName(result.name));

  for (size_t inst = 0; inst < instances; ++inst) {
    uint64_t inst_seed = seeder.NextU64();

    // Synthesize with retry: gadgets may throw on degenerate draws.
    ConstraintSystem cs(ConstraintSystem::Mode::kProve);
    GadgetIo io;
    uint64_t used_seed = inst_seed;
    bool synthesized = false;
    std::string last_error = "unknown";
    for (size_t attempt = 0; attempt < kMaxSynthesisAttempts; ++attempt) {
      used_seed = inst_seed + attempt * 0x9e3779b97f4a7c15ull;
      cs = ConstraintSystem(ConstraintSystem::Mode::kProve);
      Rng rng(used_seed);
      try {
        io = gadget.Synthesize(&cs, &rng);
        synthesized = true;
        break;
      } catch (const std::exception& e) {
        last_error = e.what();
      }
    }
    if (!synthesized) {
      sink.Add(AuditFinding::Kind::kSynthesisFailed, inst_seed, last_error);
      continue;
    }
    ++result.instances;

    // kCount must report the identical shape for the identical draw.
    {
      ConstraintSystem counter(ConstraintSystem::Mode::kCount);
      Rng rng(used_seed);
      try {
        gadget.Synthesize(&counter, &rng);
        if (counter.NumConstraints() != cs.NumConstraints() ||
            counter.NumVariables() != cs.NumVariables()) {
          char buf[128];
          std::snprintf(buf, sizeof(buf), "kCount %zu/%zu vs kProve %zu/%zu (cons/vars)",
                        counter.NumConstraints(), counter.NumVariables(), cs.NumConstraints(),
                        cs.NumVariables());
          sink.Add(AuditFinding::Kind::kCountModeMismatch, used_seed, buf);
        }
      } catch (const std::exception& e) {
        sink.Add(AuditFinding::Kind::kCountModeMismatch, used_seed,
                 std::string("kCount synthesis threw: ") + e.what());
      }
    }

    // Honest-witness checks: completeness, then spec/synthesis agreement.
    const std::vector<Fr> honest = cs.values();
    ++result.assignments_checked;
    size_t bad = 0;
    if (!cs.SatisfiedBy(honest, &bad)) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "constraint %zu violated by honest witness", bad);
      sink.Add(AuditFinding::Kind::kHonestUnsatisfied, used_seed, buf);
      continue;  // the mutation walk needs a satisfying base
    }
    if (!gadget.SpecHolds(cs, io, honest)) {
      sink.Add(AuditFinding::Kind::kHonestSpecFails, used_seed, "spec rejects honest witness");
    }
    if (inst == 0) {
      result.constraints_pre = cs.NumConstraints();
    }

    // Optimized twin (differential oracle).
    OptimizeResult opt;
    std::vector<Fr> honest_post;
    bool have_opt = false;
    if (options.with_optimizer) {
      opt = Optimize(cs);
      honest_post = opt.MapAssignment(honest);
      have_opt = true;
      if (inst == 0) {
        result.constraints_post = opt.cs.NumConstraints();
      }
      ++result.assignments_checked;
      if (!opt.cs.SatisfiedBy(honest_post, &bad)) {
        char buf[80];
        std::snprintf(buf, sizeof(buf), "optimized constraint %zu rejects mapped honest witness",
                      bad);
        sink.Add(AuditFinding::Kind::kOptLostWitness, used_seed, buf);
        have_opt = false;  // the post-stream needs a satisfying base too
      }
    }

    // Pre-system stream: soundness search + pre->post direction.
    DeltaChecker pre_checker(cs);
    size_t pre_budget = have_opt ? per_instance / 2 : per_instance;
    {
      Rng mrng(used_seed ^ 0xa5a5a5a5a5a5a5a5ull);
      std::vector<Fr> work = honest;
      for (size_t i = 0; i < pre_budget; ++i) {
        Mutant m = DrawMutant(&work, &mrng);
        ++result.assignments_checked;
        if (pre_checker.Satisfied(work, m.dirty)) {
          ++result.accepted_pre;
          if (!gadget.SpecHolds(cs, io, work)) {
            sink.Add(AuditFinding::Kind::kSoundnessHole, used_seed,
                     "accepted assignment violates spec: " + m.desc);
          }
          if (have_opt) {
            std::vector<Fr> mapped = opt.MapAssignment(work);
            if (!opt.cs.SatisfiedBy(mapped)) {
              sink.Add(AuditFinding::Kind::kOptLostWitness, used_seed,
                       "pre-satisfying mutant rejected post-opt: " + m.desc);
            }
          }
        }
        for (Var v : m.dirty) {
          work[v] = honest[v];
        }
      }
    }

    // Post-system stream: post->pre direction (lift must satisfy and obey
    // the spec; otherwise the optimizer manufactured witnesses).
    if (have_opt) {
      DeltaChecker post_checker(opt.cs);
      Rng mrng(used_seed ^ 0x5a5a5a5a5a5a5a5aull);
      std::vector<Fr> work = honest_post;
      size_t post_budget = per_instance - pre_budget;
      for (size_t i = 0; i < post_budget; ++i) {
        Mutant m = DrawMutant(&work, &mrng);
        ++result.assignments_checked;
        if (post_checker.Satisfied(work, m.dirty)) {
          ++result.accepted_post;
          std::vector<Fr> lifted = opt.LiftAssignment(work);
          if (!cs.SatisfiedBy(lifted)) {
            sink.Add(AuditFinding::Kind::kOptAddedWitness, used_seed,
                     "post-satisfying mutant has non-satisfying lift: " + m.desc);
            if (!gadget.SpecHolds(cs, io, lifted)) {
              sink.Add(AuditFinding::Kind::kOptSoundnessHole, used_seed,
                       "and the lift violates the spec: " + m.desc);
            }
          } else if (!gadget.SpecHolds(cs, io, lifted)) {
            // Reachable pre-opt too: a genuine soundness hole.
            sink.Add(AuditFinding::Kind::kSoundnessHole, used_seed,
                     "post-stream lift violates spec: " + m.desc);
          }
        }
        for (Var v : m.dirty) {
          work[v] = honest_post[v];
        }
      }
    }
  }
  return result;
}

std::vector<GadgetAuditResult> AuditAll(const AuditOptions& options,
                                        const std::vector<const Gadget*>& gadgets) {
  const std::vector<const Gadget*>& list =
      gadgets.empty() ? StandardGadgets() : gadgets;
  std::vector<GadgetAuditResult> results;
  for (const Gadget* g : list) {
    results.push_back(AuditGadget(*g, options));
  }
  return results;
}

std::string AuditSummary(const std::vector<GadgetAuditResult>& results) {
  std::string out;
  char line[256];
  for (const GadgetAuditResult& r : results) {
    std::snprintf(line, sizeof(line),
                  "%-24s inst=%zu asn=%zu acc_pre=%zu acc_post=%zu cons=%zu->%zu %s\n",
                  r.name.c_str(), r.instances, r.assignments_checked, r.accepted_pre,
                  r.accepted_post, r.constraints_pre, r.constraints_post,
                  r.Clean() ? "clean" : "FINDINGS");
    out += line;
    for (const AuditFinding& f : r.findings) {
      std::snprintf(line, sizeof(line), "  [%s] seed=%llu %s\n", AuditFindingKindName(f.kind),
                    static_cast<unsigned long long>(f.instance_seed), f.detail.c_str());
      out += line;
    }
  }
  return out;
}

}  // namespace nope
