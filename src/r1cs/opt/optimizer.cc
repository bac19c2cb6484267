#include "src/r1cs/opt/optimizer.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

namespace nope {
namespace {

constexpr Var kGone = OptimizeResult::kEliminatedVar;

// Rounds of the fixed-point loop; each round runs every pass once.
constexpr size_t kMaxRounds = 8;
// Substitution budget: a variable is only folded out when
// (uses outside its defining constraint) * (expression terms) stays within
// this bound, so eliminations cannot blow up matrix density.
constexpr size_t kMaxFill = 64;

// Deterministic total order on canonical LCs: term count, then variable ids,
// then coefficients by their Montgomery limbs (canonical, so equal limbs mean
// equal values). Only used for map lookups, never iterated, so the order
// itself never reaches the output.
int CompareLc(const LC& x, const LC& y) {
  const auto& xt = x.terms();
  const auto& yt = y.terms();
  if (xt.size() != yt.size()) {
    return xt.size() < yt.size() ? -1 : 1;
  }
  for (size_t i = 0; i < xt.size(); ++i) {
    if (xt[i].first != yt[i].first) {
      return xt[i].first < yt[i].first ? -1 : 1;
    }
  }
  for (size_t i = 0; i < xt.size(); ++i) {
    const auto& xl = xt[i].second.limbs();
    const auto& yl = yt[i].second.limbs();
    if (xl != yl) {
      return xl < yl ? -1 : 1;
    }
  }
  return 0;
}

bool SameLc(const LC& x, const LC& y) { return CompareLc(x, y) == 0; }

// a*b is commutative, so constraints are keyed with the smaller side first.
struct ConstraintKey {
  LC a, b, c;

  static ConstraintKey Of(const Constraint& con) {
    ConstraintKey k;
    if (CompareLc(con.b, con.a) < 0) {
      k.a = con.b;
      k.b = con.a;
    } else {
      k.a = con.a;
      k.b = con.b;
    }
    k.c = con.c;
    return k;
  }
  bool Matches(const Constraint& con) const {
    ConstraintKey other = Of(con);
    return SameLc(a, other.a) && SameLc(b, other.b) && SameLc(c, other.c);
  }
};

struct ConstraintKeyLess {
  bool operator()(const ConstraintKey& x, const ConstraintKey& y) const {
    int c = CompareLc(x.a, y.a);
    if (c != 0) {
      return c < 0;
    }
    c = CompareLc(x.b, y.b);
    if (c != 0) {
      return c < 0;
    }
    return CompareLc(x.c, y.c) < 0;
  }
};

struct ProductKey {
  LC a, b;

  static ProductKey Of(const Constraint& con) {
    ProductKey k;
    if (CompareLc(con.b, con.a) < 0) {
      k.a = con.b;
      k.b = con.a;
    } else {
      k.a = con.a;
      k.b = con.b;
    }
    return k;
  }
  bool Matches(const Constraint& con) const {
    ProductKey other = Of(con);
    return SameLc(a, other.a) && SameLc(b, other.b);
  }
};

struct ProductKeyLess {
  bool operator()(const ProductKey& x, const ProductKey& y) const {
    int c = CompareLc(x.a, y.a);
    if (c != 0) {
      return c < 0;
    }
    return CompareLc(x.b, y.b) < 0;
  }
};

// The normal form of a folded/linear constraint: L * 1 = 0.
bool IsLinearForm(const Constraint& con) {
  return con.c.IsEmpty() && con.b.terms().size() == 1 &&
         con.b.terms()[0].first == kOneVar && con.b.terms()[0].second == Fr::One();
}

bool ContainsVar(const LC& lc, Var v) {
  for (const auto& [u, c] : lc.terms()) {
    if (u == v) {
      return true;
    }
  }
  return false;
}

bool ContainsVar(const Constraint& con, Var v) {
  return ContainsVar(con.a, v) || ContainsVar(con.b, v) || ContainsVar(con.c, v);
}

// Mutable working state for the pass loop. `occ` may contain stale or
// duplicate entries; every consumer re-verifies membership against the
// current constraint before acting.
struct Work {
  std::vector<Constraint> cons;
  std::vector<uint32_t> scope;  // per constraint, original innermost scope
  std::vector<char> dead;       // constraint tombstones
  std::vector<char> gone;      // per variable
  std::vector<std::vector<uint32_t>> occ;
  size_t num_public = 0;
};

void IndexConstraint(Work* w, uint32_t ci) {
  for (const LC* side : {&w->cons[ci].a, &w->cons[ci].b, &w->cons[ci].c}) {
    for (const auto& [v, c] : side->terms()) {
      if (v != kOneVar) {
        w->occ[v].push_back(ci);
      }
    }
  }
}

void BuildOcc(Work* w, size_t num_vars) {
  w->occ.assign(num_vars, {});
  for (uint32_t ci = 0; ci < w->cons.size(); ++ci) {
    if (!w->dead[ci]) {
      IndexConstraint(w, ci);
    }
  }
}

// Distinct live constraints (other than `exclude`) that currently mention v.
size_t LiveUses(const Work& w, Var v, uint32_t exclude, std::vector<uint32_t>* out = nullptr) {
  std::vector<uint32_t> cands = w.occ[v];
  std::sort(cands.begin(), cands.end());
  cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
  size_t n = 0;
  for (uint32_t ci : cands) {
    if (ci == exclude || w.dead[ci]) {
      continue;
    }
    if (ContainsVar(w.cons[ci], v)) {
      ++n;
      if (out != nullptr) {
        out->push_back(ci);
      }
    }
  }
  return n;
}

// Replaces v by (cst + sum terms) inside lc. Returns whether v occurred.
bool SubstVarLc(LC* lc, Var v, const std::vector<std::pair<Var, Fr>>& terms, const Fr& cst) {
  bool hit = false;
  for (const auto& [u, k] : lc->terms()) {
    if (u == v) {
      hit = true;
      break;
    }
  }
  if (!hit) {
    return false;
  }
  LC out;
  for (const auto& [u, k] : lc->terms()) {
    if (u != v) {
      out.Add(u, k);
      continue;
    }
    if (!cst.IsZero()) {
      out.Add(kOneVar, k * cst);
    }
    for (const auto& [tv, tc] : terms) {
      out.Add(tv, k * tc);
    }
  }
  out.Canonicalize();
  *lc = out;
  return true;
}

// Rewrites every remaining use of v with its linear definition and keeps the
// occurrence index complete (new mentions are appended).
void ApplySubst(Work* w, Var v, const std::vector<std::pair<Var, Fr>>& terms, const Fr& cst,
                uint32_t exclude) {
  std::vector<uint32_t> uses;
  LiveUses(*w, v, exclude, &uses);
  for (uint32_t ci : uses) {
    Constraint& con = w->cons[ci];
    SubstVarLc(&con.a, v, terms, cst);
    SubstVarLc(&con.b, v, terms, cst);
    SubstVarLc(&con.c, v, terms, cst);
    for (const auto& [u, c] : terms) {
      if (u != kOneVar) {
        w->occ[u].push_back(ci);
      }
    }
  }
}

// Pass (a): constant folding. a*b = c with a constant side becomes the
// linear form L * 1 = 0; trivially-true constraints are tombstoned.
bool FoldPass(Work* w, OptStats* st) {
  bool changed = false;
  for (uint32_t ci = 0; ci < w->cons.size(); ++ci) {
    if (w->dead[ci]) {
      continue;
    }
    Constraint& con = w->cons[ci];
    if (IsLinearForm(con)) {
      if (con.a.IsEmpty()) {
        w->dead[ci] = 1;
        ++st->dropped_trivial;
        changed = true;
      }
      // A nonzero-constant L is an unsatisfiable marker: keep it so the
      // optimized system rejects exactly when the original does.
      continue;
    }
    bool ac = con.a.IsConstant();
    bool bc = con.b.IsConstant();
    if (!ac && !bc) {
      continue;
    }
    LC l;
    if (ac && bc) {
      l = LC::Constant(con.a.ConstantValue() * con.b.ConstantValue()) - con.c;
    } else if (ac) {
      l = con.b * con.a.ConstantValue() - con.c;
    } else {
      l = con.a * con.b.ConstantValue() - con.c;
    }
    l.Canonicalize();
    if (l.IsEmpty()) {
      w->dead[ci] = 1;
      ++st->dropped_trivial;
      changed = true;
      continue;
    }
    con = Constraint{l, LC(kOneVar), LC()};
    ++st->folded_constant;
    changed = true;
  }
  return changed;
}

// Linear substitution: a constraint L * 1 = 0 defines one of its variables;
// fold the definition into every use when the fill-in stays within budget.
// The defined variable is chosen deterministically (fewest uses, then lowest
// id) so matrices stay a pure function of the input system.
bool SubstLinearPass(Work* w, OptStats* st, std::vector<Elimination>* elims) {
  bool changed = false;
  for (uint32_t ci = 0; ci < w->cons.size(); ++ci) {
    if (w->dead[ci]) {
      continue;
    }
    Constraint& con = w->cons[ci];
    if (!IsLinearForm(con) || con.a.IsConstant()) {
      continue;
    }
    Var best = kGone;
    Fr best_coeff;
    size_t best_uses = 0;
    for (const auto& [v, cv] : con.a.terms()) {
      if (v == kOneVar || v < w->num_public || w->gone[v]) {
        continue;
      }
      size_t uses = LiveUses(*w, v, ci);
      if (best == kGone || uses < best_uses) {
        best = v;
        best_coeff = cv;
        best_uses = uses;
      }
    }
    if (best == kGone) {
      continue;
    }
    size_t expr_terms = con.a.terms().size() - 1;
    if (best_uses * expr_terms > kMaxFill) {
      continue;
    }
    // cv * v + rest = 0  =>  v = rest * (-cv)^-1.
    Fr inv = (-best_coeff).Inverse();
    Elimination e;
    e.kind = Elimination::Kind::kLinear;
    e.var = best;
    e.constant = Fr::Zero();
    for (const auto& [u, k] : con.a.terms()) {
      if (u == best) {
        continue;
      }
      if (u == kOneVar) {
        e.constant = k * inv;
      } else {
        e.terms.emplace_back(u, k * inv);
      }
    }
    w->dead[ci] = 1;
    w->gone[best] = 1;
    ApplySubst(w, best, e.terms, e.constant, ci);
    elims->push_back(std::move(e));
    ++st->substituted_vars;
    changed = true;
  }
  return changed;
}

// Pass (c): exact duplicate constraints collapse to one, and two products
// with identical (a, b) sides that each define a fresh variable share one
// definition (the second variable becomes a scaling of the first).
bool SharePass(Work* w, OptStats* st, std::vector<Elimination>* elims) {
  bool changed = false;
  struct Def {
    uint32_t ci;
    Var v;
    Fr k;
  };
  std::map<ConstraintKey, uint32_t, ConstraintKeyLess> exact;
  std::map<ProductKey, Def, ProductKeyLess> defs;
  for (uint32_t ci = 0; ci < w->cons.size(); ++ci) {
    if (w->dead[ci]) {
      continue;
    }
    Constraint& con = w->cons[ci];
    auto [it, inserted] = exact.try_emplace(ConstraintKey::Of(con), ci);
    if (!inserted) {
      uint32_t first = it->second;
      // Guard against stale keys: a substitution after insertion may have
      // rewritten the stored constraint.
      if (!w->dead[first] && it->first.Matches(w->cons[first])) {
        w->dead[ci] = 1;
        ++st->deduped_constraints;
        changed = true;
        continue;
      }
    }
    if (IsLinearForm(con) || con.a.IsConstant() || con.b.IsConstant()) {
      continue;
    }
    if (con.c.terms().size() != 1) {
      continue;
    }
    auto [v, k] = con.c.terms()[0];
    if (v == kOneVar || v < w->num_public || w->gone[v]) {
      continue;
    }
    if (ContainsVar(con.a, v) || ContainsVar(con.b, v)) {
      continue;
    }
    auto [dit, dins] = defs.try_emplace(ProductKey::Of(con), Def{ci, v, k});
    if (dins) {
      continue;
    }
    Def& d = dit->second;
    if (w->dead[d.ci] || w->gone[d.v] || !dit->first.Matches(w->cons[d.ci])) {
      continue;  // stale entry; the next round rebuilds the map
    }
    if (d.v == v) {
      if (d.k == k) {
        w->dead[ci] = 1;
        ++st->deduped_constraints;
        changed = true;
      }
      continue;
    }
    // a*b = d.k * d.v and a*b = k * v  =>  v = (d.k / k) * d.v.
    Elimination e;
    e.kind = Elimination::Kind::kLinear;
    e.var = v;
    e.constant = Fr::Zero();
    e.terms.emplace_back(d.v, d.k * k.Inverse());
    w->dead[ci] = 1;
    w->gone[v] = 1;
    ApplySubst(w, v, e.terms, e.constant, ci);
    elims->push_back(std::move(e));
    ++st->shared_products;
    changed = true;
  }
  return changed;
}

// Pass (b): variables used by no live constraint are dropped, and a
// single-use defining product a*b = k*v is projected out with its
// constraint (v's value is recomputable from a and b).
bool DeadPass(Work* w, OptStats* st, std::vector<Elimination>* elims, size_t num_vars) {
  bool changed = false;
  std::vector<uint32_t> count(num_vars, 0);
  std::vector<uint32_t> last_ci(num_vars, 0);
  for (uint32_t ci = 0; ci < w->cons.size(); ++ci) {
    if (w->dead[ci]) {
      continue;
    }
    for (const LC* side : {&w->cons[ci].a, &w->cons[ci].b, &w->cons[ci].c}) {
      for (const auto& [v, c] : side->terms()) {
        if (v != kOneVar) {
          ++count[v];
          last_ci[v] = ci;
        }
      }
    }
  }
  for (Var v = static_cast<Var>(w->num_public); v < num_vars; ++v) {
    if (w->gone[v]) {
      continue;
    }
    if (count[v] == 0) {
      Elimination e;
      e.kind = Elimination::Kind::kDead;
      e.var = v;
      w->gone[v] = 1;
      elims->push_back(std::move(e));
      ++st->dead_vars;
      changed = true;
      continue;
    }
    if (count[v] != 1) {
      continue;
    }
    uint32_t ci = last_ci[v];
    if (w->dead[ci]) {
      continue;  // became stale within this pass; next round reclassifies
    }
    const Constraint& con = w->cons[ci];
    if (con.c.terms().size() != 1 || con.c.terms()[0].first != v) {
      continue;
    }
    if (con.a.IsConstant() || con.b.IsConstant()) {
      continue;  // FoldPass turns these into linear form first
    }
    Elimination e;
    e.kind = Elimination::Kind::kProduct;
    e.var = v;
    e.a = con.a;
    e.b = con.b;
    e.scale = con.c.terms()[0].second.Inverse();
    w->dead[ci] = 1;
    w->gone[v] = 1;
    elims->push_back(std::move(e));
    ++st->projected_products;
    changed = true;
  }
  return changed;
}

// Splits a canonical LC into its kOneVar coefficient and its variable part.
void SplitConstant(const LC& lc, Fr* cst, LC* vars) {
  *cst = Fr::Zero();
  *vars = LC();
  for (const auto& [v, k] : lc.terms()) {
    if (v == kOneVar) {
      *cst = k;
    } else {
      vars->Add(v, k);
    }
  }
}

// Pass (f): affine product sharing. Two products that share one exact side S
// and whose other sides have the same variable part V satisfy the identity
//   S*(V + k1) = c1  and  S*(V + k2) = c2   =>   c2 - c1 - (k2 - k1)*S = 0,
// so the later product is replaced by that linear constraint (k2 == k1 covers
// products with identical sides but different output combinations). Nothing
// is eliminated here; SubstLinearPass folds the linear form on a later round.
bool AffineSharePass(Work* w, OptStats* st) {
  struct AffineKey {
    LC shared;  // one full side, constant included
    LC other_vars;
  };
  struct AffineKeyLess {
    bool operator()(const AffineKey& x, const AffineKey& y) const {
      int c = CompareLc(x.shared, y.shared);
      if (c != 0) {
        return c < 0;
      }
      return CompareLc(x.other_vars, y.other_vars) < 0;
    }
  };
  bool changed = false;
  std::map<AffineKey, uint32_t, AffineKeyLess> reps;
  for (uint32_t ci = 0; ci < w->cons.size(); ++ci) {
    if (w->dead[ci]) {
      continue;
    }
    Constraint& con = w->cons[ci];
    if (IsLinearForm(con) || con.a.IsConstant() || con.b.IsConstant()) {
      continue;
    }
    for (int ori = 0; ori < 2; ++ori) {
      const LC& shared = ori == 0 ? con.a : con.b;
      const LC& other = ori == 0 ? con.b : con.a;
      Fr other_cst;
      LC other_vars;
      SplitConstant(other, &other_cst, &other_vars);
      auto [it, inserted] = reps.try_emplace(AffineKey{shared, other_vars}, ci);
      if (inserted) {
        continue;
      }
      uint32_t pi = it->second;
      if (pi == ci || w->dead[pi]) {
        continue;
      }
      // Re-derive the stored constraint's decomposition: a substitution after
      // insertion may have rewritten it, in which case the key is stale.
      const Constraint& pcon = w->cons[pi];
      if (IsLinearForm(pcon) || pcon.a.IsConstant() || pcon.b.IsConstant()) {
        continue;
      }
      bool matched = false;
      Fr rep_cst;
      for (int pori = 0; pori < 2 && !matched; ++pori) {
        const LC& pshared = pori == 0 ? pcon.a : pcon.b;
        const LC& pother = pori == 0 ? pcon.b : pcon.a;
        if (!SameLc(pshared, it->first.shared)) {
          continue;
        }
        Fr pcst;
        LC pvars;
        SplitConstant(pother, &pcst, &pvars);
        if (SameLc(pvars, it->first.other_vars)) {
          matched = true;
          rep_cst = pcst;
        }
      }
      if (!matched) {
        continue;
      }
      LC l = con.c - pcon.c - it->first.shared * (other_cst - rep_cst);
      l.Canonicalize();
      if (l.IsEmpty()) {
        w->dead[ci] = 1;
        ++st->dropped_trivial;
      } else {
        con = Constraint{l, LC(kOneVar), LC()};
        for (const auto& [v, k] : l.terms()) {
          if (v != kOneVar) {
            w->occ[v].push_back(ci);
          }
        }
        ++st->affine_rewrites;
      }
      changed = true;
      break;
    }
  }
  return changed;
}

// FNV-1a over 64-bit words.
uint64_t HashWord(uint64_t h, uint64_t v) { return (h ^ v) * 0x100000001b3ull; }

uint64_t HashFr(uint64_t h, const Fr& k) {
  for (uint64_t limb : k.limbs()) {
    h = HashWord(h, limb);
  }
  return h;
}

bool InSpanVarRange(const ScopeSpan& s, Var v) {
  return v >= s.first_var && v < s.first_var + s.num_vars;
}

// Normalized stream hash of a span: local variables by position, external
// variables by id. All externals referenced by a span predate its first local
// (constraints only mention already-allocated wires), so the canonical raw
// ordering "externals ascending, then locals ascending" is stable across
// structurally identical spans. `num_external` counts references to wires
// outside the span: a span with none is a pure allocation (it range-checks
// witness data that only later constraints bind), and two such spans match
// structurally while carrying different data, so they must never unify.
uint64_t HashSpanStream(const Work& w, const ScopeSpan& s, size_t* num_external) {
  *num_external = 0;
  uint64_t h = 1469598103934665603ull;
  for (char c : s.name) {
    h = HashWord(h, static_cast<uint64_t>(c));
  }
  h = HashWord(h, s.num_constraints);
  h = HashWord(h, s.num_vars);
  for (size_t ci = s.first_constraint; ci < s.first_constraint + s.num_constraints; ++ci) {
    const Constraint& con = w.cons[ci];
    for (const LC* side : {&con.a, &con.b, &con.c}) {
      h = HashWord(h, side->terms().size());
      for (const auto& [v, k] : side->terms()) {
        if (v == kOneVar) {
          h = HashWord(h, 1);
        } else if (InSpanVarRange(s, v)) {
          h = HashWord(h, 2);
          h = HashWord(h, v - s.first_var);
        } else {
          h = HashWord(h, 3);
          h = HashWord(h, v);
          ++*num_external;
        }
        h = HashFr(h, k);
      }
    }
  }
  return h;
}

// Attempts to unify span q onto rep span p: every constraint of q must equal
// the corresponding constraint of p once q's locals are renamed positionally
// onto p's. On success the referenced locals are aliased (kLinear
// eliminations) and every live use is rewritten, which turns q's constraint
// range into exact duplicates of p's for SharePass to collapse.
bool TryUnifySpans(Work* w, const ScopeSpan& p, const ScopeSpan& q, OptStats* st,
                   std::vector<Elimination>* elims) {
  if (p.num_constraints != q.num_constraints || p.num_vars != q.num_vars) {
    return false;
  }
  if (p.first_constraint + p.num_constraints > q.first_constraint) {
    return false;  // overlapping (e.g. nested same-name) spans
  }
  if (p.first_var + p.num_vars > q.first_var && q.first_var + q.num_vars > p.first_var) {
    return false;
  }
  std::vector<char> referenced(q.num_vars, 0);
  for (size_t i = 0; i < q.num_constraints; ++i) {
    const Constraint& pc = w->cons[p.first_constraint + i];
    const Constraint& qc = w->cons[q.first_constraint + i];
    if (w->dead[p.first_constraint + i] != w->dead[q.first_constraint + i]) {
      return false;
    }
    const LC* psides[3] = {&pc.a, &pc.b, &pc.c};
    const LC* qsides[3] = {&qc.a, &qc.b, &qc.c};
    for (int side = 0; side < 3; ++side) {
      LC remapped;
      for (const auto& [v, k] : qsides[side]->terms()) {
        if (v != kOneVar && InSpanVarRange(q, v)) {
          remapped.Add(p.first_var + (v - q.first_var), k);
        } else {
          remapped.Add(v, k);
        }
      }
      remapped.Canonicalize();
      if (!SameLc(*psides[side], remapped)) {
        return false;
      }
      for (const auto& [v, k] : qsides[side]->terms()) {
        if (v != kOneVar && InSpanVarRange(q, v)) {
          referenced[v - q.first_var] = 1;
        }
      }
    }
  }
  // Validate before mutating: every alias source and target must be live.
  size_t aliases = 0;
  for (size_t o = 0; o < q.num_vars; ++o) {
    if (!referenced[o]) {
      continue;
    }
    if (w->gone[q.first_var + o] || w->gone[p.first_var + o]) {
      return false;
    }
    ++aliases;
  }
  if (aliases == 0) {
    return false;  // already identical; plain dedupe handles it
  }
  const uint32_t no_exclude = static_cast<uint32_t>(w->cons.size());
  for (size_t o = 0; o < q.num_vars; ++o) {
    if (!referenced[o]) {
      continue;
    }
    Elimination e;
    e.kind = Elimination::Kind::kLinear;
    e.var = q.first_var + o;
    e.constant = Fr::Zero();
    e.terms.emplace_back(p.first_var + o, Fr::One());
    w->gone[e.var] = 1;
    ApplySubst(w, e.var, e.terms, e.constant, no_exclude);
    elims->push_back(std::move(e));
    ++st->unified_vars;
  }
  ++st->unified_spans;
  return true;
}

// Pass (e): span unification. Runs once, before any constraint is moved or
// tombstoned, so scope spans still line up with constraint indices. Spans are
// processed outermost-first in emission order: a unified producer span
// rewrites its consumers' constraints before those consumers are hashed, so
// chains of duplicated gadgets (slice feeding mask feeding hash) collapse in
// one sweep.
bool UnifySpansPass(Work* w, const ConstraintSystem& cs, OptStats* st,
                    std::vector<Elimination>* elims) {
  const std::vector<ScopeSpan>& spans = cs.scopes();
  if (spans.empty()) {
    return false;
  }
  std::vector<uint32_t> order(spans.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    if (spans[x].first_constraint != spans[y].first_constraint) {
      return spans[x].first_constraint < spans[y].first_constraint;
    }
    return spans[x].depth < spans[y].depth;
  });
  bool changed = false;
  std::map<uint64_t, std::vector<uint32_t>> reps;
  for (uint32_t si : order) {
    const ScopeSpan& s = spans[si];
    if (s.num_constraints == 0 || s.num_vars == 0 || s.first_var < w->num_public) {
      continue;
    }
    if (s.first_constraint + s.num_constraints > w->cons.size()) {
      continue;
    }
    size_t num_external = 0;
    uint64_t h = HashSpanStream(*w, s, &num_external);
    if (num_external == 0) {
      continue;  // pure allocation span; see HashSpanStream
    }
    std::vector<uint32_t>& bucket = reps[h];
    bool unified = false;
    for (uint32_t pi : bucket) {
      if (spans[pi].name == s.name && TryUnifySpans(w, spans[pi], s, st, elims)) {
        unified = true;
        changed = true;
        break;
      }
    }
    if (!unified) {
      bucket.push_back(si);
    }
  }
  return changed;
}

LC RemapLc(const LC& lc, const std::vector<Var>& var_map) {
  LC out;
  for (const auto& [v, c] : lc.terms()) {
    Var nv = v == kOneVar ? kOneVar : var_map[v];
    if (nv == kGone) {
      throw std::logic_error("optimizer invariant violated: live constraint references "
                             "an eliminated variable");
    }
    out.Add(nv, c);
  }
  return out;
}

}  // namespace

std::vector<uint32_t> InnermostConstraintScopes(const ConstraintSystem& cs) {
  std::vector<uint32_t> out(cs.NumConstraints(), OptimizeResult::kNoScope);
  const std::vector<ScopeSpan>& spans = cs.scopes();
  // scopes() is in BeginScope (pre-)order, so children follow their parent
  // and overwrite its attribution over their subrange. '~'-prefixed primitive
  // spans are transparent: their constraints stay attributed to the nearest
  // enclosing gadget.
  for (size_t s = 0; s < spans.size(); ++s) {
    if (!spans[s].name.empty() && spans[s].name[0] == '~') {
      continue;
    }
    size_t end = std::min(spans[s].first_constraint + spans[s].num_constraints, out.size());
    for (size_t i = spans[s].first_constraint; i < end; ++i) {
      out[i] = static_cast<uint32_t>(s);
    }
  }
  return out;
}

std::vector<uint32_t> InnermostVarScopes(const ConstraintSystem& cs) {
  std::vector<uint32_t> out(cs.NumVariables(), OptimizeResult::kNoScope);
  const std::vector<ScopeSpan>& spans = cs.scopes();
  for (size_t s = 0; s < spans.size(); ++s) {
    if (!spans[s].name.empty() && spans[s].name[0] == '~') {
      continue;
    }
    size_t end = std::min(spans[s].first_var + spans[s].num_vars, out.size());
    for (size_t i = spans[s].first_var; i < end; ++i) {
      out[i] = static_cast<uint32_t>(s);
    }
  }
  return out;
}

std::vector<Fr> OptimizeResult::MapAssignment(const std::vector<Fr>& old_values) const {
  if (old_values.size() != var_map.size()) {
    throw std::invalid_argument("MapAssignment: assignment has the wrong arity");
  }
  std::vector<Fr> out(inverse_map.size());
  for (size_t i = 0; i < inverse_map.size(); ++i) {
    out[i] = old_values[inverse_map[i]];
  }
  return out;
}

std::vector<Fr> OptimizeResult::LiftAssignment(const std::vector<Fr>& new_values) const {
  if (new_values.size() != inverse_map.size()) {
    throw std::invalid_argument("LiftAssignment: assignment has the wrong arity");
  }
  std::vector<Fr> out(var_map.size(), Fr::Zero());
  for (size_t i = 0; i < inverse_map.size(); ++i) {
    out[inverse_map[i]] = new_values[i];
  }
  // Later eliminations only reference variables that survived longer, so the
  // reverse replay sees every referenced value already computed.
  for (auto it = eliminations.rbegin(); it != eliminations.rend(); ++it) {
    switch (it->kind) {
      case Elimination::Kind::kDead:
        out[it->var] = Fr::Zero();
        break;
      case Elimination::Kind::kLinear: {
        Fr acc = it->constant;
        for (const auto& [u, k] : it->terms) {
          acc = acc + out[u] * k;
        }
        out[it->var] = acc;
        break;
      }
      case Elimination::Kind::kProduct:
        out[it->var] = it->scale * EvalLc(it->a, out) * EvalLc(it->b, out);
        break;
    }
  }
  return out;
}

OptimizeResult Optimize(const ConstraintSystem& cs) {
  if (cs.mode() != ConstraintSystem::Mode::kProve) {
    throw std::logic_error("Optimize requires a kProve-mode system");
  }
  const size_t num_vars = cs.NumVariables();
  Work w;
  w.num_public = cs.NumPublic();
  w.cons = cs.constraints();
  for (Constraint& con : w.cons) {
    con.a.Canonicalize();
    con.b.Canonicalize();
    con.c.Canonicalize();
  }
  w.scope = InnermostConstraintScopes(cs);
  w.dead.assign(w.cons.size(), 0);
  w.gone.assign(num_vars, 0);

  OptimizeResult res;
  res.stats.constraints_before = w.cons.size();
  res.stats.vars_before = num_vars;

  // Must run before any pass reorders or tombstones constraints: scope
  // spans index into the original constraint layout.
  BuildOcc(&w, num_vars);
  UnifySpansPass(&w, cs, &res.stats, &res.eliminations);

  bool changed = true;
  while (changed && res.stats.rounds < kMaxRounds) {
    ++res.stats.rounds;
    changed = false;
    BuildOcc(&w, num_vars);
    changed = FoldPass(&w, &res.stats) || changed;
    changed = SubstLinearPass(&w, &res.stats, &res.eliminations) || changed;
    changed = SharePass(&w, &res.stats, &res.eliminations) || changed;
    changed = AffineSharePass(&w, &res.stats) || changed;
    changed = DeadPass(&w, &res.stats, &res.eliminations, num_vars) || changed;
  }

  // Compact: public inputs keep their ids, surviving witnesses keep their
  // relative order, live constraints keep their original order.
  const std::vector<Fr>& values = cs.values();
  res.var_map.assign(num_vars, OptimizeResult::kEliminatedVar);
  res.inverse_map.clear();
  ConstraintSystem out(ConstraintSystem::Mode::kProve);
  res.var_map[kOneVar] = kOneVar;
  res.inverse_map.push_back(kOneVar);
  for (Var v = 1; v < w.num_public; ++v) {
    res.var_map[v] = out.AddPublicInput(values[v]);
    res.inverse_map.push_back(v);
  }
  for (Var v = static_cast<Var>(w.num_public); v < num_vars; ++v) {
    if (!w.gone[v]) {
      res.var_map[v] = out.AddWitness(values[v]);
      res.inverse_map.push_back(v);
    }
  }
  for (uint32_t ci = 0; ci < w.cons.size(); ++ci) {
    if (w.dead[ci]) {
      continue;
    }
    const Constraint& con = w.cons[ci];
    out.Enforce(RemapLc(con.a, res.var_map), RemapLc(con.b, res.var_map),
                RemapLc(con.c, res.var_map));
    res.constraint_scope.push_back(w.scope[ci]);
  }
  res.stats.constraints_after = out.NumConstraints();
  res.stats.vars_after = out.NumVariables();
  res.cs = std::move(out);
  return res;
}

}  // namespace nope
