#include "src/r1cs/constraint_system.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace nope {

LinearCombination LinearCombination::Constant(const Fr& c) {
  LinearCombination lc;
  if (!c.IsZero()) {
    lc.terms_.emplace_back(kOneVar, c);
  }
  return lc;
}

LinearCombination& LinearCombination::Add(Var v, const Fr& coeff) {
  if (!coeff.IsZero()) {
    terms_.emplace_back(v, coeff);
  }
  return *this;
}

LinearCombination LinearCombination::operator+(const LinearCombination& o) const {
  LinearCombination out = *this;
  out.terms_.insert(out.terms_.end(), o.terms_.begin(), o.terms_.end());
  return out;
}

LinearCombination LinearCombination::operator-(const LinearCombination& o) const {
  LinearCombination out = *this;
  for (const auto& [v, c] : o.terms_) {
    out.terms_.emplace_back(v, -c);
  }
  return out;
}

LinearCombination LinearCombination::operator*(const Fr& s) const {
  LinearCombination out;
  if (s.IsZero()) {
    return out;
  }
  out.terms_.reserve(terms_.size());
  for (const auto& [v, c] : terms_) {
    out.terms_.emplace_back(v, c * s);
  }
  return out;
}

LinearCombination& LinearCombination::Canonicalize() {
  if (terms_.empty()) {
    return *this;
  }
  std::sort(terms_.begin(), terms_.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  size_t out = 0;
  for (size_t i = 0; i < terms_.size();) {
    Var v = terms_[i].first;
    Fr sum = terms_[i].second;
    for (++i; i < terms_.size() && terms_[i].first == v; ++i) {
      sum = sum + terms_[i].second;
    }
    if (!sum.IsZero()) {
      terms_[out++] = {v, sum};
    }
  }
  terms_.resize(out);
  return *this;
}

bool LinearCombination::IsConstant() const {
  for (const auto& [v, c] : terms_) {
    if (v != kOneVar) {
      return false;
    }
  }
  return true;
}

Fr LinearCombination::ConstantValue() const {
  Fr sum = Fr::Zero();
  for (const auto& [v, c] : terms_) {
    if (v == kOneVar) {
      sum = sum + c;
    }
  }
  return sum;
}

Fr EvalLc(const LC& lc, std::span<const Fr> values) {
  Fr acc = Fr::Zero();
  for (const auto& [v, c] : lc.terms()) {
    acc = acc + values[v] * c;
  }
  return acc;
}

ConstraintSystem::ConstraintSystem(Mode mode) : mode_(mode) {
  values_.push_back(Fr::One());  // variable 0 == 1
  num_public_ = 1;
}

Var ConstraintSystem::AddPublicInput(const Fr& value) {
  if (witness_started_) {
    throw std::logic_error("public inputs must be allocated before witnesses");
  }
  values_.push_back(value);
  ++num_public_;
  return static_cast<Var>(values_.size() - 1);
}

Var ConstraintSystem::AddWitness(const Fr& value) {
  witness_started_ = true;
  values_.push_back(value);
  return static_cast<Var>(values_.size() - 1);
}

void ConstraintSystem::Enforce(const LC& a, const LC& b, const LC& c) {
  ++num_constraints_;
  if (mode_ == Mode::kProve) {
    constraints_.push_back(Constraint{a, b, c});
  }
}

void ConstraintSystem::EnforceEqual(const LC& lhs, const LC& rhs) {
  Enforce(lhs - rhs, LC(kOneVar), LC());
}

void ConstraintSystem::EnforceBoolean(Var v) {
  // v * (v - 1) == 0.
  Enforce(LC(v), LC(v) - LC(kOneVar), LC());
}

Fr ConstraintSystem::Eval(const LC& lc) const { return EvalLc(lc, values_); }

bool ConstraintSystem::IsSatisfied(size_t* bad) const {
  if (mode_ != Mode::kProve) {
    throw std::logic_error("IsSatisfied requires kProve mode");
  }
  return SatisfiedBy(values_, bad);
}

bool ConstraintSystem::SatisfiedBy(const std::vector<Fr>& values, size_t* bad) const {
  if (mode_ != Mode::kProve) {
    throw std::logic_error("SatisfiedBy requires kProve mode");
  }
  if (values.size() != values_.size()) {
    throw std::invalid_argument("SatisfiedBy: assignment has the wrong arity");
  }
  for (size_t i = 0; i < constraints_.size(); ++i) {
    const Constraint& c = constraints_[i];
    if (EvalLc(c.a, values) * EvalLc(c.b, values) != EvalLc(c.c, values)) {
      if (bad != nullptr) {
        *bad = i;
      }
      return false;
    }
  }
  return true;
}

void ConstraintSystem::BeginScope(std::string name) {
  ScopeSpan span;
  span.name = std::move(name);
  span.depth = open_scopes_.size();
  span.first_constraint = num_constraints_;
  span.first_var = values_.size();
  open_scopes_.push_back(scopes_.size());
  scopes_.push_back(std::move(span));
}

void ConstraintSystem::EndScope() {
  if (open_scopes_.empty()) {
    throw std::logic_error("EndScope without a matching BeginScope");
  }
  ScopeSpan& span = scopes_[open_scopes_.back()];
  span.num_constraints = num_constraints_ - span.first_constraint;
  span.num_vars = values_.size() - span.first_var;
  open_scopes_.pop_back();
}

}  // namespace nope
