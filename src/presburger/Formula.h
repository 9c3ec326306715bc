//===- presburger/Formula.h - Presburger formula AST -----------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Immutable AST for full Presburger formulas: atomic constraints combined
/// with ∧, ∨, ¬, ∃, ∀ (§2.6).  The Omega simplifier (src/omega) lowers a
/// Formula to (disjoint) disjunctive normal form over Conjuncts.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_PRESBURGER_FORMULA_H
#define OMEGA_PRESBURGER_FORMULA_H

#include "presburger/Conjunct.h"
#include "support/Status.h"

#include <iosfwd>
#include <memory>
#include <vector>

namespace omega {

enum class FormulaKind { True, False, Atom, And, Or, Not, Exists, Forall };

/// Immutable, cheaply copyable Presburger formula.
class Formula {
public:
  /// Default-constructs True.
  Formula() : Formula(trueFormula()) {}

  static Formula trueFormula();
  static Formula falseFormula();
  static Formula atom(Constraint C);
  /// N-ary conjunction; flattens nested Ands, folds constants.
  static Formula conj(std::vector<Formula> Children);
  /// N-ary disjunction; flattens nested Ors, folds constants.
  static Formula disj(std::vector<Formula> Children);
  static Formula negation(Formula F);
  static Formula exists(VarSet Vars, Formula Body);
  static Formula forall(VarSet Vars, Formula Body);
  /// Convenience: conjunction of all constraints of \p C (wildcards become
  /// an Exists wrapper).
  static Formula fromConjunct(const Conjunct &C);

  FormulaKind kind() const;
  /// Atom payload; asserts kind() == Atom.
  const Constraint &constraint() const;
  /// Children of And/Or/Not (Not has exactly one).
  const std::vector<Formula> &children() const;
  /// Bound variables of Exists/Forall.
  const VarSet &quantified() const;
  /// Body of Exists/Forall.
  const Formula &body() const;

  bool isTrue() const { return kind() == FormulaKind::True; }
  bool isFalse() const { return kind() == FormulaKind::False; }

  /// Free variables of the formula.
  VarSet freeVars() const;
  /// Every variable the formula mentions or binds.
  VarSet vars() const;

  /// Evaluates the formula at a full assignment of its free variables.
  /// Quantified variables are decided by the Omega test-independent bounded
  /// check only when they are eliminable by substitution; general formulas
  /// should be evaluated through omega::simplify + containsPoint.  Provided
  /// here for wildcard-free and quantifier-free formulas (tests, guards).
  /// Aborts on quantifiers; callers that cannot rule them out statically
  /// must use tryEvaluate.
  bool evaluate(const Assignment &Values) const;

  /// Like evaluate, but returns a typed Unsupported error instead of
  /// aborting when the formula contains a quantifier.  Simplify the
  /// formula first (omega::simplify yields quantifier-free DNF) to decide
  /// quantified formulas.
  Result<bool> tryEvaluate(const Assignment &Values) const;

  std::string toString() const;

  friend Formula operator&&(const Formula &L, const Formula &R) {
    return conj({L, R});
  }
  friend Formula operator||(const Formula &L, const Formula &R) {
    return disj({L, R});
  }
  friend Formula operator!(const Formula &F) { return negation(F); }

private:
  struct Node;
  explicit Formula(std::shared_ptr<const Node> N) : Impl(std::move(N)) {}
  std::shared_ptr<const Node> Impl;
};

std::ostream &operator<<(std::ostream &OS, const Formula &F);

/// Returns the variable named \p Stem followed by the least number that
/// names no member of \p Used, and adds it to \p Used.  A binder built over
/// formulas takes its variable from here, with \p Used holding every
/// variable they mention or bind, so it captures nothing.
VarId freshVar(const std::string &Stem, VarSet &Used);

} // namespace omega

#endif // OMEGA_PRESBURGER_FORMULA_H
