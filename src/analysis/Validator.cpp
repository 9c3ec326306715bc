//===- analysis/Validator.cpp - IR structural invariant checking ---------===//
//
// Rule implementations.  Each rule has a stable kebab-case id so tests and
// omegalint can assert on exactly which invariant broke.
//
//===----------------------------------------------------------------------===//

#include "analysis/Validator.h"

#include "support/Error.h"

#include <iostream>
#include <sstream>

using namespace omega;

const char *omega::severityName(Severity S) {
  return S == Severity::Error ? "error" : "warning";
}

const char *omega::layerName(IRLayer L) {
  switch (L) {
  case IRLayer::Affine:
    return "affine";
  case IRLayer::Constraint:
    return "constraint";
  case IRLayer::Conjunct:
    return "conjunct";
  case IRLayer::Formula:
    return "formula";
  case IRLayer::Dnf:
    return "dnf";
  case IRLayer::Poly:
    return "poly";
  case IRLayer::Piecewise:
    return "piecewise";
  }
  fatalError("layerName: unknown IR layer");
}

std::string Diagnostic::toString() const {
  std::ostringstream OS;
  OS << severityName(Sev) << ": [" << layerName(Layer) << "/" << Rule << "] "
     << Message;
  if (!Location.empty())
    OS << " (at " << Location << ")";
  return OS.str();
}

std::ostream &omega::operator<<(std::ostream &OS, const Diagnostic &D) {
  return OS << D.toString();
}

void Validator::report(Severity Sev, IRLayer Layer, std::string Rule,
                       std::string Message, std::string Loc) {
  Diags.push_back({Sev, Layer, std::move(Rule), std::move(Message),
                   std::move(Loc)});
}

bool Validator::hasErrors() const {
  for (const Diagnostic &D : Diags)
    if (D.Sev == Severity::Error)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Affine layer
//===----------------------------------------------------------------------===//

void Validator::checkAffine(const AffineExpr &E, const std::string &Loc) {
  for (const auto &[V, Coef] : E.terms())
    if (Coef.isZero())
      report(Severity::Error, IRLayer::Affine, "zero-coefficient-term",
             "variable '" + varName(V) + "' stored with zero coefficient in '" +
                 E.toString() + "'",
             Loc);
}

//===----------------------------------------------------------------------===//
// Constraint layer
//===----------------------------------------------------------------------===//

void Validator::checkConstraint(const Constraint &K, const std::string &Loc) {
  checkAffine(K.expr(), Loc);

  if (K.isStride() && !K.modulus().isPositive()) {
    report(Severity::Error, IRLayer::Constraint, "stride-nonpositive-modulus",
           "stride modulus " + K.modulus().toString() +
               " is not positive in '" + K.toString() + "'",
           Loc);
    return; // normalize() below would divide by the broken modulus.
  }

  if (!Opts.RequireNormalized)
    return;

  if (K.expr().isConstant() && !K.isTriviallyFalse()) {
    report(Severity::Error, IRLayer::Constraint, "trivial-constraint",
           "variable-free constraint '" + K.toString() +
               "' should have been folded away",
           Loc);
    return;
  }

  Constraint Canon = K;
  if (!Canon.normalize()) {
    report(Severity::Error, IRLayer::Constraint, "constraint-unsatisfiable",
           "provably unsatisfiable constraint '" + K.toString() +
               "' survived normalization",
           Loc);
    return;
  }
  if (Canon != K) {
    const char *Rule = K.isEq()   ? "eq-not-gcd-normalized"
                       : K.isGe() ? "ge-not-tightened"
                                  : "stride-not-reduced";
    report(Severity::Error, IRLayer::Constraint, Rule,
           "'" + K.toString() + "' is not normalized (canonical form: '" +
               Canon.toString() + "')",
           Loc);
  }
}

//===----------------------------------------------------------------------===//
// Conjunct layer
//===----------------------------------------------------------------------===//

void Validator::checkConjunct(const Conjunct &C, const std::string &Loc) {
  if (Opts.RequireWildcardFree && !C.wildcards().empty())
    report(Severity::Error, IRLayer::Conjunct, "wildcard-forbidden",
           "clause carries " + std::to_string(C.wildcards().size()) +
               " wildcard(s) at a boundary that guarantees projected "
               "(wildcard-free) clauses",
           Loc);

  // Scoping: every mentioned `$`-variable must be declared by this clause
  // (a clause's wildcards are its own, so outside a quantifier's body a
  // free `$` name means another clause's existential structure leaked in),
  // and every declaration must be used.
  VarSet Mentioned = C.mentionedVars();
  if (!Opts.AllowFreeWildcardNames)
    for (VarId V : Mentioned)
      if (V.isWildcard() && !C.isWildcard(V))
        report(Severity::Error, IRLayer::Conjunct, "wildcard-undeclared",
               "wildcard '" + varName(V) +
                   "' is mentioned but not declared by its clause",
               Loc);
  for (VarId W : C.wildcards())
    if (!Mentioned.contains(W))
      report(Severity::Warning, IRLayer::Conjunct, "wildcard-unused",
             "wildcard '" + varName(W) + "' is declared but never referenced",
             Loc);

  const std::vector<Constraint> &Ks = C.constraints();
  if (Opts.RequireNormalized)
    for (size_t I = 0; I < Ks.size(); ++I)
      for (size_t J = I + 1; J < Ks.size(); ++J)
        if (Ks[I] == Ks[J])
          report(Severity::Error, IRLayer::Conjunct, "duplicate-constraint",
                 "constraints " + std::to_string(I) + " and " +
                     std::to_string(J) + " are identical: '" +
                     Ks[I].toString() + "'",
                 Loc);

  for (size_t I = 0; I < Ks.size(); ++I)
    checkConstraint(Ks[I], Loc + ", constraint " + std::to_string(I));
}

//===----------------------------------------------------------------------===//
// Formula layer
//===----------------------------------------------------------------------===//

void Validator::checkFormulaRec(const Formula &F, VarSet &Bound,
                                const std::string &Loc) {
  switch (F.kind()) {
  case FormulaKind::True:
  case FormulaKind::False:
    return;
  case FormulaKind::Atom:
    checkConstraint(F.constraint(), Loc + ", atom");
    return;
  case FormulaKind::And:
  case FormulaKind::Or: {
    if (F.children().size() < 2)
      report(Severity::Warning, IRLayer::Formula, "connective-arity",
             std::string(F.kind() == FormulaKind::And ? "And" : "Or") +
                 " node with " + std::to_string(F.children().size()) +
                 " child(ren) should have been folded by the constructor",
             Loc);
    for (size_t I = 0; I < F.children().size(); ++I)
      checkFormulaRec(F.children()[I], Bound,
                      Loc + ", child " + std::to_string(I));
    return;
  }
  case FormulaKind::Not: {
    if (F.children().size() != 1) {
      report(Severity::Error, IRLayer::Formula, "not-arity",
             "Not node with " + std::to_string(F.children().size()) +
                 " children",
             Loc);
      return;
    }
    checkFormulaRec(F.children()[0], Bound, Loc + ", negand");
    return;
  }
  case FormulaKind::Exists:
  case FormulaKind::Forall: {
    if (F.quantified().empty())
      report(Severity::Error, IRLayer::Formula, "quantifier-empty",
             "quantifier binds no variables (constructor should have "
             "returned the body)",
             Loc);
    VarSet BodyFree = F.body().freeVars();
    VarSet Added;
    for (VarId V : F.quantified()) {
      if (Bound.contains(V))
        report(Severity::Warning, IRLayer::Formula, "quantifier-shadowing",
               "quantifier rebinds '" + varName(V) +
                   "', already bound by an enclosing quantifier",
               Loc);
      else
        Added.insert(V);
      if (!BodyFree.contains(V))
        report(Severity::Warning, IRLayer::Formula, "quantifier-unused",
               "quantified variable '" + varName(V) +
                   "' does not occur in the body",
               Loc);
    }
    Bound.insert(Added.begin(), Added.end());
    checkFormulaRec(F.body(), Bound, Loc + ", body");
    for (VarId V : Added)
      Bound.erase(V);
    return;
  }
  }
  report(Severity::Error, IRLayer::Formula, "unknown-kind",
         "formula node with invalid kind tag " +
             std::to_string(static_cast<int>(F.kind())),
         Loc);
}

void Validator::checkFormula(const Formula &F, const std::string &Loc) {
  VarSet Bound;
  checkFormulaRec(F, Bound, Loc);
}

//===----------------------------------------------------------------------===//
// DNF layer
//===----------------------------------------------------------------------===//

void Validator::checkDnf(const std::vector<Conjunct> &Clauses,
                         const std::string &Loc) {
  for (size_t I = 0; I < Clauses.size(); ++I)
    checkConjunct(Clauses[I], Loc + ", clause " + std::to_string(I));

  if (!Opts.Overlaps)
    return;

  // Oracle(C, C) is a plain feasibility test: C shares a point with a
  // wildcard-refreshed copy of itself iff C has a point at all.
  for (size_t I = 0; I < Clauses.size(); ++I)
    if (!Opts.Overlaps(Clauses[I], Clauses[I]))
      report(Severity::Error, IRLayer::Dnf, "clause-infeasible",
             "infeasible clause " + std::to_string(I) +
                 " survived pruning: " + Clauses[I].toString(),
             Loc);

  if (!Opts.RequireDisjoint)
    return;
  for (size_t I = 0; I < Clauses.size(); ++I)
    for (size_t J = I + 1; J < Clauses.size(); ++J)
      if (Opts.Overlaps(Clauses[I], Clauses[J]))
        report(Severity::Error, IRLayer::Dnf, "clauses-overlap",
               "clauses " + std::to_string(I) + " and " + std::to_string(J) +
                   " share an integer point but disjoint DNF was requested",
               Loc);
}

//===----------------------------------------------------------------------===//
// Poly layer
//===----------------------------------------------------------------------===//

void Validator::checkQuasiPolynomial(const QuasiPolynomial &P,
                                     const std::string &Loc) {
  size_t TermIdx = 0;
  for (const auto &[M, Coef] : P.terms()) {
    std::string TermLoc = Loc + ", term " + std::to_string(TermIdx++);
    if (Coef.isZero())
      report(Severity::Error, IRLayer::Poly, "zero-coefficient",
             "monomial stored with zero coefficient", TermLoc);
    for (const auto &[A, Exp] : M) {
      if (Exp == 0)
        report(Severity::Error, IRLayer::Poly, "zero-exponent",
               "atom '" + A.toString() + "' stored with exponent 0", TermLoc);
      if (!A.isMod())
        continue;
      if (!A.modulus().isPositive()) {
        report(Severity::Error, IRLayer::Poly, "mod-nonpositive-modulus",
               "periodic atom '" + A.toString() +
                   "' has non-positive modulus",
               TermLoc);
        continue;
      }
      if (A.arg().isConstant())
        report(Severity::Warning, IRLayer::Poly, "mod-constant-arg",
               "periodic atom '" + A.toString() +
                   "' has a constant argument and should have folded",
               TermLoc);
      // Period consistency: Atom::mod canonicalizes the argument
      // coefficient-wise into [0, modulus); anything outside means two
      // equal periodic terms can compare unequal and fail to combine.
      bool Reduced = !A.arg().constant().isNegative() &&
                     A.arg().constant() < A.modulus();
      for (const auto &[Name, C] : A.arg().terms()) {
        (void)Name;
        if (C.isNegative() || C >= A.modulus())
          Reduced = false;
      }
      if (!Reduced)
        report(Severity::Error, IRLayer::Poly, "mod-arg-not-reduced",
               "periodic atom '" + A.toString() +
                   "' argument is not reduced into [0, modulus)",
               TermLoc);
      checkAffine(A.arg(), TermLoc);
    }
  }
}

//===----------------------------------------------------------------------===//
// Piecewise layer
//===----------------------------------------------------------------------===//

void Validator::checkPiecewise(const PiecewiseValue &V,
                               const std::string &Loc) {
  if (V.isUnbounded() && !V.pieces().empty())
    report(Severity::Warning, IRLayer::Piecewise, "unbounded-with-pieces",
           "unbounded marker set but " + std::to_string(V.pieces().size()) +
               " piece(s) present",
           Loc);

  const std::vector<Piece> &Pieces = V.pieces();
  for (size_t I = 0; I < Pieces.size(); ++I) {
    std::string PieceLoc = Loc + ", piece " + std::to_string(I);
    if (!Pieces[I].Guard.wildcards().empty())
      report(Severity::Error, IRLayer::Piecewise, "guard-wildcard",
             "guard carries wildcards; guards must be projected "
             "(wildcard-free) conjuncts over the symbolic constants",
             PieceLoc);
    checkConjunct(Pieces[I].Guard, PieceLoc + " guard");
    if (Pieces[I].Value.isZero())
      report(Severity::Warning, IRLayer::Piecewise, "piece-zero-value",
             "zero-valued piece should have been dropped", PieceLoc);
    checkQuasiPolynomial(Pieces[I].Value, PieceLoc + " value");
  }

  if (!Opts.RequireDisjoint || !Opts.Overlaps)
    return;
  for (size_t I = 0; I < Pieces.size(); ++I)
    for (size_t J = I + 1; J < Pieces.size(); ++J)
      if (Opts.Overlaps(Pieces[I].Guard, Pieces[J].Guard))
        report(Severity::Error, IRLayer::Piecewise, "guards-overlap",
               "guards of pieces " + std::to_string(I) + " and " +
                   std::to_string(J) +
                   " share a point but disjoint guards were requested",
               Loc);
}

//===----------------------------------------------------------------------===//
// Conveniences
//===----------------------------------------------------------------------===//

std::vector<Diagnostic> omega::validateFormula(const Formula &F,
                                               ValidatorOptions Opts) {
  Validator V(std::move(Opts));
  V.checkFormula(F, "formula");
  return V.diagnostics();
}

std::vector<Diagnostic>
omega::validateDnf(const std::vector<Conjunct> &Clauses,
                   ValidatorOptions Opts) {
  Validator V(std::move(Opts));
  V.checkDnf(Clauses, "dnf");
  return V.diagnostics();
}

std::vector<Diagnostic> omega::validatePiecewise(const PiecewiseValue &Val,
                                                 ValidatorOptions Opts) {
  Validator V(std::move(Opts));
  V.checkPiecewise(Val, "value");
  return V.diagnostics();
}

void omega::validateOrDie(const std::vector<Diagnostic> &Diags,
                          const char *Boundary) {
  if (Diags.empty())
    return;
  bool AnyError = false;
  for (const Diagnostic &D : Diags) {
    std::cerr << "omega: validate(" << Boundary << "): " << D << "\n";
    AnyError |= D.Sev == Severity::Error;
  }
  if (AnyError)
    fatalError(std::string(Boundary) + ": IR invariant violation (see " +
               std::to_string(Diags.size()) + " diagnostic(s) above)");
}
