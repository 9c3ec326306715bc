//===- tests/ValidatorTest.cpp - analysis::Validator rule coverage -------===//
//
// Each test corrupts the IR in exactly one way and checks that the
// Validator reports that rule (and only at the expected severity), or that
// well-formed pipeline output is clean.
//
//===----------------------------------------------------------------------===//

#include "analysis/Validator.h"

#include "counting/Summation.h"
#include "omega/Omega.h"
#include "presburger/Parser.h"

#include <gtest/gtest.h>

using namespace omega;

namespace {

OverlapOracle omegaOracle() {
  return [](const Conjunct &A, const Conjunct &B) {
    return feasible(Conjunct::merge(A, B));
  };
}

ValidatorOptions normalizedOpts() {
  ValidatorOptions O;
  O.RequireNormalized = true;
  return O;
}

ValidatorOptions wildcardFreeOpts() {
  ValidatorOptions O;
  O.RequireWildcardFree = true;
  return O;
}

ValidatorOptions oracleOpts(bool RequireDisjoint = false) {
  ValidatorOptions O;
  O.RequireDisjoint = RequireDisjoint;
  O.Overlaps = omegaOracle();
  return O;
}

/// The full invariant set promised by simplify(Disjoint).
ValidatorOptions strictDnfOpts() {
  ValidatorOptions O = oracleOpts(/*RequireDisjoint=*/true);
  O.RequireWildcardFree = true;
  O.RequireNormalized = true;
  return O;
}

/// True iff some diagnostic carries \p Rule.
bool hasRule(const std::vector<Diagnostic> &Diags, const std::string &Rule) {
  for (const Diagnostic &D : Diags)
    if (D.Rule == Rule)
      return true;
  return false;
}

int errorCount(const std::vector<Diagnostic> &Diags) {
  int N = 0;
  for (const Diagnostic &D : Diags)
    if (D.Sev == Severity::Error)
      ++N;
  return N;
}

AffineExpr var(const std::string &N) { return AffineExpr::variable(N); }
AffineExpr wild(uint32_t N) { return AffineExpr::variable(wildcardVar(N)); }

//===----------------------------------------------------------------------===//
// Affine / Constraint rules
//===----------------------------------------------------------------------===//

TEST(Validator, CleanConstraintHasNoDiagnostics) {
  Validator V(normalizedOpts());
  V.checkConstraint(Constraint::ge(var("i") - 1), "t");
  EXPECT_TRUE(V.empty());
}

TEST(Validator, ReducedStrideIsClean) {
  Validator V(normalizedOpts());
  V.checkConstraint(Constraint::stride(BigInt(3), var("i")), "t");
  EXPECT_TRUE(V.empty());
}

TEST(Validator, EqNotGcdNormalized) {
  Validator V(normalizedOpts());
  V.checkConstraint(Constraint::eq(var("x") * BigInt(2) + AffineExpr(4)), "t");
  EXPECT_TRUE(hasRule(V.diagnostics(), "eq-not-gcd-normalized"));
  EXPECT_EQ(errorCount(V.diagnostics()), 1);
}

TEST(Validator, GeNotTightened) {
  Validator V(normalizedOpts());
  // 2x - 3 >= 0 tightens to x - 2 >= 0.
  V.checkConstraint(Constraint::ge(var("x") * BigInt(2) - AffineExpr(3)), "t");
  EXPECT_TRUE(hasRule(V.diagnostics(), "ge-not-tightened"));
}

TEST(Validator, StrideNotReduced) {
  Validator V(normalizedOpts());
  // 3 | x + 5 reduces to 3 | x + 2.
  V.checkConstraint(Constraint::stride(BigInt(3), var("x") + AffineExpr(5)),
                    "t");
  EXPECT_TRUE(hasRule(V.diagnostics(), "stride-not-reduced"));
}

TEST(Validator, UnsatisfiableConstraint) {
  Validator V(normalizedOpts());
  // 2x + 1 = 0 has no integer solution.
  V.checkConstraint(Constraint::eq(var("x") * BigInt(2) + AffineExpr(1)), "t");
  EXPECT_TRUE(hasRule(V.diagnostics(), "constraint-unsatisfiable"));
}

TEST(Validator, TrivialConstraint) {
  Validator V(normalizedOpts());
  V.checkConstraint(Constraint::ge(AffineExpr(7)), "t");
  EXPECT_TRUE(hasRule(V.diagnostics(), "trivial-constraint"));
}

TEST(Validator, NormalizedRulesAreOptIn) {
  Validator V; // Default options: structural rules only.
  V.checkConstraint(Constraint::eq(var("x") * BigInt(2) + AffineExpr(4)), "t");
  V.checkConstraint(Constraint::ge(AffineExpr(7)), "t");
  EXPECT_TRUE(V.empty());
}

//===----------------------------------------------------------------------===//
// Conjunct rules
//===----------------------------------------------------------------------===//

TEST(Validator, WildcardUndeclared) {
  Conjunct C;
  C.add(Constraint::ge(wild(999) - 1)); // Mentioned, never declared.
  Validator V;
  V.checkConjunct(C, "t");
  EXPECT_TRUE(hasRule(V.diagnostics(), "wildcard-undeclared"));
  EXPECT_TRUE(V.hasErrors());
}

TEST(Validator, PendingWildcardNamesAllowedMidPipeline) {
  // A floor/ceil/mod's `$` auxiliary stays free in the clauses of its
  // quantifier's body until that quantifier's projection;
  // AllowFreeWildcardNames models that.
  Conjunct C;
  C.add(Constraint::ge(wild(999) - 1));
  ValidatorOptions O;
  O.AllowFreeWildcardNames = true;
  Validator V(O);
  V.checkConjunct(C, "t");
  EXPECT_TRUE(V.empty());
}

TEST(Validator, WildcardUnusedIsWarning) {
  Conjunct C;
  C.addWildcard(wildcardVar(7));
  C.add(Constraint::ge(var("i")));
  Validator V;
  V.checkConjunct(C, "t");
  EXPECT_TRUE(hasRule(V.diagnostics(), "wildcard-unused"));
  EXPECT_FALSE(V.hasErrors());
}

TEST(Validator, WildcardForbidden) {
  Conjunct C;
  C.addWildcard(wildcardVar(7));
  C.add(Constraint::eq(var("i") - wild(7) * BigInt(2)));
  Validator V(wildcardFreeOpts());
  V.checkConjunct(C, "t");
  EXPECT_TRUE(hasRule(V.diagnostics(), "wildcard-forbidden"));
}

TEST(Validator, DuplicateConstraint) {
  Conjunct C;
  C.add(Constraint::ge(var("i") - 1));
  C.add(Constraint::ge(var("i") - 1));
  Validator V(normalizedOpts());
  V.checkConjunct(C, "t");
  EXPECT_TRUE(hasRule(V.diagnostics(), "duplicate-constraint"));
}

//===----------------------------------------------------------------------===//
// Formula rules
//===----------------------------------------------------------------------===//

TEST(Validator, CleanFormula) {
  Formula F = parseFormulaOrDie("exists(j: 1 <= j <= i) && i <= n");
  EXPECT_TRUE(validateFormula(F).empty());
}

TEST(Validator, QuantifierUnusedIsWarning) {
  Formula F = Formula::exists({"z"}, parseFormulaOrDie("1 <= i <= n"));
  std::vector<Diagnostic> Diags = validateFormula(F);
  EXPECT_TRUE(hasRule(Diags, "quantifier-unused"));
  EXPECT_EQ(errorCount(Diags), 0);
}

TEST(Validator, QuantifierShadowingIsWarning) {
  Formula Inner = Formula::exists({"j"}, parseFormulaOrDie("j = 2*i"));
  Formula F = Formula::exists({"j"},
                              parseFormulaOrDie("1 <= j <= n") && Inner);
  std::vector<Diagnostic> Diags = validateFormula(F);
  EXPECT_TRUE(hasRule(Diags, "quantifier-shadowing"));
  EXPECT_EQ(errorCount(Diags), 0);
}

//===----------------------------------------------------------------------===//
// DNF rules
//===----------------------------------------------------------------------===//

TEST(Validator, SimplifyOutputIsClean) {
  Formula F = parseFormulaOrDie(
      "(1 <= i,j <= n && 2*i <= 3*j) || (i = j && 0 <= i <= 2*n)");
  SimplifyOptions Opts;
  Opts.Disjoint = true;
  std::vector<Conjunct> D = simplify(F, Opts);
  std::vector<Diagnostic> Diags = validateDnf(D, strictDnfOpts());
  for (const Diagnostic &Diag : Diags)
    ADD_FAILURE() << Diag.toString();
}

TEST(Validator, InfeasibleClauseDetected) {
  Conjunct C;
  C.add(Constraint::ge(var("i") - 5));  // i >= 5
  C.add(Constraint::ge(-var("i") + 2)); // i <= 2
  std::vector<Diagnostic> Diags = validateDnf({C}, oracleOpts());
  EXPECT_TRUE(hasRule(Diags, "clause-infeasible"));
}

TEST(Validator, OverlappingClausesDetected) {
  Conjunct A, B;
  A.add(Constraint::ge(var("i")));      // i >= 0
  B.add(Constraint::ge(var("i") - 5));  // i >= 5 (subset of A: overlaps)
  std::vector<Diagnostic> Diags =
      validateDnf({A, B}, oracleOpts(/*RequireDisjoint=*/true));
  EXPECT_TRUE(hasRule(Diags, "clauses-overlap"));

  // Without RequireDisjoint the same DNF is legal.
  EXPECT_TRUE(validateDnf({A, B}, oracleOpts()).empty());
}

//===----------------------------------------------------------------------===//
// Poly / Piecewise rules
//===----------------------------------------------------------------------===//

TEST(Validator, ModAtomCanonicalizedOnConstruction) {
  Atom Good = Atom::mod(var("n") + AffineExpr(5), BigInt(2));
  Validator V;
  V.checkQuasiPolynomial(QuasiPolynomial::fromAtom(Good), "t");
  EXPECT_TRUE(V.empty()); // 5 mod 2 == 1: canonicalized on construction.
}

TEST(Validator, PiecewiseFromCountIsClean) {
  Formula F = parseFormulaOrDie("1 <= i <= n && 2 | i");
  PiecewiseValue V = countSolutions(F, {"i"}).Value;
  std::vector<Diagnostic> Diags = validatePiecewise(V);
  for (const Diagnostic &D : Diags)
    ADD_FAILURE() << D.toString();
}

TEST(Validator, GuardWildcardDetected) {
  Conjunct Guard;
  Guard.addWildcard(wildcardVar(3));
  Guard.add(Constraint::eq(var("n") - wild(3) * BigInt(2)));
  PiecewiseValue V;
  V.add({Guard, QuasiPolynomial(1)});
  EXPECT_TRUE(hasRule(validatePiecewise(V), "guard-wildcard"));
}

TEST(Validator, OverlappingGuardsOnlyWithRequireDisjoint) {
  Conjunct G1, G2;
  G1.add(Constraint::ge(var("n")));
  G2.add(Constraint::ge(var("n") - 5));
  PiecewiseValue V;
  V.add({G1, QuasiPolynomial(1)});
  V.add({G2, QuasiPolynomial(2)});
  // Overlapping guards are legitimate by default (piece values sum).
  EXPECT_TRUE(validatePiecewise(V, oracleOpts()).empty());
  EXPECT_TRUE(
      hasRule(validatePiecewise(V, oracleOpts(/*RequireDisjoint=*/true)),
              "guards-overlap"));
}

//===----------------------------------------------------------------------===//
// Diagnostic formatting
//===----------------------------------------------------------------------===//

TEST(Validator, DiagnosticToString) {
  Diagnostic D{Severity::Error, IRLayer::Dnf, "clauses-overlap",
               "clauses 0 and 1 share an integer point", "dnf"};
  EXPECT_EQ(D.toString(),
            "error: [dnf/clauses-overlap] clauses 0 and 1 share an integer "
            "point (at dnf)");
}

} // namespace
