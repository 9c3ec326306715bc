//===- presburger/Constraint.h - Linear and stride constraints -*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Atomic Presburger constraints: equalities `e = 0`, inequalities `e >= 0`,
/// and stride constraints `c | e` ("c evenly divides e", §2.1 / §3.2 of the
/// paper).  A stride is equivalent to `∃α: e = cα`; Conjunct provides the
/// conversion between the paper's "stride format" and "projected format".
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_PRESBURGER_CONSTRAINT_H
#define OMEGA_PRESBURGER_CONSTRAINT_H

#include "presburger/AffineExpr.h"
#include "support/Error.h"

#include <iosfwd>
#include <string>

namespace omega {

enum class ConstraintKind {
  Eq,    ///< Expr == 0
  Ge,    ///< Expr >= 0
  Stride ///< Mod divides Expr (Mod >= 1)
};

/// One atomic constraint.
class Constraint {
public:
  static Constraint eq(AffineExpr E) {
    return Constraint(ConstraintKind::Eq, std::move(E), BigInt(0));
  }
  static Constraint ge(AffineExpr E) {
    return Constraint(ConstraintKind::Ge, std::move(E), BigInt(0));
  }
  /// `A >= B` as `A - B >= 0`.
  static Constraint ge(const AffineExpr &A, const AffineExpr &B) {
    return ge(A - B);
  }
  /// `A <= B` as `B - A >= 0`.
  static Constraint le(const AffineExpr &A, const AffineExpr &B) {
    return ge(B - A);
  }
  /// `A = B` as `A - B = 0`.
  static Constraint eq(const AffineExpr &A, const AffineExpr &B) {
    return eq(A - B);
  }
  /// `A < B` over integers as `B - A - 1 >= 0`.
  static Constraint lt(const AffineExpr &A, const AffineExpr &B) {
    return ge(B - A - AffineExpr(1));
  }
  static Constraint gt(const AffineExpr &A, const AffineExpr &B) {
    return lt(B, A);
  }
  /// `Mod | E`; asserts Mod >= 1.
  static Constraint stride(BigInt Mod, AffineExpr E) {
    check(Mod.isPositive(), "stride modulus must be positive");
    return Constraint(ConstraintKind::Stride, std::move(E), std::move(Mod));
  }

  ConstraintKind kind() const { return Kind; }
  bool isEq() const { return Kind == ConstraintKind::Eq; }
  bool isGe() const { return Kind == ConstraintKind::Ge; }
  bool isStride() const { return Kind == ConstraintKind::Stride; }

  const AffineExpr &expr() const { return Expr; }
  AffineExpr &expr() { return Expr; }
  const BigInt &modulus() const {
    check(isStride(), "modulus of non-stride constraint");
    return Mod;
  }

  /// True iff the constraint holds under \p Values (all variables bound).
  bool holds(const Assignment &Values) const;

  /// True iff the constraint mentions no variables and holds trivially.
  bool isTriviallyTrue() const;
  /// True iff the constraint mentions no variables and fails trivially.
  bool isTriviallyFalse() const;

  void substitute(VarId V, const AffineExpr &Replacement) {
    Expr.substitute(V, Replacement);
  }
  void renameVar(VarId From, VarId To) { Expr.renameVar(From, To); }
  void collectVars(VarSet &Out) const { Expr.collectVars(Out); }
  bool mentions(VarId V) const { return Expr.mentions(V); }

  /// Canonicalizes: divides an Eq by the gcd of all its coefficients,
  /// tightens a Ge by flooring the constant (the Omega test's
  /// "normalization"), and reduces a Stride expression mod the modulus.
  /// Returns false iff normalization proves the constraint unsatisfiable
  /// (e.g. `2x + 1 = 0` or `2 | 2x + 1`).
  bool normalize();

  friend bool operator==(const Constraint &L, const Constraint &R) {
    return L.Kind == R.Kind && L.Mod == R.Mod && L.Expr == R.Expr;
  }
  friend bool operator!=(const Constraint &L, const Constraint &R) {
    return !(L == R);
  }
  friend bool operator<(const Constraint &L, const Constraint &R) {
    if (L.Kind != R.Kind)
      return L.Kind < R.Kind;
    if (L.Mod != R.Mod)
      return L.Mod < R.Mod;
    return L.Expr < R.Expr;
  }

  /// Renders e.g. "i + 2j - 3 >= 0" or "3 | n - 1".
  std::string toString() const;

private:
  Constraint(ConstraintKind K, AffineExpr E, BigInt M)
      : Kind(K), Expr(std::move(E)), Mod(std::move(M)) {}

  ConstraintKind Kind;
  AffineExpr Expr;
  BigInt Mod;
};

std::ostream &operator<<(std::ostream &OS, const Constraint &C);

} // namespace omega

#endif // OMEGA_PRESBURGER_CONSTRAINT_H
