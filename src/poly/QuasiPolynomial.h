//===- poly/QuasiPolynomial.h - Symbolic counting values --------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The value domain of the paper's answers: polynomials with rational
/// coefficients over *atoms*, where an atom is either a plain variable or a
/// periodic term `(e mod c)` with `e` affine over symbolic constants
/// (§4.2.1's "substitute (U - U') / u for floor(U/u), where U' = U mod u").
/// Example 6's answer `(3n² + 2n - n mod 2) / 4` is the quasi-polynomial
///   3/4·n² + 1/2·n - 1/4·Mod(n, 2).
///
/// A symbol atom holds its VarId; every query (degree, coefficients,
/// substitution, mentions, evaluation) keys on ids.  Atoms still *order* by
/// name, so monomials, and hence every printed answer, come out in name
/// order whatever order the names were interned in (DESIGN.md §16).
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_POLY_QUASIPOLYNOMIAL_H
#define OMEGA_POLY_QUASIPOLYNOMIAL_H

#include "presburger/AffineExpr.h"
#include "support/Error.h"
#include "support/Rational.h"

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace omega {

/// A multiplicative atom: a variable, or a periodic term (Arg mod Modulus).
class Atom {
public:
  enum class Kind { Symbol, Mod };

  static Atom symbol(VarId V) {
    Atom A;
    A.K = Kind::Symbol;
    A.V = V;
    return A;
  }
  /// (Arg mod Modulus); Arg is canonicalized coefficient-wise into
  /// [0, Modulus) since the value only depends on Arg mod Modulus.
  static Atom mod(AffineExpr Arg, BigInt Modulus);

  Kind kind() const { return K; }
  bool isSymbol() const { return K == Kind::Symbol; }
  bool isMod() const { return K == Kind::Mod; }
  VarId var() const {
    check(isSymbol(), "var of non-symbol atom");
    return V;
  }
  const AffineExpr &arg() const {
    check(isMod(), "arg of non-mod atom");
    return Arg;
  }
  const BigInt &modulus() const {
    check(isMod(), "modulus of non-mod atom");
    return Modulus;
  }

  /// Variables this atom reads.
  void collectVars(VarSet &Out) const;
  bool mentions(VarId Var) const;

  BigInt evaluate(const Assignment &Values) const;

  friend bool operator==(const Atom &L, const Atom &R) {
    return L.K == R.K && L.V == R.V && L.Modulus == R.Modulus &&
           L.Arg == R.Arg;
  }
  friend bool operator!=(const Atom &L, const Atom &R) { return !(L == R); }
  friend bool operator<(const Atom &L, const Atom &R) {
    if (L.K != R.K)
      return L.K < R.K;
    // Name order, never id order: it fixes the printed monomial order.
    if (int C = compareVarNames(L.V, R.V))
      return C < 0;
    if (L.Modulus != R.Modulus)
      return L.Modulus < R.Modulus;
    return L.Arg < R.Arg;
  }

  std::string toString() const;

private:
  Kind K = Kind::Symbol;
  VarId V;            // Symbol.
  AffineExpr Arg;     // Mod.
  BigInt Modulus;     // Mod.
};

/// A monomial: atoms with positive integer exponents.
using Monomial = std::map<Atom, unsigned>;

/// Polynomial with Rational coefficients over Atoms.
class QuasiPolynomial {
public:
  QuasiPolynomial() = default;
  /// Implicit constant polynomial.
  QuasiPolynomial(Rational C);
  QuasiPolynomial(int C) : QuasiPolynomial(Rational(C)) {}

  static QuasiPolynomial variable(VarId V) {
    return fromAtom(Atom::symbol(V));
  }
  /// The variable named \p Name (interned): for callers at the boundary.
  static QuasiPolynomial variable(const std::string &Name) {
    return variable(internVar(Name)); // omegatidy: allow(name-lookup)
  }
  static QuasiPolynomial fromAtom(Atom A);
  /// Converts an affine expression (all variables become Symbol atoms).
  static QuasiPolynomial fromAffine(const AffineExpr &E);

  bool isZero() const { return Terms.empty(); }
  bool isConstant() const {
    return Terms.empty() || (Terms.size() == 1 && Terms.begin()->first.empty());
  }
  Rational constantValue() const {
    check(isConstant(), "not a constant polynomial");
    return Terms.empty() ? Rational(0) : Terms.begin()->second;
  }

  const std::map<Monomial, Rational> &terms() const { return Terms; }

  QuasiPolynomial operator-() const;
  QuasiPolynomial &operator+=(const QuasiPolynomial &RHS);
  QuasiPolynomial &operator-=(const QuasiPolynomial &RHS);
  QuasiPolynomial &operator*=(const QuasiPolynomial &RHS);
  QuasiPolynomial &operator*=(const Rational &C);

  friend QuasiPolynomial operator+(QuasiPolynomial L,
                                   const QuasiPolynomial &R) {
    return L += R;
  }
  friend QuasiPolynomial operator-(QuasiPolynomial L,
                                   const QuasiPolynomial &R) {
    return L -= R;
  }
  friend QuasiPolynomial operator*(QuasiPolynomial L,
                                   const QuasiPolynomial &R) {
    return L *= R;
  }
  friend QuasiPolynomial operator*(QuasiPolynomial L, const Rational &R) {
    return L *= R;
  }

  friend bool operator==(const QuasiPolynomial &L, const QuasiPolynomial &R) {
    return L.Terms == R.Terms;
  }
  friend bool operator!=(const QuasiPolynomial &L, const QuasiPolynomial &R) {
    return !(L == R);
  }

  static QuasiPolynomial pow(const QuasiPolynomial &Base, unsigned E);

  /// Degree in the Symbol atom \p V (0 if absent).
  unsigned degreeIn(VarId V) const;

  /// Writes the polynomial as Σ_d Out[d] * V^d; Out.size() ==
  /// degreeIn(V) + 1.  Asserts no Mod atom mentions \p V.
  std::vector<QuasiPolynomial> coefficientsOf(VarId V) const;

  /// Substitutes the Symbol atom \p V by \p Value.  Asserts no Mod atom
  /// mentions \p V.
  void substitute(VarId V, const QuasiPolynomial &Value);

  /// True iff any atom (symbol or mod argument) mentions \p V.
  bool mentions(VarId V) const;
  void collectVars(VarSet &Out) const;

  Rational evaluate(const Assignment &Values) const;

  std::string toString() const;

private:
  void addTerm(Monomial M, Rational C);

  std::map<Monomial, Rational> Terms; // No zero coefficients stored.
};

std::ostream &operator<<(std::ostream &OS, const QuasiPolynomial &P);

} // namespace omega

#endif // OMEGA_POLY_QUASIPOLYNOMIAL_H
