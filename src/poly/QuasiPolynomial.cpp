//===- poly/QuasiPolynomial.cpp - Symbolic counting values ---------------===//

#include "poly/QuasiPolynomial.h"

#include "support/Error.h"

#include <ostream>
#include <sstream>

using namespace omega;

Atom Atom::mod(AffineExpr Arg, BigInt Modulus) {
  check(Modulus.isPositive(), "mod atom needs positive modulus");
  Atom A;
  A.K = Kind::Mod;
  // Canonicalize: (e mod c) depends only on e's residues mod c.
  AffineExpr Canon;
  Canon.setConstant(BigInt::floorMod(Arg.constant(), Modulus));
  for (const auto &[V, C] : Arg.terms())
    Canon.setCoeff(V, BigInt::floorMod(C, Modulus));
  A.Arg = std::move(Canon);
  A.Modulus = std::move(Modulus);
  return A;
}

void Atom::collectVars(VarSet &Out) const {
  if (isSymbol())
    Out.insert(V);
  else
    Arg.collectVars(Out);
}

bool Atom::mentions(VarId Var) const {
  return isSymbol() ? V == Var : Arg.mentions(Var);
}

BigInt Atom::evaluate(const Assignment &Values) const {
  if (isSymbol()) {
    const BigInt *Value = Values.lookup(V);
    check(Value != nullptr, "unbound symbol in Atom::evaluate");
    return *Value;
  }
  return BigInt::floorMod(Arg.evaluate(Values), Modulus);
}

std::string Atom::toString() const {
  if (isSymbol())
    return varName(V);
  std::ostringstream OS;
  OS << "(" << Arg << " mod " << Modulus << ")";
  return OS.str();
}

QuasiPolynomial::QuasiPolynomial(Rational C) {
  if (!C.isZero())
    Terms.emplace(Monomial(), std::move(C));
}

QuasiPolynomial QuasiPolynomial::fromAtom(Atom A) {
  // A constant mod-atom folds to its value.
  if (A.isMod() && A.arg().isConstant())
    return QuasiPolynomial(
        Rational(BigInt::floorMod(A.arg().constant(), A.modulus())));
  QuasiPolynomial P;
  Monomial M;
  M.emplace(std::move(A), 1);
  P.Terms.emplace(std::move(M), Rational(1));
  return P;
}

QuasiPolynomial QuasiPolynomial::fromAffine(const AffineExpr &E) {
  QuasiPolynomial P(Rational(E.constant()));
  for (const auto &[V, C] : E.terms())
    P += variable(V) * Rational(C);
  return P;
}

void QuasiPolynomial::addTerm(Monomial M, Rational C) {
  if (C.isZero())
    return;
  auto It = Terms.find(M);
  if (It == Terms.end()) {
    Terms.emplace(std::move(M), std::move(C));
    return;
  }
  It->second += C;
  if (It->second.isZero())
    Terms.erase(It);
}

QuasiPolynomial QuasiPolynomial::operator-() const {
  QuasiPolynomial R;
  for (const auto &[M, C] : Terms)
    R.Terms.emplace(M, -C);
  return R;
}

QuasiPolynomial &QuasiPolynomial::operator+=(const QuasiPolynomial &RHS) {
  for (const auto &[M, C] : RHS.Terms)
    addTerm(M, C);
  return *this;
}

QuasiPolynomial &QuasiPolynomial::operator-=(const QuasiPolynomial &RHS) {
  for (const auto &[M, C] : RHS.Terms)
    addTerm(M, -C);
  return *this;
}

QuasiPolynomial &QuasiPolynomial::operator*=(const QuasiPolynomial &RHS) {
  QuasiPolynomial Out;
  for (const auto &[ML, CL] : Terms)
    for (const auto &[MR, CR] : RHS.Terms) {
      Monomial M = ML;
      for (const auto &[A, E] : MR)
        M[A] += E;
      Out.addTerm(std::move(M), CL * CR);
    }
  return *this = std::move(Out);
}

QuasiPolynomial &QuasiPolynomial::operator*=(const Rational &C) {
  if (C.isZero()) {
    Terms.clear();
    return *this;
  }
  for (auto &[M, Coef] : Terms)
    Coef *= C;
  return *this;
}

QuasiPolynomial QuasiPolynomial::pow(const QuasiPolynomial &Base,
                                     unsigned E) {
  QuasiPolynomial R(Rational(1));
  QuasiPolynomial B = Base;
  while (E) {
    if (E & 1)
      R *= B;
    E >>= 1;
    if (E)
      B *= B;
  }
  return R;
}

unsigned QuasiPolynomial::degreeIn(VarId V) const {
  Atom A = Atom::symbol(V);
  unsigned D = 0;
  for (const auto &[M, C] : Terms) {
    (void)C;
    auto It = M.find(A);
    if (It != M.end())
      D = std::max(D, It->second);
  }
  return D;
}

std::vector<QuasiPolynomial>
QuasiPolynomial::coefficientsOf(VarId V) const {
  Atom A = Atom::symbol(V);
  std::vector<QuasiPolynomial> Out(degreeIn(V) + 1);
  for (const auto &[M, C] : Terms) {
    unsigned D = 0;
    Monomial Rest;
    for (const auto &[At, E] : M) {
      if (At == A) {
        D = E;
        continue;
      }
      check(!At.mentions(V), "mod atom mentions the variable being summed");
      Rest.emplace(At, E);
    }
    Out[D].addTerm(std::move(Rest), C);
  }
  return Out;
}

void QuasiPolynomial::substitute(VarId V, const QuasiPolynomial &Value) {
  std::vector<QuasiPolynomial> Coefs = coefficientsOf(V);
  QuasiPolynomial Out = Coefs[0];
  QuasiPolynomial Pow(Rational(1));
  for (size_t D = 1; D < Coefs.size(); ++D) {
    Pow *= Value;
    Out += Coefs[D] * Pow;
  }
  *this = std::move(Out);
}

bool QuasiPolynomial::mentions(VarId V) const {
  for (const auto &[M, C] : Terms) {
    (void)C;
    for (const auto &[A, E] : M) {
      (void)E;
      if (A.mentions(V))
        return true;
    }
  }
  return false;
}

void QuasiPolynomial::collectVars(VarSet &Out) const {
  for (const auto &[M, C] : Terms) {
    (void)C;
    for (const auto &[A, E] : M) {
      (void)E;
      A.collectVars(Out);
    }
  }
}

Rational QuasiPolynomial::evaluate(const Assignment &Values) const {
  Rational R(0);
  for (const auto &[M, C] : Terms) {
    Rational T = C;
    for (const auto &[A, E] : M)
      T *= Rational::pow(Rational(A.evaluate(Values)), E);
    R += T;
  }
  return R;
}

std::string QuasiPolynomial::toString() const {
  if (Terms.empty())
    return "0";
  std::ostringstream OS;
  bool First = true;
  // Print higher-degree monomials first for a conventional look.
  std::vector<std::pair<const Monomial *, const Rational *>> Order;
  Order.reserve(Terms.size());
  for (const auto &[M, C] : Terms)
    Order.push_back({&M, &C});
  std::stable_sort(Order.begin(), Order.end(),
                   [](const auto &L, const auto &R) {
                     unsigned DL = 0, DR = 0;
                     for (const auto &[A, E] : *L.first)
                       DL += E;
                     for (const auto &[A, E] : *R.first)
                       DR += E;
                     return DL > DR;
                   });
  for (const auto &[M, C] : Order) {
    Rational Coef = *C;
    if (First) {
      if (Coef.sign() < 0) {
        OS << "-";
        Coef = -Coef;
      }
    } else if (Coef.sign() < 0) {
      OS << " - ";
      Coef = -Coef;
    } else {
      OS << " + ";
    }
    bool NeedStar = false;
    if (!(Coef == Rational(1)) || M->empty()) {
      OS << Coef.toString();
      NeedStar = true;
    }
    for (const auto &[A, E] : *M) {
      if (NeedStar)
        OS << "*";
      OS << A.toString();
      if (E > 1)
        OS << "^" << E;
      NeedStar = true;
    }
    First = false;
  }
  return OS.str();
}

std::ostream &omega::operator<<(std::ostream &OS, const QuasiPolynomial &P) {
  return OS << P.toString();
}
