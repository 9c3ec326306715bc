//===- apps/CodeGen.cpp - Scanning polyhedra with DO loops ---------------===//

#include "apps/CodeGen.h"

#include "support/Error.h"

#include <algorithm>
#include <sstream>

using namespace omega;

namespace {

/// Splits the Ge constraints of \p C on \p V into lower/upper bound forms.
void boundsOf(const Conjunct &C, VarId V,
              std::vector<std::pair<BigInt, AffineExpr>> &Lowers,
              std::vector<std::pair<BigInt, AffineExpr>> &Uppers) {
  for (const Constraint &K : C.constraints()) {
    if (K.isStride())
      continue;
    BigInt A = K.expr().coeff(V);
    if (A.isZero())
      continue;
    AffineExpr Rest = K.expr();
    Rest.setCoeff(V, BigInt(0));
    if (K.isEq()) {
      // a*v = -rest pins the value: both a lower and an upper bound.
      if (A.isNegative()) {
        A = -A;
        Rest = -Rest;
      }
      Lowers.push_back({A, -Rest});
      Uppers.push_back({A, -Rest});
      continue;
    }
    if (A.isPositive())
      Lowers.push_back({A, -Rest}); // a*v >= -rest.
    else
      Uppers.push_back({-A, std::move(Rest)}); // a*v <= rest.
  }
}

std::string renderBound(const std::pair<BigInt, AffineExpr> &B, bool Lower) {
  std::ostringstream OS;
  if (B.first.isOne()) {
    OS << "(" << B.second << ")";
    return OS.str();
  }
  OS << (Lower ? "ceild(" : "floord(") << B.second << ", " << B.first << ")";
  return OS.str();
}

} // namespace

GeneratedScan omega::generateScan(const Conjunct &C,
                                  const std::vector<std::string> &Order) {
  GeneratedScan Scan;
  Scan.Exact = true;

  for (size_t Level = 0; Level < Order.size(); ++Level) {
    // Project away the deeper variables; the real shadow gives valid (if
    // possibly loose) bounds for this level.
    VarSet Deeper(Order.begin() + Level + 1, Order.end());
    std::vector<Conjunct> Shadow = projectVars(C, Deeper, ShadowMode::Real);
    // Real-shadow projection never splinters: at most one clause.
    check(Shadow.size() <= 1, "real shadow must be a single clause");
    GeneratedLoop L;
    L.Var = Order[Level];
    const VarId V = internVar(L.Var);
    if (!Shadow.empty()) {
      boundsOf(Shadow[0], V, L.Lowers, L.Uppers);
      // Strides surviving projection make the bounds inexact.
      for (const Constraint &K : Shadow[0].constraints())
        if (K.isStride() && K.mentions(V))
          Scan.Exact = false;
      for (const auto &[Coef, Expr] : L.Lowers) {
        (void)Expr;
        if (!Coef.isOne())
          Scan.Exact = false; // Rational bound: integer holes possible.
      }
      for (const auto &[Coef, Expr] : L.Uppers) {
        (void)Expr;
        if (!Coef.isOne())
          Scan.Exact = false;
      }
    }
    check(!L.Lowers.empty() && !L.Uppers.empty(),
          "scanned variable must be bounded both ways");
    Scan.Loops.push_back(std::move(L));
  }

  // The real shadow over-approximates whenever any elimination was
  // inexact; detect via strides/equalities in the original clause too.
  for (const Constraint &K : C.constraints())
    if (!K.isGe())
      Scan.Exact = false;

  if (!Scan.Exact)
    Scan.Guard = C.constraints();
  return Scan;
}

std::string GeneratedScan::emit() const {
  std::ostringstream OS;
  std::string Indent;
  for (const GeneratedLoop &L : Loops) {
    OS << Indent << "for (" << L.Var << " = ";
    if (L.Lowers.size() > 1)
      OS << "max(";
    for (size_t I = 0; I < L.Lowers.size(); ++I)
      OS << (I ? ", " : "") << renderBound(L.Lowers[I], /*Lower=*/true);
    if (L.Lowers.size() > 1)
      OS << ")";
    OS << "; " << L.Var << " <= ";
    if (L.Uppers.size() > 1)
      OS << "min(";
    for (size_t I = 0; I < L.Uppers.size(); ++I)
      OS << (I ? ", " : "") << renderBound(L.Uppers[I], /*Lower=*/false);
    if (L.Uppers.size() > 1)
      OS << ")";
    OS << "; " << L.Var << "++)\n";
    Indent += "  ";
  }
  if (!Guard.empty()) {
    OS << Indent << "if (";
    for (size_t I = 0; I < Guard.size(); ++I)
      OS << (I ? " && " : "") << Guard[I];
    OS << ")\n";
    Indent += "  ";
  }
  OS << Indent << "visit(";
  for (size_t I = 0; I < Loops.size(); ++I)
    OS << (I ? ", " : "") << Loops[I].Var;
  OS << ");\n";
  return OS.str();
}

namespace {

void runLevel(const GeneratedScan &Scan, size_t Level, Assignment &Point,
              std::vector<Assignment> &Out) {
  if (Level == Scan.Loops.size()) {
    for (const Constraint &K : Scan.Guard)
      if (!K.holds(Point))
        return;
    Out.push_back(Point);
    return;
  }
  const GeneratedLoop &L = Scan.Loops[Level];
  bool HaveLo = false, HaveHi = false;
  BigInt Lo, Hi;
  for (const auto &[Coef, Expr] : L.Lowers) {
    BigInt B = BigInt::ceilDiv(Expr.evaluate(Point), Coef);
    if (!HaveLo || B > Lo)
      Lo = B;
    HaveLo = true;
  }
  for (const auto &[Coef, Expr] : L.Uppers) {
    BigInt B = BigInt::floorDiv(Expr.evaluate(Point), Coef);
    if (!HaveHi || B < Hi)
      Hi = B;
    HaveHi = true;
  }
  check(HaveLo && HaveHi, "generated loop must have bounds");
  const VarId Var = internVar(L.Var);
  for (BigInt V = Lo; V <= Hi; ++V) {
    Point[Var] = V;
    runLevel(Scan, Level + 1, Point, Out);
  }
  Point.erase(Var);
}

} // namespace

std::vector<Assignment> omega::runScan(const GeneratedScan &Scan,
                                       const Assignment &Params) {
  std::vector<Assignment> Out;
  Assignment Point = Params;
  runLevel(Scan, 0, Point, Out);
  return Out;
}
