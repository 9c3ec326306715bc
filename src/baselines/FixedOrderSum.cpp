//===- baselines/FixedOrderSum.cpp - Tawbi-style summation ---------------===//

#include "baselines/FixedOrderSum.h"

#include "poly/Faulhaber.h"
#include "support/Error.h"

#include <algorithm>

using namespace omega;

namespace {

struct SimpleBound {
  AffineExpr Expr;
  size_t Idx;
};

/// Bounds with unit coefficients only (affine loop nests).
void collectUnitBounds(const Conjunct &C, VarId V,
                       std::vector<SimpleBound> &Lowers,
                       std::vector<SimpleBound> &Uppers) {
  const std::vector<Constraint> &Ks = C.constraints();
  for (size_t I = 0; I < Ks.size(); ++I) {
    if (!Ks[I].isGe())
      continue;
    BigInt A = Ks[I].expr().coeff(V);
    if (A.isZero())
      continue;
    check((A.isOne() || A.isMinusOne()),
          "fixed-order baseline requires unit loop-bound coefficients");
    AffineExpr Rest = Ks[I].expr();
    Rest.setCoeff(V, BigInt(0));
    if (A.isOne())
      Lowers.push_back({-Rest, I}); // v >= -rest.
    else
      Uppers.push_back({Rest, I}); // v <= rest.
  }
}

QuasiPolynomial sumUnitRange(const QuasiPolynomial &X, VarId V,
                             const AffineExpr &L, const AffineExpr &U,
                             unsigned &Steps) {
  std::vector<QuasiPolynomial> Coefs = X.coefficientsOf(V);
  QuasiPolynomial S;
  for (size_t D = 0; D < Coefs.size(); ++D) {
    if (Coefs[D].isZero())
      continue;
    S += Coefs[D] * powerSumRange(static_cast<unsigned>(D),
                                  QuasiPolynomial::fromAffine(L),
                                  QuasiPolynomial::fromAffine(U));
    ++Steps;
  }
  return S;
}

/// The Tawbi engine: fixed order, polyhedral splitting, no redundancy
/// elimination.
class FixedOrderEngine {
public:
  BaselineSumResult Result;

  void run(Conjunct C, const std::vector<std::string> &Order, size_t Level,
           QuasiPolynomial X) {
    ++Result.NumSteps;
    // Drop exact duplicates (introduced by guard insertion); this is NOT
    // the redundancy elimination Tawbi lacks — just syntactic hygiene.
    {
      std::vector<Constraint> Dedup;
      for (Constraint &K : C.constraints())
        if (std::find(Dedup.begin(), Dedup.end(), K) == Dedup.end())
          Dedup.push_back(std::move(K));
      C.constraints() = std::move(Dedup);
    }
    if (Level == Order.size()) {
      Result.Value.add({std::move(C), std::move(X)});
      ++Result.NumTerms;
      return;
    }
    VarId V = internVar(Order[Level]);
    std::vector<SimpleBound> Lowers, Uppers;
    collectUnitBounds(C, V, Lowers, Uppers);
    check(!Lowers.empty() && !Uppers.empty(), "loop variable must be bounded");

    // Polyhedral splitting: pick which bound is tight, case by case
    // (Tawbi's initial splitting step, applied lazily per level).
    if (Uppers.size() > 1 || Lowers.size() > 1) {
      splitOneSide(C, Order, Level, X, Lowers, Uppers);
      return;
    }

    const AffineExpr &L = Lowers[0].Expr;
    const AffineExpr &U = Uppers[0].Expr;
    Conjunct Rest;
    for (size_t I = 0; I < C.constraints().size(); ++I)
      if (I != Lowers[0].Idx && I != Uppers[0].Idx)
        Rest.add(C.constraints()[I]);
    // The polyhedral split guarantees non-emptiness inside the region:
    // record the guard as a region constraint.
    Rest.add(Constraint::ge(U - L));
    QuasiPolynomial S = sumUnitRange(X, V, L, U, Result.NumSteps);
    run(std::move(Rest), Order, Level + 1, std::move(S));
  }

private:
  void splitOneSide(const Conjunct &C, const std::vector<std::string> &Order,
                    size_t Level, const QuasiPolynomial &X,
                    const std::vector<SimpleBound> &Lowers,
                    const std::vector<SimpleBound> &Uppers) {
    bool SplitUpper = Uppers.size() > 1;
    const std::vector<SimpleBound> &Side = SplitUpper ? Uppers : Lowers;
    for (size_t I = 0; I < Side.size(); ++I) {
      Conjunct Case;
      for (size_t K = 0; K < C.constraints().size(); ++K) {
        bool Skip = false;
        for (size_t J = 0; J < Side.size(); ++J)
          if (J != I && Side[J].Idx == K)
            Skip = true;
        if (!Skip)
          Case.add(C.constraints()[K]);
      }
      for (size_t J = 0; J < Side.size(); ++J) {
        if (J == I)
          continue;
        AffineExpr E = SplitUpper ? Side[J].Expr - Side[I].Expr
                                  : Side[I].Expr - Side[J].Expr;
        if (J < I)
          E -= AffineExpr(1);
        Case.add(Constraint::ge(std::move(E)));
      }
      ++Result.NumSteps;
      run(std::move(Case), Order, Level, X);
    }
  }
};

} // namespace

BaselineSumResult
omega::fixedOrderSum(const Conjunct &C, const std::vector<std::string> &Order,
                     const QuasiPolynomial &X) {
  FixedOrderEngine E;
  E.run(C, Order, 0, X);
  return std::move(E.Result);
}

QuasiPolynomial
omega::naiveClosedFormSum(const Conjunct &C,
                          const std::vector<std::string> &Order,
                          const QuasiPolynomial &X) {
  Conjunct Cur = C;
  QuasiPolynomial Val = X;
  for (const std::string &Name : Order) {
    VarId V = internVar(Name);
    std::vector<SimpleBound> Lowers, Uppers;
    collectUnitBounds(Cur, V, Lowers, Uppers);
    check(!Lowers.empty() && !Uppers.empty(), "loop variable must be bounded");
    unsigned Dummy = 0;
    Val = sumUnitRange(Val, V, Lowers[0].Expr, Uppers[0].Expr, Dummy);
    Conjunct Rest;
    for (size_t I = 0; I < Cur.constraints().size(); ++I)
      if (I != Lowers[0].Idx && I != Uppers[0].Idx)
        Rest.add(Cur.constraints()[I]);
    Cur = std::move(Rest);
  }
  return Val;
}
