//===- omega/Project.cpp - Integer variable elimination ------------------===//
//
// The core of the Omega test: exact existential elimination of integer
// variables.  Equalities are eliminated by substitution (unit coefficient)
// or by the scale-and-stride technique; inequalities by Fourier-Motzkin
// with dark shadow and splinters (Pugh, CACM 1992), including the paper's
// Figure 1 disjoint splintering.
//
//===----------------------------------------------------------------------===//

#include "omega/Omega.h"

#include "analysis/Validator.h"
#include "support/Budget.h"
#include "support/Error.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>

using namespace omega;

namespace {

/// Budget check on coefficient growth: trips when any coefficient or
/// constant of \p C exceeds the active budget's bit-width cap.  Charged
/// after every normalize step, where Fourier pair combination has just
/// multiplied coefficients.
void chargeClauseCoefficients(const Conjunct &C) {
  const BudgetState *B = activeBudget();
  if (!B || B->Limits.MaxCoefficientBits == 0)
    return;
  unsigned MaxBits = 0;
  for (const Constraint &K : C.constraints()) {
    MaxBits = std::max(MaxBits, K.expr().constant().bitWidth());
    for (const auto &[Name, Coef] : K.expr().terms()) {
      (void)Name;
      MaxBits = std::max(MaxBits, Coef.bitWidth());
    }
    if (K.isStride())
      MaxBits = std::max(MaxBits, K.modulus().bitWidth());
  }
  chargeCoefficientBits(MaxBits, "projection");
}

/// One bound on a variable v extracted from a Ge constraint:
/// Lower: Coef * v >= Expr;  Upper: Coef * v <= Expr.  Coef > 0.
struct Bound {
  BigInt Coef;
  AffineExpr Expr;
};

struct BoundSet {
  std::vector<Bound> Lowers;
  std::vector<Bound> Uppers;
};

/// Collects the bounds that the Ge constraints of \p C place on \p V.
BoundSet collectBounds(const Conjunct &C, VarId V) {
  BoundSet B;
  for (const Constraint &K : C.constraints()) {
    if (!K.isGe())
      continue;
    const BigInt &A = K.expr().coeff(V);
    if (A.isZero())
      continue;
    AffineExpr Rest = K.expr();
    Rest.setCoeff(V, BigInt(0));
    if (A.isPositive()) {
      // a*v + rest >= 0  =>  a*v >= -rest.
      B.Lowers.push_back({A, -Rest});
    } else {
      // -a*v + rest >= 0  =>  a*v <= rest.
      B.Uppers.push_back({-A, std::move(Rest)});
    }
  }
  return B;
}

/// Normalizes every constraint, drops trivially true ones and duplicates.
/// Returns false iff the clause is syntactically infeasible.
bool normalizeClause(Conjunct &C) { return normalizeConjunct(C); }

/// The projection engine.  Eliminates a target set of variables from a
/// clause, emitting result clauses (wildcard-free, strides allowed) into
/// Results.  StopAfterFirst turns it into a feasibility engine.
class Projector {
public:
  Projector(ShadowMode Mode, bool StopAfterFirst)
      : Mode(Mode), StopAfterFirst(StopAfterFirst) {}

  std::vector<Conjunct> Results;

  void run(Conjunct C, VarSet Targets) {
    if (StopAfterFirst && !Results.empty())
      return;
    // Depth and splinter counts are per-Projector-instance, so whether a
    // budget trips is a function of this elimination alone — independent
    // of what other queries are in flight.
    ++Depth;
    struct DepthGuard {
      unsigned &D;
      ~DepthGuard() { --D; }
    } Guard{Depth};
    chargeDepth(Depth, "projection");
    // Wildcards are existential by definition; fold them into the targets.
    const VarSet Wilds = C.takeWildcards();
    for (VarId W : Wilds)
      Targets.insert(W);

    while (true) {
      if (!normalizeClause(C))
        return;
      chargeClauseCoefficients(C);

      // Drop targets no constraint mentions (they are unconstrained).
      VarSet Mentioned = C.mentionedVars();
      for (auto It = Targets.begin(); It != Targets.end();)
        It = Mentioned.contains(*It) ? std::next(It) : Targets.erase(It);

      if (Targets.empty()) {
        Results.push_back(std::move(C));
        return;
      }

      if (eliminateOneEquality(C, Targets))
        continue;
      if (convertOneStride(C, Targets))
        continue;

      // All remaining target occurrences are in Ge constraints.
      VarId V = pickFourierVar(C, Targets);
      if (!fourierEliminate(std::move(C), V, std::move(Targets)))
        return; // Recursion emitted the results.
      fatalError("Projector: fourierEliminate must take over");
    }
  }

private:
  /// If some equality involves a target variable, eliminates that variable
  /// and returns true.
  bool eliminateOneEquality(Conjunct &C, VarSet &Targets) {
    size_t BestIdx = 0;
    VarId BestVar;
    BigInt BestAbs;
    bool Found = false;
    const std::vector<Constraint> &Ks = C.constraints();
    for (size_t I = 0; I < Ks.size(); ++I) {
      if (!Ks[I].isEq())
        continue;
      // Name order, not storage order: the first-seen tie-break among
      // equal |coefficients| is observable through the elimination choice.
      Ks[I].expr().forEachTermByName([&](VarId V, const BigInt &Coef) {
        if (!Targets.contains(V))
          return;
        BigInt A = Coef.abs();
        if (!Found || A < BestAbs) {
          Found = true;
          BestAbs = std::move(A);
          BestIdx = I;
          BestVar = V;
        }
      });
    }
    if (!Found)
      return false;

    Constraint Eq = Ks[BestIdx];
    Conjunct Rest;
    for (size_t I = 0; I < Ks.size(); ++I)
      if (I != BestIdx)
        Rest.add(Ks[I]);

    AffineExpr E = Eq.expr();
    BigInt A = E.coeff(BestVar);
    if (A.isNegative()) {
      E = -E;
      A = -A;
    }
    AffineExpr RestExpr = E; // a*v + e = 0; RestExpr = e.
    RestExpr.setCoeff(BestVar, BigInt(0));

    if (A.isOne()) {
      // v = -e: plain substitution.
      Rest.substitute(BestVar, -RestExpr);
      C = std::move(Rest);
      Targets.erase(BestVar);
      return true;
    }

    // Scale-and-stride: a*v = -e requires a | e; every other constraint
    // f + b*v {>=,=} 0 becomes a*f - b*e {>=,=} 0 (a > 0 preserves >=),
    // and a stride m | f + b*v becomes a*m | a*f - b*e.
    Conjunct NewC;
    for (const Constraint &K : Rest.constraints()) {
      BigInt B = K.expr().coeff(BestVar);
      if (B.isZero()) {
        NewC.add(K);
        continue;
      }
      AffineExpr F = K.expr();
      F.setCoeff(BestVar, BigInt(0));
      AffineExpr NewExpr = A * F - B * RestExpr;
      switch (K.kind()) {
      case ConstraintKind::Ge:
        NewC.add(Constraint::ge(std::move(NewExpr)));
        break;
      case ConstraintKind::Eq:
        NewC.add(Constraint::eq(std::move(NewExpr)));
        break;
      case ConstraintKind::Stride:
        NewC.add(Constraint::stride(A * K.modulus(), std::move(NewExpr)));
        break;
      }
    }
    NewC.add(Constraint::stride(A, RestExpr));
    C = std::move(NewC);
    Targets.erase(BestVar);
    return true;
  }

  /// If some stride involves a target variable, rewrites it as an equality
  /// with a fresh (target) auxiliary and returns true.  Termination: the
  /// stride's coefficients are normalized into [0, m), so the subsequent
  /// equality elimination works on a coefficient < m and any stride it
  /// creates has a strictly smaller modulus.
  bool convertOneStride(Conjunct &C, VarSet &Targets) {
    for (size_t I = 0; I < C.constraints().size(); ++I) {
      const Constraint &K = C.constraints()[I];
      if (!K.isStride())
        continue;
      bool HasTarget = false;
      for (const auto &[V, Coef] : K.expr().terms()) {
        (void)Coef;
        if (Targets.contains(V)) {
          HasTarget = true;
          break;
        }
      }
      if (!HasTarget)
        continue;
      VarId W = C.freshWildcard();
      AffineExpr E = K.expr();
      E.setCoeff(W, -K.modulus());
      C.constraints()[I] = Constraint::eq(std::move(E));
      Targets.insert(W);
      return true;
    }
    return false;
  }

  /// Chooses the next variable for Fourier elimination: prefer one whose
  /// every (lower, upper) pair is exact (unit coefficient on either side),
  /// then fewest pair products (the paper's §4.4 heuristic).
  VarId pickFourierVar(const Conjunct &C, const VarSet &Targets) {
    VarId Best;
    bool Found = false;
    bool BestExact = false;
    size_t BestCost = 0;
    // Candidates scan in name order: ties on (Exact, Cost) keep the
    // name-least variable, as with the former string set.
    for (VarId V : Targets) {
      BoundSet B = collectBounds(C, V);
      bool Exact = true;
      for (const Bound &L : B.Lowers)
        for (const Bound &U : B.Uppers)
          if (!L.Coef.isOne() && !U.Coef.isOne())
            Exact = false;
      size_t Cost = std::max<size_t>(1, B.Lowers.size()) *
                    std::max<size_t>(1, B.Uppers.size());
      if (!Found || (Exact && !BestExact) ||
          (Exact == BestExact && Cost < BestCost)) {
        Found = true;
        Best = V;
        BestExact = Exact;
        BestCost = Cost;
      }
    }
    check(Found, "no Fourier candidate among targets");
    return Best;
  }

  /// Eliminates \p V from \p C by Fourier-Motzkin (recursing for
  /// splinters).  Always takes over emission; returns false.
  bool fourierEliminate(Conjunct C, VarId V, VarSet Targets) {
    BoundSet B = collectBounds(C, V);

    // One-sided: for any values of the other variables we can push v far
    // enough, so constraints on v are vacuous under ∃v.
    if (B.Lowers.empty() || B.Uppers.empty()) {
      Conjunct Rest;
      for (const Constraint &K : C.constraints())
        if (!K.mentions(V))
          Rest.add(K);
      Targets.erase(V);
      run(std::move(Rest), std::move(Targets));
      return false;
    }

    bool AllExact = true;
    for (const Bound &L : B.Lowers)
      for (const Bound &U : B.Uppers)
        if (!L.Coef.isOne() && !U.Coef.isOne())
          AllExact = false;

    if (AllExact || Mode == ShadowMode::Real || Mode == ShadowMode::Dark) {
      Conjunct Rest;
      for (const Constraint &K : C.constraints())
        if (!K.mentions(V))
          Rest.add(K);
      for (const Bound &L : B.Lowers)
        for (const Bound &U : B.Uppers) {
          // b*U >= a*L, exact/real; dark subtracts (a-1)(b-1).
          AffineExpr E = L.Coef * U.Expr - U.Coef * L.Expr;
          if (!AllExact && Mode == ShadowMode::Dark)
            E -= AffineExpr((U.Coef - BigInt(1)) * (L.Coef - BigInt(1)));
          Rest.add(Constraint::ge(std::move(E)));
        }
      Targets.erase(V);
      run(std::move(Rest), std::move(Targets));
      return false;
    }

    if (Mode == ShadowMode::Exact)
      overlappingSplinters(std::move(C), V, B, std::move(Targets));
    else
      disjointSplinters(std::move(C), V, B, std::move(Targets));
    return false;
  }

  /// Pugh's CACM-1992 exact elimination: dark shadow plus (possibly
  /// overlapping) splinters from each lower bound.
  void overlappingSplinters(Conjunct C, VarId V, const BoundSet &B,
                            VarSet Targets) {
    Conjunct Dark;
    for (const Constraint &K : C.constraints())
      if (!K.mentions(V))
        Dark.add(K);
    for (const Bound &L : B.Lowers)
      for (const Bound &U : B.Uppers) {
        AffineExpr E = L.Coef * U.Expr - U.Coef * L.Expr -
                       AffineExpr((U.Coef - BigInt(1)) * (L.Coef - BigInt(1)));
        Dark.add(Constraint::ge(std::move(E)));
      }
    {
      VarSet T = Targets;
      T.erase(V);
      run(std::move(Dark), std::move(T));
    }

    BigInt MaxA(1);
    for (const Bound &U : B.Uppers)
      MaxA = std::max(MaxA, U.Coef);
    TraceSpan Span("splinter");
    for (const Bound &L : B.Lowers) {
      if (L.Coef.isOne())
        continue;
      // i ranges over 0 .. ((amax-1)(b-1) - 1) / amax.
      BigInt KMax = BigInt::floorDiv(
          (MaxA - BigInt(1)) * (L.Coef - BigInt(1)) - BigInt(1), MaxA);
      for (BigInt I(0); I <= KMax; ++I) {
        Conjunct Spl = C;
        // b*v = L + i.
        AffineExpr E = L.Coef * AffineExpr::variable(V) - L.Expr -
                       AffineExpr(I);
        Spl.add(Constraint::eq(std::move(E)));
        chargeOneSplinter();
        Span.count(TraceCounter::Splinters);
        run(std::move(Spl), Targets);
      }
    }
  }

  /// Figure 1 of the paper: disjoint splintering.  The dark shadow and all
  /// splinters are pairwise disjoint.
  void disjointSplinters(Conjunct C, VarId V, const BoundSet &B,
                         VarSet Targets) {
    // Parallel splintering: if some (lower, upper) pair pins c*v into a
    // window of syntactically constant width k with k < c*c' - 1, just
    // enumerate the window (each piece fixes a distinct value of the
    // scaled variable, hence disjoint).
    for (const Bound &L : B.Lowers)
      for (const Bound &U : B.Uppers) {
        AffineExpr D = L.Coef * U.Expr - U.Coef * L.Expr;
        if (!D.isConstant())
          continue;
        const BigInt &K = D.constant();
        if (K.isNegative())
          return; // a*L > b*U: window empty, clause infeasible.
        BigInt C2 = L.Coef * U.Coef;
        if (K >= C2 - BigInt(1))
          continue; // Window wide enough to always contain a point.
        // ab*v ∈ [a*L, a*L + k]: at most one multiple of ab per point.
        TraceSpan Span("splinter");
        for (BigInt I(0); I <= K; ++I) {
          Conjunct Spl = C;
          AffineExpr E = C2 * AffineExpr::variable(V) - U.Coef * L.Expr -
                         AffineExpr(I);
          Spl.add(Constraint::eq(std::move(E)));
          chargeOneSplinter();
          Span.count(TraceCounter::Splinters);
          run(std::move(Spl), Targets);
        }
        return;
      }

    // General case: accumulate dark-shadow pair constraints; when a pair's
    // miss region is reachable, emit one disjoint splinter per offset i and
    // per pinned value j of the scaled variable.
    Conjunct W;
    for (const Constraint &K : C.constraints())
      if (!K.mentions(V))
        W.add(K);

    for (const Bound &L : B.Lowers)
      for (const Bound &U : B.Uppers) {
        AffineExpr D = L.Coef * U.Expr - U.Coef * L.Expr; // b*U - a*L.
        if (L.Coef.isOne() || U.Coef.isOne()) {
          W.add(Constraint::ge(D)); // Exact for this pair.
          continue;
        }
        BigInt Gap = (U.Coef - BigInt(1)) * (L.Coef - BigInt(1));
        Conjunct Miss = W;
        // Miss region: b*U - a*L <= gap - 1.
        Miss.add(Constraint::ge(AffineExpr(Gap - BigInt(1)) - D));
        if (feasible(Miss)) {
          TraceSpan Span("splinter");
          for (BigInt I(0); I < Gap; ++I)
            for (BigInt J(0); J <= I; ++J) {
              Conjunct Spl = C;
              Spl.addAll(W);
              // b*U - a*L = i.
              Spl.add(Constraint::eq(D - AffineExpr(I)));
              // ab*v = a*L + j pins the single candidate integer.
              AffineExpr E = L.Coef * U.Coef * AffineExpr::variable(V) -
                             U.Coef * L.Expr - AffineExpr(J);
              Spl.add(Constraint::eq(std::move(E)));
              chargeOneSplinter();
              Span.count(TraceCounter::Splinters);
              run(std::move(Spl), Targets);
            }
        }
        W.add(Constraint::ge(D - AffineExpr(Gap)));
      }
    Targets.erase(V);
    run(std::move(W), std::move(Targets));
  }

  /// Bumps the per-instance splinter count against the budget; call once
  /// per splinter, next to the SplintersGenerated stat.
  void chargeOneSplinter() {
    pipelineStats().SplintersGenerated += 1;
    chargeSplinters(++SplinterCount, "projection");
  }

  ShadowMode Mode;
  bool StopAfterFirst;
  unsigned Depth = 0;
  uint64_t SplinterCount = 0;
};

} // namespace

std::vector<Conjunct> omega::detail::projectVarsImpl(const Conjunct &C,
                                                     const VarSet &Vars,
                                                     ShadowMode Mode) {
  Projector P(Mode, /*StopAfterFirst=*/false);
  P.run(C, Vars);
  if (Mode != ShadowMode::Disjoint) {
#ifdef OMEGA_VALIDATE
    // Structural check only (the Disjoint path is validated by the
    // makeDisjoint boundary below): projection must consume every wildcard
    // and leave well-scoped clauses.  No oracle here — feasibility is this
    // function's own machinery, and approximate modes may legitimately
    // return clauses a later exact pass would prune.
    ValidatorOptions VO;
    VO.RequireWildcardFree = true;
    // Enclosing quantifiers' variables (floor `$` auxiliaries) are still
    // free here; only the top-level simplify boundary rejects free `$` names.
    VO.AllowFreeWildcardNames = true;
    validateOrDie(validateDnf(P.Results, std::move(VO)),
                  "omega::projectVars");
#endif
    return std::move(P.Results);
  }
  // §5.2: disjoint splintering guarantees disjointness only when the last
  // elimination is the only one that splinters — disjointness in (x, z) is
  // destroyed by projecting z away.  Per the paper, convert the result to
  // disjoint DNF (§5.3) to restore the property in the remaining space.
  return makeDisjoint(std::move(P.Results));
}

bool omega::detail::feasibleImpl(const Conjunct &C) {
  Projector P(ShadowMode::Exact, /*StopAfterFirst=*/true);
  P.run(C, C.mentionedVars());
  return !P.Results.empty();
}

bool omega::containsPoint(const Conjunct &C, const Assignment &Values) {
  Conjunct Sub = C;
  for (const auto &[Name, Value] : Values)
    if (!Sub.isWildcard(Name))
      Sub.substitute(Name, AffineExpr(Value));
  return feasible(Sub);
}

bool omega::normalizeConjunct(Conjunct &C) {
  std::vector<Constraint> Out;
  for (Constraint &K : C.constraints()) {
    if (!K.normalize())
      return false;
    if (K.isTriviallyTrue())
      continue;
    if (K.isTriviallyFalse())
      return false;
    if (std::find(Out.begin(), Out.end(), K) == Out.end())
      Out.push_back(std::move(K));
  }
  C.constraints() = std::move(Out);
  return true;
}

std::optional<Assignment> omega::samplePoint(const Conjunct &C) {
  if (!feasible(C))
    return std::nullopt;
  Assignment Point;
  Conjunct Cur = C;
  while (true) {
    VarSet Free = Cur.freeVars();
    if (Free.empty())
      return Point;
    const VarId V = *Free.begin(); // Name-least free variable.
    // Range of v with everything else projected away (real shadow gives a
    // sound superset interval; strides may force skipping within it).
    VarSet Others = Free;
    Others.erase(V);
    for (VarId W : Cur.wildcards())
      Others.insert(W);
    std::vector<Conjunct> Shadow = projectVars(Cur, Others, ShadowMode::Real);
    check(Shadow.size() <= 1, "real shadow is a single clause");
    bool HaveLo = false, HaveHi = false;
    BigInt Lo, Hi;
    if (!Shadow.empty())
      for (const Constraint &K : Shadow[0].constraints()) {
        if (K.isStride())
          continue;
        const BigInt &A = K.expr().coeff(V);
        if (A.isZero())
          continue;
        AffineExpr Rest = K.expr();
        Rest.setCoeff(V, BigInt(0));
        if (K.isEq() || A.isPositive()) {
          BigInt Div = A.isPositive() ? A : -A;
          BigInt Num = A.isPositive() ? -Rest.constant() : Rest.constant();
          BigInt B = BigInt::ceilDiv(Num, Div);
          if (!HaveLo || B > Lo)
            Lo = B;
          HaveLo = true;
        }
        if (K.isEq() || A.isNegative()) {
          BigInt Div = A.isNegative() ? -A : A;
          BigInt Num = A.isNegative() ? Rest.constant() : -Rest.constant();
          BigInt B = BigInt::floorDiv(Num, Div);
          if (!HaveHi || B < Hi)
            Hi = B;
          HaveHi = true;
        }
      }
    // Anchor unbounded directions near the other end (or zero).
    if (!HaveLo && !HaveHi) {
      Lo = BigInt(0);
      HaveLo = true;
    }
    if (!HaveLo)
      Lo = Hi; // Scan downward from the upper end.
    BigInt Val = Lo;
    int Direction = HaveLo ? 1 : -1;
    while (true) {
      if (HaveLo && HaveHi && (Val < Lo || Val > Hi))
        return std::nullopt; // Cannot happen: feasibility was checked.
      Conjunct Test = Cur;
      Test.substitute(V, AffineExpr(Val));
      if (feasible(Test)) {
        Point[V] = Val;
        Cur = std::move(Test);
        break;
      }
      Val += BigInt(Direction);
    }
  }
}
