//===- tests/OmegaTest.cpp - Omega test core: projection, feasibility ----===//

#include "omega/Omega.h"

#include "presburger/Parser.h"

#include <gtest/gtest.h>

#include <random>

using namespace omega;

namespace {

AffineExpr var(const char *N) { return AffineExpr::variable(N); }

/// True iff any clause contains the point.
bool unionContains(const std::vector<Conjunct> &Clauses,
                   const Assignment &A) {
  for (const Conjunct &C : Clauses)
    if (containsPoint(C, A))
      return true;
  return false;
}

/// Reference evaluator for formulas with quantifiers: quantified variables
/// range over [Lo, Hi].  Only valid when all witnesses lie in the box.
bool evalBox(const Formula &F, Assignment &A, int64_t Lo, int64_t Hi) {
  switch (F.kind()) {
  case FormulaKind::True:
    return true;
  case FormulaKind::False:
    return false;
  case FormulaKind::Atom:
    return F.constraint().holds(A);
  case FormulaKind::And:
    for (const Formula &C : F.children())
      if (!evalBox(C, A, Lo, Hi))
        return false;
    return true;
  case FormulaKind::Or:
    for (const Formula &C : F.children())
      if (evalBox(C, A, Lo, Hi))
        return true;
    return false;
  case FormulaKind::Not:
    return !evalBox(F.children()[0], A, Lo, Hi);
  case FormulaKind::Exists:
  case FormulaKind::Forall: {
    std::vector<VarId> Vars(F.quantified().begin(), F.quantified().end());
    bool IsExists = F.kind() == FormulaKind::Exists;
    // Enumerate assignments to the quantified variables.
    std::vector<int64_t> Vals(Vars.size(), Lo);
    while (true) {
      for (size_t I = 0; I < Vars.size(); ++I)
        A[Vars[I]] = BigInt(Vals[I]);
      bool B = evalBox(F.body(), A, Lo, Hi);
      if (IsExists && B)
        return true;
      if (!IsExists && !B)
        return false;
      size_t I = 0;
      while (I < Vals.size() && ++Vals[I] > Hi)
        Vals[I++] = Lo;
      if (I == Vals.size())
        break;
    }
    for (VarId V : Vars)
      A.erase(V);
    return !IsExists;
  }
  }
  return false;
}

TEST(FeasibleTest, GroundAndSimple) {
  Conjunct T;
  EXPECT_TRUE(feasible(T));
  Conjunct C;
  C.add(Constraint::ge(var("x") - AffineExpr(1)));
  C.add(Constraint::ge(AffineExpr(10) - var("x")));
  EXPECT_TRUE(feasible(C));
  Conjunct Bad;
  Bad.add(Constraint::ge(var("x") - AffineExpr(1)));
  Bad.add(Constraint::ge(-var("x")));
  EXPECT_FALSE(feasible(Bad));
}

TEST(FeasibleTest, IntegerOnlyInfeasibility) {
  // 2x = 1 has rational but no integer solutions.
  Conjunct C;
  C.add(Constraint::eq(var("x") * BigInt(2) - AffineExpr(1)));
  EXPECT_FALSE(feasible(C));
  // Parity conflict: 2|x and 2|x+1.
  Conjunct D;
  D.add(Constraint::stride(BigInt(2), var("x")));
  D.add(Constraint::stride(BigInt(2), var("x") + AffineExpr(1)));
  EXPECT_FALSE(feasible(D));
  // The classic dark-shadow case: 0 <= 3y - x <= 7, 1 <= x - 2y <= 5 has
  // solutions (e.g. x = 6, y = 2 gives 3y-x=0... check x=8,y=3: 1, 2 ok).
  Conjunct E;
  E.add(Constraint::ge(var("y") * BigInt(3) - var("x")));
  E.add(Constraint::ge(AffineExpr(7) - (var("y") * BigInt(3) - var("x"))));
  E.add(Constraint::ge(var("x") - var("y") * BigInt(2) - AffineExpr(1)));
  E.add(Constraint::ge(AffineExpr(5) - (var("x") - var("y") * BigInt(2))));
  EXPECT_TRUE(feasible(E));
}

TEST(FeasibleTest, TightIntegerGap) {
  // 2 <= 3x <= 4 contains the integer x = 1 (3x = 3).
  Conjunct C;
  C.add(Constraint::ge(var("x") * BigInt(3) - AffineExpr(2)));
  C.add(Constraint::ge(AffineExpr(4) - var("x") * BigInt(3)));
  EXPECT_TRUE(feasible(C));
  // 4 <= 3x <= 5 contains no integer (3x would be 4 or 5).
  Conjunct D;
  D.add(Constraint::ge(var("x") * BigInt(3) - AffineExpr(4)));
  D.add(Constraint::ge(AffineExpr(5) - var("x") * BigInt(3)));
  EXPECT_FALSE(feasible(D));
}

TEST(ProjectTest, EvenNumbersExample) {
  // §2.1: ∃y: 1 <= y <= 4 ∧ x = 2y  has solutions x ∈ {2,4,6,8}.
  Conjunct C;
  C.add(Constraint::ge(var("y") - AffineExpr(1)));
  C.add(Constraint::ge(AffineExpr(4) - var("y")));
  C.add(Constraint::eq(var("x") - var("y") * BigInt(2)));
  std::vector<Conjunct> R = projectVars(C, {"y"});
  ASSERT_FALSE(R.empty());
  for (int64_t X = -2; X <= 12; ++X) {
    bool Expected = X >= 2 && X <= 8 && X % 2 == 0;
    EXPECT_EQ(unionContains(R, {{"x", BigInt(X)}}), Expected)
        << "x = " << X;
  }
}

TEST(ProjectTest, PaperProjectionExample) {
  // §2.1: x = 6i + 9j - 7, 1 <= i <= 8, 1 <= j <= 5: all x in [8, 86]
  // with x ≡ 2 (mod 3), except 11 and 83.
  Conjunct C;
  C.add(Constraint::eq(var("x") - var("i") * BigInt(6) - var("j") * BigInt(9) +
                       AffineExpr(7)));
  C.add(Constraint::ge(var("i") - AffineExpr(1)));
  C.add(Constraint::ge(AffineExpr(8) - var("i")));
  C.add(Constraint::ge(var("j") - AffineExpr(1)));
  C.add(Constraint::ge(AffineExpr(5) - var("j")));
  for (ShadowMode Mode : {ShadowMode::Exact, ShadowMode::Disjoint}) {
    std::vector<Conjunct> R = projectVars(C, {"i", "j"}, Mode);
    for (int64_t X = 0; X <= 95; ++X) {
      bool Expected =
          X >= 8 && X <= 86 && X % 3 == 2 && X != 11 && X != 83;
      EXPECT_EQ(unionContains(R, {{"x", BigInt(X)}}), Expected)
          << "x = " << X << " mode " << int(Mode);
    }
  }
}

TEST(ProjectTest, RealAndDarkShadowBracketExact) {
  // ∃y: 0 <= 3y - x <= 7 ∧ 1 <= x - 2y <= 5 (the Figure 1 example).
  Conjunct C;
  AffineExpr T1 = var("y") * BigInt(3) - var("x");
  AffineExpr T2 = var("x") - var("y") * BigInt(2);
  C.add(Constraint::ge(T1));
  C.add(Constraint::ge(AffineExpr(7) - T1));
  C.add(Constraint::ge(T2 - AffineExpr(1)));
  C.add(Constraint::ge(AffineExpr(5) - T2));

  std::vector<Conjunct> Exact = projectVars(C, {"y"}, ShadowMode::Exact);
  std::vector<Conjunct> Disj = projectVars(C, {"y"}, ShadowMode::Disjoint);
  std::vector<Conjunct> Real = projectVars(C, {"y"}, ShadowMode::Real);
  std::vector<Conjunct> Dark = projectVars(C, {"y"}, ShadowMode::Dark);

  EXPECT_TRUE(pairwiseDisjoint(Disj));

  for (int64_t X = -5; X <= 40; ++X) {
    Assignment A{{"x", BigInt(X)}};
    // Ground truth by enumeration over y.
    bool Truth = false;
    for (int64_t Y = -20; Y <= 40 && !Truth; ++Y) {
      int64_t U = 3 * Y - X, V = X - 2 * Y;
      Truth = U >= 0 && U <= 7 && V >= 1 && V <= 5;
    }
    EXPECT_EQ(unionContains(Exact, A), Truth) << "exact x=" << X;
    EXPECT_EQ(unionContains(Disj, A), Truth) << "disjoint x=" << X;
    // Real shadow over-approximates; dark shadow under-approximates.
    if (Truth)
      EXPECT_TRUE(unionContains(Real, A)) << "real x=" << X;
    if (unionContains(Dark, A))
      EXPECT_TRUE(Truth) << "dark x=" << X;
  }
}

TEST(ProjectTest, OneSidedBoundsVacuous) {
  // ∃y: y >= x ∧ y >= 0 is always true.
  Conjunct C;
  C.add(Constraint::ge(var("y") - var("x")));
  C.add(Constraint::ge(var("y")));
  std::vector<Conjunct> R = projectVars(C, {"y"});
  ASSERT_EQ(R.size(), 1u);
  EXPECT_TRUE(R[0].constraints().empty());
}

TEST(ProjectTest, RandomAgainstEnumeration) {
  std::mt19937_64 Rng(2024);
  for (int Trial = 0; Trial < 60; ++Trial) {
    // Random clause over (x, y, z); project (y, z); compare on x.
    Conjunct C;
    auto RandCoef = [&] { return BigInt(int64_t(Rng() % 7) - 3); };
    unsigned NumCons = 2 + Rng() % 4;
    for (unsigned I = 0; I < NumCons; ++I) {
      AffineExpr E = RandCoef() * var("x") + RandCoef() * var("y") +
                     RandCoef() * var("z") + AffineExpr(RandCoef() * 3);
      C.add(Constraint::ge(E));
    }
    // Keep everything bounded so enumeration is finite.
    for (const char *V : {"x", "y", "z"}) {
      C.add(Constraint::ge(var(V) + AffineExpr(6)));
      C.add(Constraint::ge(AffineExpr(6) - var(V)));
    }
    for (ShadowMode Mode : {ShadowMode::Exact, ShadowMode::Disjoint}) {
      std::vector<Conjunct> R = projectVars(C, {"y", "z"}, Mode);
      if (Mode == ShadowMode::Disjoint)
        EXPECT_TRUE(pairwiseDisjoint(R)) << "trial " << Trial;
      for (int64_t X = -7; X <= 7; ++X) {
        bool Truth = false;
        for (int64_t Y = -6; Y <= 6 && !Truth; ++Y)
          for (int64_t Z = -6; Z <= 6 && !Truth; ++Z)
            Truth = C.contains(
                {{"x", BigInt(X)}, {"y", BigInt(Y)}, {"z", BigInt(Z)}});
        EXPECT_EQ(unionContains(R, {{"x", BigInt(X)}}), Truth)
            << "trial " << Trial << " x=" << X << " mode " << int(Mode);
      }
    }
  }
}

TEST(RedundancyTest, SimplePass) {
  Conjunct C;
  C.add(Constraint::ge(var("x") - AffineExpr(1))); // x >= 1
  C.add(Constraint::ge(var("x")));                 // x >= 0 (redundant)
  removeRedundant(C);
  ASSERT_EQ(C.constraints().size(), 1u);
  EXPECT_EQ(C.constraints()[0].expr().constant().toInt64(), -1);
}

TEST(RedundancyTest, AggressivePass) {
  // x >= 5, y >= 5 make x + y >= 8 redundant.
  Conjunct C;
  C.add(Constraint::ge(var("x") - AffineExpr(5)));
  C.add(Constraint::ge(var("y") - AffineExpr(5)));
  C.add(Constraint::ge(var("x") + var("y") - AffineExpr(8)));
  removeRedundant(C, /*Aggressive=*/false);
  EXPECT_EQ(C.constraints().size(), 3u); // Cheap pass cannot see it.
  removeRedundant(C, /*Aggressive=*/true);
  EXPECT_EQ(C.constraints().size(), 2u);
}

TEST(ImpliesTest, Basics) {
  Conjunct P, Q;
  P.add(Constraint::ge(var("x") - AffineExpr(3)));
  Q.add(Constraint::ge(var("x")));
  EXPECT_TRUE(implies(P, Q));
  EXPECT_FALSE(implies(Q, P));
  Conjunct S;
  S.add(Constraint::stride(BigInt(4), var("x")));
  Conjunct T;
  T.add(Constraint::stride(BigInt(2), var("x")));
  EXPECT_TRUE(implies(S, T)); // 4 | x implies 2 | x.
  EXPECT_FALSE(implies(T, S));
}

TEST(GistTest, PaperContract) {
  // gist(x>=1 ∧ x<=10) given (x>=5) should keep only x<=10.
  Conjunct P;
  P.add(Constraint::ge(var("x") - AffineExpr(1)));
  P.add(Constraint::ge(AffineExpr(10) - var("x")));
  Conjunct Q;
  Q.add(Constraint::ge(var("x") - AffineExpr(5)));
  Conjunct G = gist(P, Q);
  ASSERT_EQ(G.constraints().size(), 1u);
  EXPECT_EQ(G.constraints()[0].expr().coeff(internVar("x")).toInt64(), -1);
}

TEST(GistTest, RandomContract) {
  // (gist P given Q) ∧ Q ≡ P ∧ Q, checked by enumeration.
  std::mt19937_64 Rng(7);
  for (int Trial = 0; Trial < 40; ++Trial) {
    auto RandClause = [&](unsigned N) {
      Conjunct C;
      for (unsigned I = 0; I < N; ++I) {
        AffineExpr E = BigInt(int64_t(Rng() % 5) - 2) * var("x") +
                       BigInt(int64_t(Rng() % 5) - 2) * var("y") +
                       AffineExpr(BigInt(int64_t(Rng() % 9) - 4));
        C.add(Constraint::ge(E));
      }
      return C;
    };
    Conjunct P = RandClause(2 + Rng() % 2), Q = RandClause(1 + Rng() % 2);
    Conjunct G = gist(P, Q);
    for (int64_t X = -5; X <= 5; ++X)
      for (int64_t Y = -5; Y <= 5; ++Y) {
        Assignment A{{"x", BigInt(X)}, {"y", BigInt(Y)}};
        bool Lhs = G.contains(A) && Q.contains(A);
        bool Rhs = P.contains(A) && Q.contains(A);
        EXPECT_EQ(Lhs, Rhs) << "trial " << Trial << " (" << X << "," << Y
                            << ")";
      }
  }
}

TEST(NegateTest, DisjointAndComplete) {
  Conjunct C;
  C.add(Constraint::ge(var("x") - AffineExpr(1)));
  C.add(Constraint::ge(AffineExpr(5) - var("x")));
  C.add(Constraint::stride(BigInt(3), var("x")));
  std::vector<Conjunct> Neg = negateConjunct(C);
  EXPECT_TRUE(pairwiseDisjoint(Neg));
  for (int64_t X = -8; X <= 12; ++X) {
    Assignment A{{"x", BigInt(X)}};
    int Hits = 0;
    for (const Conjunct &N : Neg)
      Hits += N.contains(A);
    EXPECT_EQ(Hits > 0, !C.contains(A)) << "x=" << X;
    EXPECT_LE(Hits, 1) << "x=" << X;
  }
}

TEST(SimplifyTest, SimpleFormulas) {
  std::vector<Conjunct> D = simplify(parseFormulaOrDie("1 <= x <= 3"));
  ASSERT_EQ(D.size(), 1u);
  std::vector<Conjunct> Empty =
      simplify(parseFormulaOrDie("x >= 1 && x <= 0"));
  EXPECT_TRUE(Empty.empty());
  std::vector<Conjunct> T = simplify(Formula::trueFormula());
  ASSERT_EQ(T.size(), 1u);
  EXPECT_TRUE(T[0].constraints().empty());
}

/// Equivalence of simplify output with box-enumeration semantics.
void expectEquivalent(const char *Text, int64_t Lo, int64_t Hi,
                      SimplifyOptions Opts = {}) {
  Formula F = parseFormulaOrDie(Text);
  std::vector<Conjunct> D = simplify(F, Opts);
  if (Opts.Disjoint)
    EXPECT_TRUE(pairwiseDisjoint(D)) << Text;
  VarSet Free = F.freeVars();
  std::vector<VarId> Vars(Free.begin(), Free.end());
  std::vector<int64_t> Vals(Vars.size(), Lo);
  while (true) {
    Assignment A;
    for (size_t I = 0; I < Vars.size(); ++I)
      A[Vars[I]] = BigInt(Vals[I]);
    bool Truth = evalBox(F, A, Lo - 12, Hi + 12);
    EXPECT_EQ(unionContains(D, A), Truth) << Text << " at "
                                          << Conjunct().toString();
    size_t I = 0;
    while (I < Vals.size() && ++Vals[I] > Hi)
      Vals[I++] = Lo;
    if (I == Vals.size() || Vars.empty())
      break;
  }
}

TEST(SimplifyTest, NegationOfStride) {
  expectEquivalent("1 <= x <= 9 && !(2 | x)", -2, 12);
}

TEST(SimplifyTest, ExistsProjection) {
  expectEquivalent("exists(y: 1 <= y <= 4 && x = 2*y)", -2, 12);
  expectEquivalent("exists(y: 0 <= 3*y - x <= 7 && 1 <= x - 2*y <= 5)", -4,
                   32);
}

TEST(SimplifyTest, ForallLowering) {
  // forall(y: 1 <= y <= 3 => x >= y) == x >= 3 over the box; encode the
  // implication as !(bounds) || consequent.
  expectEquivalent("forall(y: !(1 <= y <= 3) || x >= y)", -2, 6);
}

TEST(SimplifyTest, NestedNegation) {
  expectEquivalent("!(1 <= x <= 5 && !(x = 3))", -2, 8);
  expectEquivalent("!(exists(y: x = 2*y && 0 <= y <= 5))", -3, 12);
}

TEST(SimplifyTest, FloorMod) {
  expectEquivalent("x = floor(n / 3) && 0 <= n <= 9", -2, 10);
  expectEquivalent("n mod 2 = 1 && 0 <= n <= 9", -2, 10);
}

TEST(SimplifyTest, DisjointDNFEquivalence) {
  SimplifyOptions Disj;
  Disj.Disjoint = true;
  expectEquivalent("1 <= x <= 5 || 3 <= x <= 8", -2, 12, Disj);
  expectEquivalent("(1 <= x <= 6 && 1 <= y <= 6) || (4 <= x <= 9 && 4 <= y "
                   "<= 9)",
                   -1, 11, Disj);
  expectEquivalent("x = 1 || x = 1 || 1 <= x <= 2", -2, 5, Disj);
}

TEST(SimplifyTest, DisjointCountsSolutionsOnce) {
  // Overlapping union: count via disjoint clauses must equal truth count.
  SimplifyOptions Disj;
  Disj.Disjoint = true;
  Formula F = parseFormulaOrDie(
      "(1 <= x <= 10 && 2 | x) || (1 <= x <= 10 && 3 | x)");
  std::vector<Conjunct> D = simplify(F, Disj);
  EXPECT_TRUE(pairwiseDisjoint(D));
  int Count = 0;
  for (int64_t X = 1; X <= 10; ++X)
    for (const Conjunct &C : D)
      Count += C.contains({{"x", BigInt(X)}});
  EXPECT_EQ(Count, 7); // {2,3,4,6,8,9,10}.
}

TEST(SimplifyTest, ApproximateModes) {
  // Over-approximation contains the exact set; under-approximation is
  // contained in it.
  const char *Text = "exists(y: 0 <= 3*y - x <= 7 && 1 <= x - 2*y <= 5)";
  Formula F = parseFormulaOrDie(Text);
  std::vector<Conjunct> Exact = simplify(F);
  SimplifyOptions RealOpts;
  RealOpts.Mode = ShadowMode::Real;
  SimplifyOptions DarkOpts;
  DarkOpts.Mode = ShadowMode::Dark;
  std::vector<Conjunct> Over = simplify(F, RealOpts);
  std::vector<Conjunct> Under = simplify(F, DarkOpts);
  for (int64_t X = -5; X <= 40; ++X) {
    Assignment A{{"x", BigInt(X)}};
    bool E = unionContains(Exact, A);
    if (E)
      EXPECT_TRUE(unionContains(Over, A)) << X;
    if (unionContains(Under, A))
      EXPECT_TRUE(E) << X;
  }
}

TEST(SimplifyTest, PaperSection26FormulaRuns) {
  const char *Text =
      "1 <= i <= 2*n && 1 <= ip <= 2*n && i = ip && "
      "!exists(i2, j2: 1 <= i2 <= 2*n && 1 <= j2 <= n - 1 && i2 < i && "
      "i2 = ip && 2*j2 = i2) && "
      "!exists(i2, j2: 1 <= i2 <= 2*n && 1 <= j2 <= n - 1 && i2 < i && "
      "i2 = ip && 2*j2 + 1 = i2)";
  Formula F = parseFormulaOrDie(Text);
  std::vector<Conjunct> D = simplify(F);
  EXPECT_FALSE(D.empty());
  // Semantic check on a small grid (witness box must cover 2n).
  for (int64_t N = 1; N <= 4; ++N)
    for (int64_t I = 0; I <= 2 * N + 1; ++I) {
      Assignment A{{"n", BigInt(N)}, {"i", BigInt(I)}, {"ip", BigInt(I)}};
      bool Truth = evalBox(F, A, -1, 2 * N + 2);
      EXPECT_EQ(unionContains(D, A), Truth) << "n=" << N << " i=" << I;
    }
}

TEST(MakeDisjointTest, PreservesUnionRandom) {
  std::mt19937_64 Rng(99);
  for (int Trial = 0; Trial < 25; ++Trial) {
    std::vector<Conjunct> Clauses;
    unsigned NumClauses = 2 + Rng() % 3;
    for (unsigned I = 0; I < NumClauses; ++I) {
      Conjunct C;
      int64_t Lo = int64_t(Rng() % 8), Hi = Lo + int64_t(Rng() % 8);
      int64_t Lo2 = int64_t(Rng() % 8), Hi2 = Lo2 + int64_t(Rng() % 8);
      C.add(Constraint::ge(var("x") - AffineExpr(Lo)));
      C.add(Constraint::ge(AffineExpr(Hi) - var("x")));
      C.add(Constraint::ge(var("y") - AffineExpr(Lo2)));
      C.add(Constraint::ge(AffineExpr(Hi2) - var("y")));
      if (Rng() % 2)
        C.add(Constraint::stride(BigInt(2 + Rng() % 3), var("x")));
      Clauses.push_back(std::move(C));
    }
    std::vector<Conjunct> D = makeDisjoint(Clauses);
    EXPECT_TRUE(pairwiseDisjoint(D)) << "trial " << Trial;
    for (int64_t X = -1; X <= 16; ++X)
      for (int64_t Y = -1; Y <= 16; ++Y) {
        Assignment A{{"x", BigInt(X)}, {"y", BigInt(Y)}};
        bool Before = false;
        for (const Conjunct &C : Clauses)
          Before = Before || C.contains(A);
        int Hits = 0;
        for (const Conjunct &C : D)
          Hits += C.contains(A);
        EXPECT_EQ(Hits > 0, Before) << "trial " << Trial;
        EXPECT_LE(Hits, 1) << "trial " << Trial;
      }
  }
}

TEST(ContainsPointTest, WithWildcards) {
  // x even, expressed with a wildcard equality.
  Conjunct C;
  VarId W = C.freshWildcard();
  C.addWildcard(W);
  AffineExpr E = var("x") - BigInt(2) * AffineExpr::variable(W);
  C.add(Constraint::eq(std::move(E)));
  EXPECT_TRUE(containsPoint(C, {{"x", BigInt(4)}}));
  EXPECT_FALSE(containsPoint(C, {{"x", BigInt(5)}}));
}

} // namespace
