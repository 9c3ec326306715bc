//===- tests/OmegaEdgeTest.cpp - Omega-test corner cases -----------------===//

#include "omega/Omega.h"

#include "presburger/Parser.h"

#include <gtest/gtest.h>

using namespace omega;

namespace {

AffineExpr var(const char *N) { return AffineExpr::variable(N); }

TEST(OmegaEdgeTest, EmptyClauseEverywhere) {
  Conjunct T;
  EXPECT_TRUE(feasible(T));
  EXPECT_TRUE(containsPoint(T, {}));
  std::vector<Conjunct> R = projectVars(T, {"x"});
  ASSERT_EQ(R.size(), 1u);
  EXPECT_TRUE(R[0].constraints().empty());
  EXPECT_TRUE(implies(T, T));
  EXPECT_TRUE(gist(T, T).constraints().empty());
  EXPECT_TRUE(negateConjunct(T).empty()); // ¬True = False.
}

TEST(OmegaEdgeTest, ProjectingAbsentVariableIsNoOp) {
  Conjunct C;
  C.add(Constraint::ge(var("x") - AffineExpr(1)));
  std::vector<Conjunct> R = projectVars(C, {"zz"});
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].constraints().size(), 1u);
}

TEST(OmegaEdgeTest, HugeCoefficientsStayExact) {
  // 10^20 * x = 2 * 10^20  =>  x = 2; machine ints would overflow.
  BigInt Big = BigInt::pow(BigInt(10), 20);
  Conjunct C;
  C.add(Constraint::eq(Big * var("x") - AffineExpr(BigInt(2) * Big)));
  EXPECT_TRUE(feasible(C));
  EXPECT_TRUE(containsPoint(C, {{"x", BigInt(2)}}));
  EXPECT_FALSE(containsPoint(C, {{"x", BigInt(3)}}));
  // And an infeasible twin: 10^20 * x = 2*10^20 + 1.
  Conjunct D;
  D.add(Constraint::eq(Big * var("x") -
                       AffineExpr(BigInt(2) * Big + BigInt(1))));
  EXPECT_FALSE(feasible(D));
}

TEST(OmegaEdgeTest, LargeStrideFeasibility) {
  // x ≡ 1 (mod 10^12) inside [0, 10^13]: feasible with big witnesses.
  BigInt Mod = BigInt::pow(BigInt(10), 12);
  Conjunct C;
  C.add(Constraint::stride(Mod, var("x") - AffineExpr(1)));
  C.add(Constraint::ge(var("x")));
  C.add(Constraint::ge(AffineExpr(Mod * BigInt(10)) - var("x")));
  EXPECT_TRUE(feasible(C));
  std::optional<Assignment> P = samplePoint(C);
  ASSERT_TRUE(P.has_value());
  EXPECT_TRUE(Mod.divides(P->at(internVar("x")) - BigInt(1)));
}

TEST(OmegaEdgeTest, GistAgainstInfeasibleContext) {
  // gist P given an infeasible Q: everything is implied (Q ∧ anything is
  // infeasible), so the gist may drop all constraints.
  Conjunct P;
  P.add(Constraint::ge(var("x") - AffineExpr(1)));
  Conjunct Q;
  Q.add(Constraint::ge(AffineExpr(-1)));
  Conjunct G = gist(P, Q);
  EXPECT_TRUE(G.constraints().empty());
}

TEST(OmegaEdgeTest, GistKeepsStrides) {
  // gist (2|x ∧ 1<=x<=9) given (1<=x<=9) keeps only the stride.
  Conjunct P;
  P.add(Constraint::stride(BigInt(2), var("x")));
  P.add(Constraint::ge(var("x") - AffineExpr(1)));
  P.add(Constraint::ge(AffineExpr(9) - var("x")));
  Conjunct Q;
  Q.add(Constraint::ge(var("x") - AffineExpr(1)));
  Q.add(Constraint::ge(AffineExpr(9) - var("x")));
  Conjunct G = gist(P, Q);
  ASSERT_EQ(G.constraints().size(), 1u);
  EXPECT_TRUE(G.constraints()[0].isStride());
}

TEST(OmegaEdgeTest, ImpliesWithEqualityAndStride) {
  Conjunct P;
  P.add(Constraint::eq(var("x") - BigInt(6) * var("k")));
  Conjunct Q;
  Q.add(Constraint::stride(BigInt(3), var("x")));
  // x = 6k implies 3 | x — but note implies() treats shared names
  // universally: for all x, k: x = 6k => 3 | x.  True.
  EXPECT_TRUE(implies(P, Q));
  Conjunct R;
  R.add(Constraint::stride(BigInt(4), var("x")));
  EXPECT_FALSE(implies(P, R)); // x = 6 is not divisible by 4.
}

TEST(OmegaEdgeTest, CoalescePairAdjacentIntervals) {
  Conjunct A, B;
  A.add(Constraint::ge(var("x") - AffineExpr(1)));
  A.add(Constraint::ge(AffineExpr(4) - var("x")));
  B.add(Constraint::ge(var("x") - AffineExpr(5)));
  B.add(Constraint::ge(AffineExpr(9) - var("x")));
  std::optional<Conjunct> M = coalescePair(A, B);
  ASSERT_TRUE(M.has_value());
  for (int64_t X = -2; X <= 12; ++X)
    EXPECT_EQ(M->contains({{"x", BigInt(X)}}), X >= 1 && X <= 9) << X;
  // A gap blocks coalescing.
  Conjunct C;
  C.add(Constraint::ge(var("x") - AffineExpr(6)));
  C.add(Constraint::ge(AffineExpr(9) - var("x")));
  EXPECT_FALSE(coalescePair(A, C).has_value());
}

TEST(OmegaEdgeTest, CoalescePairResidueClasses) {
  // Even ∪ odd over the same range = the range.
  Conjunct A, B;
  for (Conjunct *C : {&A, &B}) {
    C->add(Constraint::ge(var("x") - AffineExpr(1)));
    C->add(Constraint::ge(AffineExpr(8) - var("x")));
  }
  A.add(Constraint::stride(BigInt(2), var("x")));
  B.add(Constraint::stride(BigInt(2), var("x") - AffineExpr(1)));
  std::optional<Conjunct> M = coalescePair(A, B);
  ASSERT_TRUE(M.has_value());
  for (int64_t X = 0; X <= 9; ++X)
    EXPECT_EQ(M->contains({{"x", BigInt(X)}}), X >= 1 && X <= 8) << X;
}

TEST(OmegaEdgeTest, MakeDisjointDegenerateInputs) {
  EXPECT_TRUE(makeDisjoint({}).empty());
  Conjunct C;
  C.add(Constraint::ge(var("x")));
  std::vector<Conjunct> One = makeDisjoint({C});
  EXPECT_EQ(One.size(), 1u);
  // Identical clauses collapse to one.
  std::vector<Conjunct> Two = makeDisjoint({C, C});
  EXPECT_EQ(Two.size(), 1u);
}

TEST(OmegaEdgeTest, RenameFreeVarsRespectsShadowing) {
  // In exists(x: x = y), renaming x must not touch the bound x.
  Formula F = parseFormulaOrDie("exists(x: x = y && x >= 0)");
  Formula R = renameFreeVars(F, {{internVar("x"), internVar("z")},
                                 {internVar("y"), internVar("w")}});
  VarSet Free = R.freeVars();
  EXPECT_EQ(Free, VarSet{"w"});
}

TEST(OmegaEdgeTest, NormalizeConjunctDetectsConflicts) {
  Conjunct C;
  C.add(Constraint::eq(BigInt(2) * var("x") - AffineExpr(1)));
  EXPECT_FALSE(normalizeConjunct(C));
  Conjunct D;
  D.add(Constraint::ge(AffineExpr(-3)));
  EXPECT_FALSE(normalizeConjunct(D));
  Conjunct E;
  E.add(Constraint::ge(var("x") - var("x"))); // 0 >= 0, trivially true.
  EXPECT_TRUE(normalizeConjunct(E));
  EXPECT_TRUE(E.constraints().empty());
}

TEST(OmegaEdgeTest, DeeplyNestedQuantifiers) {
  // ∃a: (∃b: a = 2b) ∧ (∃c: a = 3c) ∧ x = a ∧ 0 <= a <= 30:
  // x must be a multiple of 6 in [0, 30].
  Formula F = parseFormulaOrDie(
      "exists(a: exists(b: a = 2*b) && exists(c: a = 3*c) && x = a && "
      "0 <= a <= 30)");
  std::vector<Conjunct> D = simplify(F);
  for (int64_t X = -3; X <= 33; ++X) {
    bool Expected = X >= 0 && X <= 30 && X % 6 == 0;
    bool Got = false;
    for (const Conjunct &C : D)
      Got = Got || containsPoint(C, {{"x", BigInt(X)}});
    EXPECT_EQ(Got, Expected) << X;
  }
}

TEST(OmegaEdgeTest, SimplifyDoubleNegationIsIdentity) {
  Formula F = parseFormulaOrDie("1 <= x <= 7 && 2 | x");
  Formula NN = !!F;
  std::vector<Conjunct> A = simplify(F);
  std::vector<Conjunct> B = simplify(NN);
  for (int64_t X = -2; X <= 9; ++X) {
    Assignment P{{"x", BigInt(X)}};
    bool InA = false, InB = false;
    for (const Conjunct &C : A)
      InA = InA || containsPoint(C, P);
    for (const Conjunct &C : B)
      InB = InB || containsPoint(C, P);
    EXPECT_EQ(InA, InB) << X;
  }
}

} // namespace
