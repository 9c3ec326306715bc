//===- tests/AffineExprTest.cpp - AffineExpr & Constraint tests ----------===//

#include "presburger/AffineExpr.h"
#include "presburger/Constraint.h"

#include <gtest/gtest.h>

using namespace omega;

namespace {

AffineExpr var(const char *N) { return AffineExpr::variable(N); }

TEST(AffineExprTest, BasicAlgebra) {
  AffineExpr E = var("i") * BigInt(2) + var("j") - AffineExpr(3);
  EXPECT_EQ(E.coeff(internVar("i")).toInt64(), 2);
  EXPECT_EQ(E.coeff(internVar("j")).toInt64(), 1);
  EXPECT_EQ(E.coeff(internVar("k")).toInt64(), 0);
  EXPECT_EQ(E.constant().toInt64(), -3);
  EXPECT_EQ(E.numVars(), 2u);
  EXPECT_FALSE(E.isConstant());
  AffineExpr Neg = -E;
  EXPECT_EQ(Neg.coeff(internVar("i")).toInt64(), -2);
  EXPECT_EQ(Neg.constant().toInt64(), 3);
  EXPECT_EQ(E + Neg, AffineExpr(0));
  EXPECT_TRUE((E - E).isZero());
}

TEST(AffineExprTest, ZeroCoefficientsNotStored) {
  AffineExpr E = var("i") + var("j");
  E -= var("j");
  EXPECT_EQ(E.numVars(), 1u);
  EXPECT_FALSE(E.mentions(internVar("j")));
  E *= BigInt(0);
  EXPECT_TRUE(E.isZero());
  EXPECT_EQ(E.numVars(), 0u);
}

TEST(AffineExprTest, Substitute) {
  // i := 2k + 1 in (3i + j).
  AffineExpr E = var("i") * BigInt(3) + var("j");
  E.substitute(internVar("i"), var("k") * BigInt(2) + AffineExpr(1));
  EXPECT_EQ(E.coeff(internVar("k")).toInt64(), 6);
  EXPECT_EQ(E.coeff(internVar("j")).toInt64(), 1);
  EXPECT_EQ(E.constant().toInt64(), 3);
  EXPECT_FALSE(E.mentions(internVar("i")));
  // Substituting an absent variable is a no-op.
  AffineExpr F = var("x");
  F.substitute(internVar("y"), AffineExpr(5));
  EXPECT_EQ(F, var("x"));
}

TEST(AffineExprTest, EvaluateAndGcd) {
  AffineExpr E = var("i") * BigInt(4) - var("j") * BigInt(6) + AffineExpr(9);
  Assignment A{{"i", BigInt(2)}, {"j", BigInt(1)}};
  EXPECT_EQ(E.evaluate(A).toInt64(), 11);
  EXPECT_EQ(E.coeffGcd().toInt64(), 2);
  EXPECT_EQ(AffineExpr(7).coeffGcd().toInt64(), 0);
}

TEST(AffineExprTest, RenameAndToString) {
  AffineExpr E = var("i") * BigInt(2) - var("j") - AffineExpr(5);
  E.renameVar(internVar("j"), internVar("m"));
  EXPECT_TRUE(E.mentions(internVar("m")));
  EXPECT_FALSE(E.mentions(internVar("j")));
  EXPECT_EQ(E.toString(), "2*i - m - 5");
  EXPECT_EQ(AffineExpr(0).toString(), "0");
  EXPECT_EQ((-var("x")).toString(), "-x");
}

TEST(ConstraintTest, HoldsSemantics) {
  Assignment A{{"x", BigInt(6)}, {"y", BigInt(2)}};
  EXPECT_TRUE(Constraint::eq(var("x") - var("y") * BigInt(3)).holds(A));
  EXPECT_TRUE(Constraint::ge(var("x") - AffineExpr(6)).holds(A));
  EXPECT_FALSE(Constraint::ge(var("y") - var("x")).holds(A));
  EXPECT_TRUE(Constraint::stride(BigInt(3), var("x")).holds(A));
  EXPECT_FALSE(Constraint::stride(BigInt(4), var("x")).holds(A));
  EXPECT_TRUE(Constraint::lt(var("y"), var("x")).holds(A));
  EXPECT_FALSE(Constraint::lt(var("x"), var("x")).holds(A));
}

TEST(ConstraintTest, NormalizeEquality) {
  // 2x - 4 = 0 -> x - 2 = 0.
  Constraint C = Constraint::eq(var("x") * BigInt(2) - AffineExpr(4));
  EXPECT_TRUE(C.normalize());
  EXPECT_EQ(C.expr().coeff(internVar("x")).toInt64(), 1);
  EXPECT_EQ(C.expr().constant().toInt64(), -2);
  // 2x + 1 = 0 is infeasible over integers.
  Constraint Bad = Constraint::eq(var("x") * BigInt(2) + AffineExpr(1));
  EXPECT_FALSE(Bad.normalize());
}

TEST(ConstraintTest, NormalizeTightensInequality) {
  // 2x - 5 >= 0 tightens to x - 3 >= 0 (x >= 2.5 means x >= 3).
  Constraint C = Constraint::ge(var("x") * BigInt(2) - AffineExpr(5));
  EXPECT_TRUE(C.normalize());
  EXPECT_EQ(C.expr().coeff(internVar("x")).toInt64(), 1);
  EXPECT_EQ(C.expr().constant().toInt64(), -3);
  // Constant-only: 0 >= 0 fine, -1 >= 0 infeasible.
  EXPECT_TRUE(Constraint::ge(AffineExpr(0)).normalize());
  EXPECT_FALSE(Constraint::ge(AffineExpr(-1)).normalize());
}

TEST(ConstraintTest, NormalizeStride) {
  // 3 | 6x + 7 -> 3 | 1 (after reducing coefficients) -> infeasible.
  Constraint C =
      Constraint::stride(BigInt(3), var("x") * BigInt(6) + AffineExpr(7));
  EXPECT_FALSE(C.normalize());
  // 3 | 4x + 7 -> 3 | x + 1.
  Constraint D =
      Constraint::stride(BigInt(3), var("x") * BigInt(4) + AffineExpr(7));
  EXPECT_TRUE(D.normalize());
  EXPECT_EQ(D.expr().coeff(internVar("x")).toInt64(), 1);
  EXPECT_EQ(D.expr().constant().toInt64(), 1);
  // 1 | anything is trivially true.
  Constraint E = Constraint::stride(BigInt(1), var("x") * BigInt(9));
  EXPECT_TRUE(E.normalize());
  EXPECT_TRUE(E.isTriviallyTrue());
}

TEST(ConstraintTest, TrivialityChecks) {
  EXPECT_TRUE(Constraint::ge(AffineExpr(3)).isTriviallyTrue());
  EXPECT_TRUE(Constraint::ge(AffineExpr(-3)).isTriviallyFalse());
  EXPECT_TRUE(Constraint::eq(AffineExpr(0)).isTriviallyTrue());
  EXPECT_TRUE(Constraint::eq(AffineExpr(1)).isTriviallyFalse());
  EXPECT_FALSE(Constraint::ge(var("x")).isTriviallyTrue());
  EXPECT_FALSE(Constraint::ge(var("x")).isTriviallyFalse());
  EXPECT_TRUE(Constraint::stride(BigInt(5), AffineExpr(10)).isTriviallyTrue());
  EXPECT_TRUE(Constraint::stride(BigInt(5), AffineExpr(7)).isTriviallyFalse());
}

} // namespace
