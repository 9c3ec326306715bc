//===- tests/SetSampleTest.cpp - PresburgerSet and samplePoint tests -----===//

#include "counting/Set.h"

#include "baselines/Enumerator.h"
#include "presburger/Parser.h"

#include <gtest/gtest.h>

#include <random>

using namespace omega;

namespace {

AffineExpr var(const char *N) { return AffineExpr::variable(N); }
Rational rat(long long N) { return Rational(BigInt(N)); }

/// Tuple variables by name, as the assertions spell them.
std::vector<std::string> names(const std::vector<VarId> &Vars) {
  std::vector<std::string> Out;
  for (VarId V : Vars)
    Out.push_back(varName(V));
  return Out;
}

PresburgerSet interval(const char *V, int64_t Lo, int64_t Hi) {
  std::string Text = std::to_string(Lo) + " <= " + V +
                     " && " + V + " <= " + std::to_string(Hi);
  return PresburgerSet({V}, parseFormulaOrDie(Text));
}

TEST(SetTest, BooleanAlgebra) {
  PresburgerSet A = interval("x", 1, 10);
  PresburgerSet B = interval("x", 5, 14);
  EXPECT_EQ(A.unionWith(B).count().evaluate({}), rat(14));
  EXPECT_EQ(A.intersect(B).count().evaluate({}), rat(6));
  EXPECT_EQ(A.subtract(B).count().evaluate({}), rat(4));
  EXPECT_TRUE(A.intersect(B).isSubsetOf(A));
  EXPECT_TRUE(A.subtract(A).isEmpty());
  EXPECT_TRUE(A.unionWith(B).isEqualTo(B.unionWith(A)));
  EXPECT_FALSE(A.isEqualTo(B));
}

TEST(SetTest, AlignmentRenamesTuples) {
  // Same set, different tuple names: operations align them.
  PresburgerSet A = interval("x", 1, 5);
  PresburgerSet B = interval("y", 1, 5);
  EXPECT_TRUE(A.isEqualTo(B));
  EXPECT_TRUE(A.subtract(B).isEmpty());
}

/// |S| at \p Symbols, checked against the enumerator.
int64_t checkedCount(const PresburgerSet &S, const Assignment &Symbols) {
  BigInt Got = S.count().evaluateInt(Symbols);
  EXPECT_EQ(Got, enumerateCount(S.body(), names(S.tuple()), Symbols, -12,
                                12, -12, 12))
      << S.toString();
  return Got.toInt64();
}

TEST(SetTest, IntersectPermutedTuple) {
  // B's first label is y: its points are (a, b) with a - b = 1.
  PresburgerSet A({"x", "y"}, parseFormulaOrDie("0 <= x <= 4 && 0 <= y <= 4"));
  PresburgerSet B({"y", "x"},
                  parseFormulaOrDie("y - x = 1 && 0 <= x <= 9 && 0 <= y <= 9"));
  PresburgerSet I = A.intersect(B);
  EXPECT_EQ(names(I.tuple()), (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(checkedCount(I, {}), 4);
  EXPECT_EQ(checkedCount(A.subtract(B), {}), 21);
  EXPECT_EQ(checkedCount(A.unionWith(B), {}), 30);
  EXPECT_TRUE(I.isSubsetOf(B));
  EXPECT_FALSE(A.isSubsetOf(B));
}

TEST(SetTest, LabelThatIsASymbolOfTheOtherIsFreshened) {
  // {[n] : 0 <= n <= 5} ∩ {[x] : 0 <= x <= n}: the second set's n is a
  // symbolic constant, so the result relabels the first set's n.
  PresburgerSet A({"n"}, parseFormulaOrDie("0 <= n <= 5"));
  PresburgerSet B({"x"}, parseFormulaOrDie("0 <= x <= n"));
  PresburgerSet I = A.intersect(B);
  EXPECT_EQ(names(I.tuple()), std::vector<std::string>{"n0"});
  for (int64_t N = -2; N <= 8; ++N) {
    Assignment At{{"n", BigInt(N)}};
    EXPECT_EQ(checkedCount(I, At),
              std::max<int64_t>(0, std::min<int64_t>(N, 5) + 1))
        << N;
    EXPECT_EQ(checkedCount(A.subtract(B), At),
              6 - std::max<int64_t>(0, std::min<int64_t>(N, 5) + 1))
        << N;
  }
  EXPECT_FALSE(A.isSubsetOf(B));
}

TEST(SetTest, ProjectionAndContains) {
  PresburgerSet S(
      {"i", "j"},
      parseFormulaOrDie("1 <= i <= 3 && 1 <= j <= 3 && i + j <= 4"));
  PresburgerSet P = S.project({"j"});
  EXPECT_EQ(names(P.tuple()), std::vector<std::string>{"i"});
  EXPECT_EQ(P.count().evaluate({}), rat(3)); // i in {1,2,3}.
  EXPECT_TRUE(S.contains({{"i", BigInt(1)}, {"j", BigInt(3)}}));
  EXPECT_FALSE(S.contains({{"i", BigInt(2)}, {"j", BigInt(3)}}));
}

TEST(SetTest, SymbolicCountAndSum) {
  PresburgerSet S({"i"}, parseFormulaOrDie("1 <= i <= n"));
  EXPECT_EQ(S.count().evaluate({{"n", BigInt(7)}}), rat(7));
  EXPECT_EQ(S.sum(QuasiPolynomial::variable("i"))
                .evaluate({{"n", BigInt(7)}}),
            rat(28));
}

TEST(SetTest, SampleMembers) {
  PresburgerSet S(
      {"i", "j"},
      parseFormulaOrDie("1 <= i <= n && i <= j <= n && 2 | i + j"));
  for (int64_t N : {1, 2, 5, 9}) {
    Assignment Sym{{"n", BigInt(N)}};
    std::optional<Assignment> P = S.sample(Sym);
    ASSERT_TRUE(P.has_value()) << N;
    Assignment Full = Sym;
    Full.insert(P->begin(), P->end());
    EXPECT_TRUE(S.contains(Full)) << N;
  }
  // Empty at n = 0.
  EXPECT_FALSE(S.sample({{"n", BigInt(0)}}).has_value());
}

TEST(SamplePointTest, SimpleAndStridden) {
  Conjunct C;
  C.add(Constraint::ge(var("x") - AffineExpr(3)));
  C.add(Constraint::ge(AffineExpr(9) - var("x")));
  C.add(Constraint::stride(BigInt(4), var("x") - AffineExpr(1)));
  std::optional<Assignment> P = samplePoint(C);
  ASSERT_TRUE(P.has_value());
  EXPECT_TRUE(C.contains(*P)); // x in {5, 9}.
  Conjunct Bad = C;
  Bad.add(Constraint::ge(AffineExpr(4) - var("x")));
  EXPECT_FALSE(samplePoint(Bad).has_value()); // 3<=x<=4 with x≡1 (mod 4).
}

TEST(SamplePointTest, NegativeAndUnboundedDirections) {
  // Only an upper bound: sampling scans downward from it.
  Conjunct C;
  C.add(Constraint::ge(-var("x") - AffineExpr(5))); // x <= -5.
  std::optional<Assignment> P = samplePoint(C);
  ASSERT_TRUE(P.has_value());
  EXPECT_LE(P->at(internVar("x")).toInt64(), -5);
  // No bounds at all: any integer works.
  Conjunct Free;
  Free.add(Constraint::stride(BigInt(3), var("y") - AffineExpr(2)));
  std::optional<Assignment> Q = samplePoint(Free);
  ASSERT_TRUE(Q.has_value());
  EXPECT_EQ(
      BigInt::floorMod(Q->at(internVar("y")) - BigInt(2), BigInt(3)).toInt64(),
      0);
}

TEST(SamplePointTest, CoupledSystem) {
  // x = 2y, 3 <= x + y <= 9: solutions (2,1), (4,2), (6,3).
  Conjunct C;
  C.add(Constraint::eq(var("x") - BigInt(2) * var("y")));
  C.add(Constraint::ge(var("x") + var("y") - AffineExpr(3)));
  C.add(Constraint::ge(AffineExpr(9) - var("x") - var("y")));
  std::optional<Assignment> P = samplePoint(C);
  ASSERT_TRUE(P.has_value());
  EXPECT_TRUE(C.contains(*P));
}

TEST(SamplePointTest, RandomFeasibleClauses) {
  std::mt19937_64 Rng(909);
  int Sampled = 0;
  for (int Trial = 0; Trial < 60 && Sampled < 25; ++Trial) {
    Conjunct C;
    auto RC = [&] { return BigInt(int64_t(Rng() % 9) - 4); };
    for (unsigned I = 0; I < 3; ++I)
      C.add(Constraint::ge(RC() * var("x") + RC() * var("y") +
                           AffineExpr(RC() * 2)));
    for (const char *V : {"x", "y"}) {
      C.add(Constraint::ge(var(V) + AffineExpr(6)));
      C.add(Constraint::ge(AffineExpr(6) - var(V)));
    }
    if (Rng() % 2)
      C.add(Constraint::stride(BigInt(2 + Rng() % 3),
                               var("x") - var("y")));
    std::optional<Assignment> P = samplePoint(C);
    EXPECT_EQ(P.has_value(), feasible(C)) << "trial " << Trial;
    if (P) {
      ++Sampled;
      EXPECT_TRUE(C.contains(*P)) << "trial " << Trial;
    }
  }
  EXPECT_GE(Sampled, 10);
}

} // namespace
