//===- tests/SummationEdgeTest.cpp - Summation engine corner cases -------===//

#include "counting/Summation.h"

#include "presburger/Parser.h"

#include <gtest/gtest.h>

using namespace omega;

namespace {

QuasiPolynomial qvar(const char *N) { return QuasiPolynomial::variable(N); }
Rational rat(long long N) { return Rational(BigInt(N)); }

TEST(SummationEdgeTest, EqualityPinnedVariableIsBounded) {
  // i = n: exactly one solution for every n — not unbounded.
  PiecewiseValue V = countSolutions(parseFormulaOrDie("i = n"), {"i"}).Value;
  ASSERT_FALSE(V.isUnbounded());
  for (int64_t N : {-5, 0, 17})
    EXPECT_EQ(V.evaluate({{"n", BigInt(N)}}), rat(1)) << N;
}

TEST(SummationEdgeTest, StridePinnedStaysUnbounded) {
  // 2 | i alone has infinitely many solutions.
  EXPECT_TRUE(countSolutions(parseFormulaOrDie("2 | i"), {"i"})
                  .Value.isUnbounded());
}

TEST(SummationEdgeTest, EmptyVarSetGivesGuardedConstant) {
  // No counted variables: the "sum" is x guarded by the formula (§1's
  // nullary summation).
  PiecewiseValue V =
      sumPolynomial(parseFormulaOrDie("n >= 1"), {}, QuasiPolynomial(rat(7)))
          .Value;
  EXPECT_EQ(V.evaluate({{"n", BigInt(3)}}), rat(7));
  EXPECT_EQ(V.evaluate({{"n", BigInt(0)}}), rat(0));
}

TEST(SummationEdgeTest, FalseFormulaCountsZero) {
  PiecewiseValue V = countSolutions(Formula::falseFormula(), {"i"}).Value;
  EXPECT_FALSE(V.isUnbounded());
  EXPECT_EQ(V.evaluate({}), rat(0));
  EXPECT_TRUE(V.pieces().empty());
}

TEST(SummationEdgeTest, ZeroSummandIsZero) {
  PiecewiseValue V = sumPolynomial(parseFormulaOrDie("1 <= i <= n"), {"i"},
                                   QuasiPolynomial())
                         .Value;
  EXPECT_EQ(V.evaluate({{"n", BigInt(9)}}), rat(0));
}

TEST(SummationEdgeTest, HighDegreeSummand) {
  // Σ_{i=1}^{n} i^10 — the top of the paper's hard-coded table; checked
  // against direct accumulation.
  PiecewiseValue V = sumPolynomial(parseFormulaOrDie("1 <= i <= n"), {"i"},
                                   QuasiPolynomial::pow(qvar("i"), 10))
                         .Value;
  for (int64_t N : {0, 1, 7, 20}) {
    BigInt Expected(0);
    for (int64_t I = 1; I <= N; ++I)
      Expected += BigInt::pow(BigInt(I), 10);
    EXPECT_EQ(V.evaluate({{"n", BigInt(N)}}), Rational(Expected)) << N;
  }
}

TEST(SummationEdgeTest, EvaluationAtAstronomicalN) {
  // The symbolic answer is exact at n = 10^30 — far beyond enumeration
  // and machine integers.
  PiecewiseValue V =
      countSolutions(parseFormulaOrDie("1 <= i <= j <= n"), {"i", "j"}).Value;
  BigInt N = BigInt::pow(BigInt(10), 30);
  BigInt Expected = N * (N + BigInt(1)) / BigInt(2);
  EXPECT_EQ(V.evaluateInt({{"n", N}}), Expected);
}

TEST(SummationEdgeTest, FourNestedVariables) {
  // Σ over 1 <= i <= j <= k <= l <= n: C(n+3, 4).
  Formula F = parseFormulaOrDie("1 <= i <= j && j <= k && k <= l <= n");
  PiecewiseValue V = countSolutions(F, {"i", "j", "k", "l"}).Value;
  for (int64_t N = 0; N <= 9; ++N) {
    int64_t Expected = N * (N + 1) * (N + 2) * (N + 3) / 24;
    EXPECT_EQ(V.evaluate({{"n", BigInt(N)}}), rat(Expected)) << N;
  }
}

TEST(SummationEdgeTest, MultipleSymbolsInGuards) {
  // Box [a, b] x [c, d]: count (b-a+1)(d-c+1) when nonempty.
  Formula F = parseFormulaOrDie("a <= i <= b && c <= j <= d");
  PiecewiseValue V = countSolutions(F, {"i", "j"}).Value;
  for (int64_t A : {-2, 0, 3})
    for (int64_t B : {-3, 1, 4})
      for (int64_t C : {0, 2})
        for (int64_t D : {1, 5}) {
          int64_t Expected = std::max<int64_t>(0, B - A + 1) *
                             std::max<int64_t>(0, D - C + 1);
          Assignment S{{"a", BigInt(A)},
                       {"b", BigInt(B)},
                       {"c", BigInt(C)},
                       {"d", BigInt(D)}};
          EXPECT_EQ(V.evaluate(S), rat(Expected))
              << A << " " << B << " " << C << " " << D;
        }
}

TEST(SummationEdgeTest, NegativeSymbolicRange) {
  // Σ_{i=-n}^{-1} i = -n(n+1)/2 for n >= 1 (negative summands).
  Formula F = parseFormulaOrDie("0 - n <= i && i <= -1");
  PiecewiseValue V = sumPolynomial(F, {"i"}, qvar("i")).Value;
  for (int64_t N = 0; N <= 9; ++N)
    EXPECT_EQ(V.evaluate({{"n", BigInt(N)}}), rat(-(N * (N + 1) / 2)))
        << N;
}

TEST(SummationEdgeTest, AblationsProduceSameValues) {
  Formula F = parseFormulaOrDie(
      "1 <= a <= n && a <= b <= n && b <= c <= n && a + c <= n + 2");
  CountOptions Variants[4];
  Variants[1].EliminateRedundant = false;
  Variants[2].FreeVariableOrder = false;
  Variants[3].EliminateRedundant = false;
  Variants[3].FreeVariableOrder = false;
  PiecewiseValue Ref = countSolutions(F, {"a", "b", "c"}, Variants[0]).Value;
  for (int K = 1; K < 4; ++K) {
    PiecewiseValue V = countSolutions(F, {"a", "b", "c"}, Variants[K]).Value;
    for (int64_t N = 0; N <= 8; ++N)
      EXPECT_EQ(V.evaluate({{"n", BigInt(N)}}),
                Ref.evaluate({{"n", BigInt(N)}}))
          << "variant " << K << " n=" << N;
  }
}

TEST(SummationEdgeTest, SumOverConjunctDirect) {
  // A single clause through the formula entry point, with a stride.
  Conjunct C;
  C.add(Constraint::ge(AffineExpr::variable("i") - AffineExpr(1)));
  C.add(Constraint::ge(AffineExpr::variable("n") -
                       AffineExpr::variable("i")));
  C.add(Constraint::stride(BigInt(3), AffineExpr::variable("i")));
  PiecewiseValue V =
      sumPolynomial(Formula::fromConjunct(C), {"i"}, qvar("i")).Value;
  for (int64_t N = 0; N <= 12; ++N) {
    int64_t Expected = 0;
    for (int64_t I = 3; I <= N; I += 3)
      Expected += I;
    EXPECT_EQ(V.evaluate({{"n", BigInt(N)}}), rat(Expected)) << N;
  }
}

TEST(SummationEdgeTest, MixedSignSummandExactStrategies) {
  // Σ (i - 3) over 1..n: negative then positive contributions.
  Formula F = parseFormulaOrDie("1 <= i <= n");
  QuasiPolynomial X = qvar("i") - QuasiPolynomial(rat(3));
  PiecewiseValue V = sumPolynomial(F, {"i"}, X).Value;
  for (int64_t N = 0; N <= 9; ++N) {
    int64_t Expected = 0;
    for (int64_t I = 1; I <= N; ++I)
      Expected += I - 3;
    EXPECT_EQ(V.evaluate({{"n", BigInt(N)}}), rat(Expected)) << N;
  }
}

} // namespace
