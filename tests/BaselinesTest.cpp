//===- tests/BaselinesTest.cpp - Enumerator, Tawbi, FST, naive forms -----===//

#include "baselines/Enumerator.h"
#include "baselines/FixedOrderSum.h"
#include "baselines/InclusionExclusion.h"

#include "presburger/Parser.h"

#include <gtest/gtest.h>

using namespace omega;

namespace {

AffineExpr var(const char *N) { return AffineExpr::variable(N); }
Rational rat(long long N, long long D = 1) {
  return Rational(BigInt(N), BigInt(D));
}

TEST(EnumeratorTest, CountsAndSums) {
  Formula F = parseFormulaOrDie("1 <= i <= n && 2 | i");
  EXPECT_EQ(enumerateCount(F, {"i"}, {{"n", BigInt(10)}}, -2, 15, 0, 0)
                .toInt64(),
            5);
  Rational S = enumerateSum(F, {"i"}, {{"n", BigInt(10)}},
                            QuasiPolynomial::variable("i"), -2, 15, 0, 0);
  EXPECT_EQ(S, rat(30)); // 2+4+6+8+10.
}

TEST(EnumeratorTest, QuantifiersInBox) {
  Formula F = parseFormulaOrDie("exists(k: x = 2*k && 0 <= k <= 10)");
  Assignment A{{"x", BigInt(6)}};
  EXPECT_TRUE(evaluateInBox(F, A, -2, 12));
  A["x"] = BigInt(7);
  EXPECT_FALSE(evaluateInBox(F, A, -2, 12));
  Formula G = parseFormulaOrDie("forall(k: !(1 <= k <= 3) || x >= k)");
  A["x"] = BigInt(3);
  EXPECT_TRUE(evaluateInBox(G, A, -4, 4));
  A["x"] = BigInt(2);
  EXPECT_FALSE(evaluateInBox(G, A, -4, 4));
}

TEST(EnumeratorTest, QuantifierRestoresShadowedBinding) {
  // The bound x shadows the free x; after the witness search the outer
  // x = 5 must be back in place for the right conjunct.
  Formula F = parseFormulaOrDie("exists(x: 0 <= x <= 2) && x <= 3");
  Assignment A{{"x", BigInt(5)}};
  EXPECT_FALSE(evaluateInBox(F, A, -4, 4));
  const BigInt *X = A.lookup(internVar("x"));
  ASSERT_NE(X, nullptr);
  EXPECT_EQ(*X, BigInt(5));
}

TEST(EnumeratorTest, SimplifyThenEvaluateEscapesWitnessBox) {
  // The witness for i = 5k at i = 20 is k = 4, outside the [-2, 2] witness
  // box.  A raw box search would miss it; the oracle now eliminates the
  // quantifier exactly (simplify-then-evaluate) before sweeping, so the
  // count is right regardless of the witness box.
  Formula F = parseFormulaOrDie("exists(k: i = 5*k) && 0 <= i <= 20");
  EXPECT_EQ(enumerateCount(F, {"i"}, {}, 0, 20, -2, 2).toInt64(), 5);
}

/// Builds the clause of §6 Example 1: 1<=i<=n, 1<=j<=i, j<=k<=m.
Conjunct example1Clause() {
  Conjunct C;
  C.add(Constraint::ge(var("i") - AffineExpr(1)));
  C.add(Constraint::ge(var("n") - var("i")));
  C.add(Constraint::ge(var("j") - AffineExpr(1)));
  C.add(Constraint::ge(var("i") - var("j")));
  C.add(Constraint::ge(var("k") - var("j")));
  C.add(Constraint::ge(var("m") - var("k")));
  return C;
}

TEST(FixedOrderSumTest, Example1ValuesMatchEnumeration) {
  BaselineSumResult R = fixedOrderSum(example1Clause(), {"k", "j", "i"},
                                      QuasiPolynomial(rat(1)));
  for (int64_t N = 0; N <= 6; ++N)
    for (int64_t M = 0; M <= 6; ++M) {
      int64_t Expected = 0;
      for (int64_t I = 1; I <= N; ++I)
        for (int64_t J = 1; J <= I; ++J)
          Expected += std::max<int64_t>(0, M - J + 1);
      EXPECT_EQ(R.Value.evaluate({{"n", BigInt(N)}, {"m", BigInt(M)}}),
                rat(Expected))
          << N << "," << M;
    }
}

TEST(FixedOrderSumTest, Example1ProducesMoreTermsThanOurs) {
  // §6 Example 1: the free-order engine needs 2 terms; the fixed-order
  // baseline needs at least 3 (Tawbi's count in the paper).
  BaselineSumResult R = fixedOrderSum(example1Clause(), {"k", "j", "i"},
                                      QuasiPolynomial(rat(1)));
  EXPECT_GE(R.NumTerms, 3u);
}

TEST(NaiveClosedFormTest, MathematicaExample) {
  // §1: Σ_{i=1}^n Σ_{j=i}^m 1 -> n(2m - n + 1)/2 with no guards; right
  // only when 1 <= n <= m.
  Conjunct C;
  C.add(Constraint::ge(var("i") - AffineExpr(1)));
  C.add(Constraint::ge(var("n") - var("i")));
  C.add(Constraint::ge(var("j") - var("i")));
  C.add(Constraint::ge(var("m") - var("j")));
  QuasiPolynomial Naive =
      naiveClosedFormSum(C, {"j", "i"}, QuasiPolynomial(rat(1)));
  // Matches the formula the paper quotes from Mathematica.
  for (int64_t N = 0; N <= 8; ++N)
    for (int64_t M = 0; M <= 8; ++M) {
      Rational Formula = rat(N * (2 * M - N + 1), 2);
      EXPECT_EQ(Naive.evaluate({{"n", BigInt(N)}, {"m", BigInt(M)}}),
                Formula);
    }
  // Correct on 1 <= n <= m; WRONG when 1 <= m < n (paper: truth is
  // m(m+1)/2 there).
  EXPECT_EQ(Naive.evaluate({{"n", BigInt(3)}, {"m", BigInt(5)}}), rat(12));
  EXPECT_NE(Naive.evaluate({{"n", BigInt(5)}, {"m", BigInt(3)}}), rat(6));
}

TEST(InclusionExclusionTest, MatchesDisjointCount) {
  // Union of three overlapping intervals; FST needs 2^3 - 1 = 7
  // summations (§4.5.1), the disjoint route sums each clause once.
  std::vector<Conjunct> Clauses;
  auto Interval = [&](int64_t Lo, int64_t Hi) {
    Conjunct C;
    C.add(Constraint::ge(var("x") - AffineExpr(Lo)));
    C.add(Constraint::ge(AffineExpr(Hi) - var("x")));
    return C;
  };
  Clauses.push_back(Interval(1, 10));
  Clauses.push_back(Interval(5, 14));
  Clauses.push_back(Interval(8, 20));
  InclusionExclusionResult R =
      countUnionInclusionExclusion(Clauses, {"x"});
  EXPECT_EQ(R.NumSummations, 7u);
  EXPECT_EQ(R.Value.evaluate({}), rat(20)); // 1..20.
  // Cross-check with the §5 disjoint DNF route.
  std::vector<Formula> Parts;
  for (const Conjunct &C : Clauses)
    Parts.push_back(Formula::fromConjunct(C));
  PiecewiseValue Ours = countSolutions(Formula::disj(Parts), {"x"}).Value;
  EXPECT_EQ(Ours.evaluate({}), rat(20));
}

TEST(InclusionExclusionTest, SymbolicAgreement) {
  // Two overlapping symbolic ranges.
  std::vector<Conjunct> Clauses;
  Conjunct A;
  A.add(Constraint::ge(var("x") - AffineExpr(1)));
  A.add(Constraint::ge(var("n") - var("x")));
  Conjunct B;
  B.add(Constraint::ge(var("x") - AffineExpr(5)));
  B.add(Constraint::ge(var("n") + AffineExpr(3) - var("x")));
  Clauses.push_back(A);
  Clauses.push_back(B);
  InclusionExclusionResult R =
      countUnionInclusionExclusion(Clauses, {"x"});
  std::vector<Formula> Parts{Formula::fromConjunct(A),
                             Formula::fromConjunct(B)};
  PiecewiseValue Ours = countSolutions(Formula::disj(Parts), {"x"}).Value;
  for (int64_t N = 0; N <= 12; ++N)
    EXPECT_EQ(R.Value.evaluate({{"n", BigInt(N)}}),
              Ours.evaluate({{"n", BigInt(N)}}))
        << N;
}

} // namespace
