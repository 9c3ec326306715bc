//===- tests/RelationTest.cpp - Tuple relation algebra tests -------------===//

#include "counting/Relation.h"

#include "baselines/Enumerator.h"
#include "omega/Verify.h"
#include "presburger/Parser.h"

#include <gtest/gtest.h>

using namespace omega;

namespace {

Rational rat(long long N) { return Rational(BigInt(N)); }

/// {[x] -> [y] : y = x + K, 1 <= x <= n}.
Relation shift(int64_t K) {
  Formula F = parseFormulaOrDie("y = x + " + std::to_string(K) +
                                " && 1 <= x <= n");
  return Relation({"x"}, {"y"}, F);
}

TEST(RelationTest, InverseSwapsTuples) {
  Relation R = shift(2);
  Relation Inv = R.inverse();
  EXPECT_EQ(Inv.inputs(), std::vector<std::string>{"y"});
  EXPECT_EQ(Inv.outputs(), std::vector<std::string>{"x"});
  // (3, 5) in R  <=>  (5, 3) in Inv: compare counts per input.
  PiecewiseValue Fwd = R.countOutputsPerInput();
  Assignment A{{"x", BigInt(3)}, {"n", BigInt(10)}};
  EXPECT_EQ(Fwd.evaluate(A), rat(1));
  PiecewiseValue Bwd = Inv.countOutputsPerInput();
  Assignment B{{"y", BigInt(5)}, {"n", BigInt(10)}};
  EXPECT_EQ(Bwd.evaluate(B), rat(1));
  Assignment C{{"y", BigInt(13)}, {"n", BigInt(10)}};
  EXPECT_EQ(Bwd.evaluate(C), rat(0)); // x = 11 is outside 1..10.
}

TEST(RelationTest, ComposeShiftsAdd) {
  // shift(2) after shift(3) = shift(5) on the overlapping domain.
  Relation R = shift(2).compose(shift(3));
  // Pairs (x, z): z = x + 5 with 1 <= x <= n and 1 <= x + 3 <= n.
  PiecewiseValue Pairs = R.countPairs();
  for (int64_t N = 0; N <= 10; ++N)
    EXPECT_EQ(Pairs.evaluate({{"n", BigInt(N)}}),
              rat(std::max<int64_t>(0, N - 3)))
        << N;
  // Spot-check a pair via the formula.
  EXPECT_TRUE(isSatisfiable(R.body() &&
                            parseFormulaOrDie("x = 1 && y = 6 && n = 10")));
  EXPECT_FALSE(isSatisfiable(R.body() &&
                             parseFormulaOrDie("x = 1 && y = 5 && n = 10")));
}

TEST(RelationTest, UnionIntersectSubtract) {
  Relation A = shift(1);
  Relation B = shift(2);
  Relation U = A.unionWith(B);
  Relation I = A.intersect(B);
  Relation D = U.subtract(B);
  EXPECT_TRUE(I.isEmpty()); // y can't be both x+1 and x+2.
  PiecewiseValue CU = U.countPairs();
  PiecewiseValue CD = D.countPairs();
  for (int64_t N = 1; N <= 8; ++N) {
    EXPECT_EQ(CU.evaluate({{"n", BigInt(N)}}), rat(2 * N)) << N;
    EXPECT_EQ(CD.evaluate({{"n", BigInt(N)}}), rat(N)) << N;
  }
}

TEST(RelationTest, SubsetAndEmpty) {
  Relation A = shift(1);
  // Restrict A to even x.
  Relation AEven({"x"}, {"y"},
                 A.body() && parseFormulaOrDie("2 | x"));
  EXPECT_TRUE(AEven.isSubsetOf(A));
  EXPECT_FALSE(A.isSubsetOf(AEven));
  EXPECT_FALSE(A.isEmpty());
  EXPECT_TRUE(A.subtract(A).isEmpty());
}

TEST(RelationTest, DomainRangeImage) {
  Relation R = shift(3);
  // Domain: 1 <= x <= n; range: 4 <= y <= n + 3.
  EXPECT_TRUE(verifyEquivalent(R.domain(),
                               parseFormulaOrDie("1 <= x <= n")));
  EXPECT_TRUE(verifyEquivalent(R.range(),
                               parseFormulaOrDie("4 <= y <= n + 3")));
  // Image of {1 <= x <= 2}: {4 <= y <= 5} (inside the domain bound n>=2).
  Formula Img = R.image(parseFormulaOrDie("1 <= x <= 2"));
  EXPECT_TRUE(verifyImplies(Img, parseFormulaOrDie("4 <= y <= 5")));
}

TEST(RelationTest, FanOutCounting) {
  // {[i] -> [j] : 1 <= i <= j <= n}: input i has n - i + 1 successors.
  Relation R({"i"}, {"j"}, parseFormulaOrDie("1 <= i <= j <= n"));
  PiecewiseValue Fan = R.countOutputsPerInput();
  for (int64_t N = 5, I = 1; I <= N; ++I)
    EXPECT_EQ(Fan.evaluate({{"i", BigInt(I)}, {"n", BigInt(N)}}),
              rat(N - I + 1))
        << I;
  PiecewiseValue Pairs = R.countPairs();
  for (int64_t N = 0; N <= 8; ++N)
    EXPECT_EQ(Pairs.evaluate({{"n", BigInt(N)}}),
              rat(std::max<int64_t>(0, N * (N + 1) / 2)))
        << N;
}

TEST(RelationTest, ComposeLexicographicSteps) {
  // One wavefront dependence step: (i,j) -> (i+1,j).  Composing it with
  // itself gives (i,j) -> (i+2,j).
  Formula Step = parseFormulaOrDie(
      "ip = i + 1 && jp = j && 1 <= i <= n && 1 <= ip <= n && "
      "1 <= j <= n && 1 <= jp <= n");
  Relation R({"i", "j"}, {"ip", "jp"}, Step);
  Relation RR = R.compose(R);
  PiecewiseValue Pairs = RR.countPairs();
  for (int64_t N = 0; N <= 7; ++N)
    EXPECT_EQ(Pairs.evaluate({{"n", BigInt(N)}}),
              rat(std::max<int64_t>(0, (N - 2) * N)))
        << N;
  // R³ nonempty only when n >= 4.
  Relation R3 = RR.compose(R);
  EXPECT_FALSE(isSatisfiable(R3.body() && parseFormulaOrDie("n = 3")));
  EXPECT_TRUE(isSatisfiable(R3.body() && parseFormulaOrDie("n = 4")));
}

TEST(RelationTest, ComposeIsDeterministic) {
  // The middle tuple is named from the relations alone, so composing twice
  // prints the same relation.
  Relation R = shift(1);
  EXPECT_EQ(R.compose(R).toString(), R.compose(R).toString());
}

TEST(RelationTest, ComposeCapturesNothingEitherWay) {
  // Three steps of x -> x + 1 within 1..n: n - 2 pairs, however the
  // compositions nest.  An inner composition's bound middle tuple must not
  // capture the outer one's, on either side of compose.
  Relation R = shift(1);
  PiecewiseValue Right = R.compose(R.compose(R)).countPairs();
  PiecewiseValue Left = R.compose(R).compose(R).countPairs();
  for (int64_t N = 0; N <= 8; ++N) {
    Rational Want = rat(std::max<int64_t>(0, N - 2));
    EXPECT_EQ(Right.evaluate({{"n", BigInt(N)}}), Want) << N;
    EXPECT_EQ(Left.evaluate({{"n", BigInt(N)}}), Want) << N;
  }
}

TEST(RelationTest, ToString) {
  Relation R = shift(1);
  std::string S = R.toString();
  EXPECT_NE(S.find("{[x] -> [y]"), std::string::npos);
}

} // namespace
