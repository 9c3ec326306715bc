//===- tests/RelationTest.cpp - Tuple relation algebra tests -------------===//

#include "counting/Relation.h"

#include "baselines/Enumerator.h"
#include "omega/Verify.h"
#include "presburger/Parser.h"

#include <gtest/gtest.h>

using namespace omega;

namespace {

Rational rat(long long N) { return Rational(BigInt(N)); }

/// Tuple variables by name, as the assertions spell them.
std::vector<std::string> names(const std::vector<VarId> &Vars) {
  std::vector<std::string> Out;
  for (VarId V : Vars)
    Out.push_back(varName(V));
  return Out;
}

/// {[x] -> [y] : y = x + K, 1 <= x <= n}.
Relation shift(int64_t K) {
  Formula F = parseFormulaOrDie("y = x + " + std::to_string(K) +
                                " && 1 <= x <= n");
  return Relation({"x"}, {"y"}, F);
}

TEST(RelationTest, InverseSwapsTuples) {
  Relation R = shift(2);
  Relation Inv = R.inverse();
  EXPECT_EQ(names(Inv.inputs()), std::vector<std::string>{"y"});
  EXPECT_EQ(names(Inv.outputs()), std::vector<std::string>{"x"});
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

/// R's pair count at \p Symbols, checked against the enumerator.
int64_t checkedPairs(const Relation &R, const Assignment &Symbols) {
  BigInt Got = R.countPairs().evaluateInt(Symbols);
  EXPECT_EQ(Got, enumerateCount(R.body(), names(R.tuple()), Symbols, -12,
                                12, -12, 12))
      << R.toString();
  return Got.toInt64();
}

TEST(RelationTest, IntersectWithBinderNamedLikeATupleLabel) {
  // Other's binder x is this relation's input label: aligning Other's
  // tuple onto [x] -> [y] must not rename z into that binder.
  Relation A({"x"}, {"y"}, parseFormulaOrDie("y = x && 0 <= x <= 3"));
  Relation B({"z"}, {"w"},
             parseFormulaOrDie("exists(x: w = z + x && x = 0) && 0 <= z <= 3"));
  Relation I = A.intersect(B);
  EXPECT_EQ(names(I.inputs()), std::vector<std::string>{"x"});
  EXPECT_EQ(names(I.outputs()), std::vector<std::string>{"y"});
  EXPECT_EQ(checkedPairs(I, {}), 4);
}

TEST(RelationTest, IntersectPermutedTuple) {
  // B's pairs are (in, in + 1) too, with the labels swapped.
  Relation A({"x"}, {"y"}, parseFormulaOrDie("y = x + 1 && 0 <= x <= 5"));
  Relation B({"y"}, {"x"}, parseFormulaOrDie("x = y + 1 && 2 <= y <= 9"));
  EXPECT_EQ(checkedPairs(A.intersect(B), {}), 4);
  EXPECT_EQ(checkedPairs(A.subtract(B), {}), 2);
  EXPECT_EQ(checkedPairs(A.unionWith(B), {}), 10);
  EXPECT_FALSE(A.isSubsetOf(B));
  EXPECT_TRUE(A.intersect(B).isSubsetOf(B));
}

TEST(RelationTest, ComposeWithOwnInverse) {
  // R^-1 ∘ R and R ∘ R^-1 would both be labelled [v] -> [v]; the output
  // label is freshened instead, and the identity on 1..n remains.
  Relation R = shift(1);
  Relation Back = R.inverse().compose(R);
  Relation Forth = R.compose(R.inverse());
  EXPECT_EQ(names(Back.inputs()), std::vector<std::string>{"x"});
  EXPECT_EQ(names(Back.outputs()), std::vector<std::string>{"x0"});
  EXPECT_EQ(names(Forth.inputs()), std::vector<std::string>{"y"});
  EXPECT_EQ(names(Forth.outputs()), std::vector<std::string>{"y0"});
  for (int64_t N = 0; N <= 6; ++N) {
    Assignment At{{"n", BigInt(N)}};
    EXPECT_EQ(checkedPairs(Back, At), N) << N;
    EXPECT_EQ(checkedPairs(Forth, At), N) << N;
  }
  EXPECT_TRUE(isSatisfiable(Back.body() &&
                            parseFormulaOrDie("x = 2 && x0 = 2 && n = 3")));
  EXPECT_FALSE(isSatisfiable(Back.body() &&
                             parseFormulaOrDie("x = 2 && x0 = 3 && n = 3")));
}

TEST(RelationTest, FreshOutputLabelIsDeterministic) {
  Relation R = shift(1);
  std::string First = R.inverse().compose(R).toString();
  EXPECT_EQ(First, R.inverse().compose(R).toString());
  EXPECT_EQ(First.rfind("{[x] -> [x0] : ", 0), 0u) << First;
}

TEST(RelationTest, ComposeLabelThatIsASymbolOfTheOtherIsFreshened) {
  // Other's input label n is a symbolic constant of this relation; the
  // result relabels it rather than bind that symbol.
  Relation Other({"n"}, {"y"}, parseFormulaOrDie("y = n && 0 <= n <= 4"));
  Relation This({"y"}, {"z"}, parseFormulaOrDie("z = y && y <= n"));
  Relation C = This.compose(Other);
  EXPECT_EQ(names(C.inputs()), std::vector<std::string>{"n0"});
  for (int64_t N = -1; N <= 6; ++N)
    EXPECT_EQ(checkedPairs(C, {{"n", BigInt(N)}}),
              std::max<int64_t>(0, std::min<int64_t>(N, 4) + 1))
        << N;
}

TEST(RelationTest, ToString) {
  Relation R = shift(1);
  std::string S = R.toString();
  EXPECT_NE(S.find("{[x] -> [y]"), std::string::npos);
}

} // namespace
