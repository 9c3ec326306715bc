//===- tests/PrintingRoundTripTest.cpp - Printers and parser fuzz --------===//
//
// Printing stability and a small random-formula fuzz: every randomly
// generated formula text must parse, simplify without error, and agree
// with direct evaluation on a grid.
//
//===----------------------------------------------------------------------===//

#include "omega/Omega.h"
#include "presburger/Parser.h"

#include <gtest/gtest.h>

#include <random>
#include <sstream>

using namespace omega;

namespace {

TEST(PrintingTest, ConstraintForms) {
  AffineExpr E = BigInt(2) * AffineExpr::variable("i") -
                 AffineExpr::variable("j") + AffineExpr(5);
  EXPECT_EQ(Constraint::ge(E).toString(), "2*i - j + 5 >= 0");
  EXPECT_EQ(Constraint::eq(E).toString(), "2*i - j + 5 = 0");
  EXPECT_EQ(Constraint::stride(BigInt(4), E).toString(), "4 | 2*i - j + 5");
}

TEST(PrintingTest, ConjunctWithWildcards) {
  Conjunct C;
  C.add(Constraint::ge(AffineExpr::variable("x")));
  VarId W = C.freshWildcard();
  C.addWildcard(W);
  C.add(Constraint::eq(AffineExpr::variable("x") -
                       BigInt(2) * AffineExpr::variable(W)));
  std::string S = C.toString();
  EXPECT_EQ(S, "exists $0: { x >= 0;  -2*$0 + x = 0 }");
  EXPECT_NE(S.find("x >= 0"), std::string::npos);
}

TEST(PrintingTest, FormulaStructure) {
  Formula F = parseFormulaOrDie("(1 <= x || x = -3) && !(2 | x)");
  std::string S = F.toString();
  EXPECT_NE(S.find("||"), std::string::npos);
  EXPECT_NE(S.find("!("), std::string::npos);
  EXPECT_EQ(Formula::trueFormula().toString(), "TRUE");
  EXPECT_EQ(Formula::falseFormula().toString(), "FALSE");
}

/// Random formula source text over one variable and one symbol.
std::string randomFormulaText(std::mt19937_64 &Rng, int Depth) {
  auto Expr = [&]() {
    std::ostringstream OS;
    int C = int(Rng() % 5) - 2;
    if (C != 1)
      OS << C << "*";
    OS << "x";
    int K = int(Rng() % 9) - 4;
    if (K >= 0)
      OS << " + " << K;
    else
      OS << " - " << -K;
    return OS.str();
  };
  if (Depth == 0 || Rng() % 3 == 0) {
    switch (Rng() % 4) {
    case 0:
      return Expr() + " >= 0";
    case 1:
      return Expr() + " <= n";
    case 2:
      return std::to_string(2 + Rng() % 3) + " | " + Expr();
    default:
      return Expr() + " = n";
    }
  }
  std::string L = randomFormulaText(Rng, Depth - 1);
  std::string R = randomFormulaText(Rng, Depth - 1);
  switch (Rng() % 3) {
  case 0:
    return "(" + L + ") && (" + R + ")";
  case 1:
    return "(" + L + ") || (" + R + ")";
  default:
    return "!(" + L + ")";
  }
}

TEST(ParserFuzzTest, RandomFormulasSimplifyFaithfully) {
  std::mt19937_64 Rng(31337);
  for (int Trial = 0; Trial < 40; ++Trial) {
    std::string Text = randomFormulaText(Rng, 3);
    ParseResult R = parseFormula(Text);
    ASSERT_TRUE(R) << Text << " : " << R.Error;
    std::vector<Conjunct> D = simplify(*R.Value);
    for (int64_t X = -6; X <= 6; ++X)
      for (int64_t N = -3; N <= 3; ++N) {
        Assignment A{{"x", BigInt(X)}, {"n", BigInt(N)}};
        bool Truth = R.Value->evaluate(A);
        bool Got = false;
        for (const Conjunct &C : D)
          Got = Got || C.contains(A);
        ASSERT_EQ(Got, Truth) << Text << " at x=" << X << " n=" << N;
      }
  }
}

TEST(ParserFuzzTest, DisjointModeFuzz) {
  std::mt19937_64 Rng(4242);
  SimplifyOptions Opts;
  Opts.Disjoint = true;
  for (int Trial = 0; Trial < 15; ++Trial) {
    std::string Text = randomFormulaText(Rng, 2);
    Formula F = parseFormulaOrDie(Text);
    std::vector<Conjunct> D = simplify(F, Opts);
    EXPECT_TRUE(pairwiseDisjoint(D)) << Text;
    for (int64_t X = -6; X <= 6; ++X) {
      Assignment A{{"x", BigInt(X)}, {"n", BigInt(2)}};
      bool Truth = F.evaluate(A);
      int Hits = 0;
      for (const Conjunct &C : D)
        Hits += C.contains(A);
      ASSERT_EQ(Hits > 0, Truth) << Text << " x=" << X;
      ASSERT_LE(Hits, 1) << Text << " x=" << X;
    }
  }
}

} // namespace
