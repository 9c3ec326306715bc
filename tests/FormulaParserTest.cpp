//===- tests/FormulaParserTest.cpp - Formula AST, lowering, parser -------===//

#include "presburger/Conjunct.h"
#include "presburger/Formula.h"
#include "presburger/NonLinear.h"
#include "presburger/Parser.h"

#include <gtest/gtest.h>

using namespace omega;

namespace {

AffineExpr var(const char *N) { return AffineExpr::variable(N); }

TEST(FormulaTest, ConstantFolding) {
  EXPECT_TRUE(Formula::trueFormula().isTrue());
  EXPECT_TRUE(Formula::falseFormula().isFalse());
  EXPECT_TRUE(Formula::atom(Constraint::ge(AffineExpr(1))).isTrue());
  EXPECT_TRUE(Formula::atom(Constraint::ge(AffineExpr(-1))).isFalse());
  EXPECT_TRUE(
      Formula::conj({Formula::trueFormula(), Formula::trueFormula()})
          .isTrue());
  EXPECT_TRUE(
      Formula::conj({Formula::trueFormula(), Formula::falseFormula()})
          .isFalse());
  EXPECT_TRUE(
      Formula::disj({Formula::falseFormula(), Formula::trueFormula()})
          .isTrue());
  EXPECT_TRUE(Formula::negation(Formula::trueFormula()).isFalse());
  Formula A = Formula::atom(Constraint::ge(var("x")));
  EXPECT_EQ(Formula::negation(Formula::negation(A)).toString(), A.toString());
}

TEST(FormulaTest, FlatteningAndQuantifierMerging) {
  Formula A = Formula::atom(Constraint::ge(var("x")));
  Formula B = Formula::atom(Constraint::ge(var("y")));
  Formula C = Formula::atom(Constraint::ge(var("z")));
  Formula Nested = Formula::conj({A, Formula::conj({B, C})});
  EXPECT_EQ(Nested.kind(), FormulaKind::And);
  EXPECT_EQ(Nested.children().size(), 3u);
  Formula E = Formula::exists({"x"}, Formula::exists({"y"}, A && B));
  EXPECT_EQ(E.kind(), FormulaKind::Exists);
  EXPECT_EQ(E.quantified().size(), 2u);
  // exists over True folds away.
  EXPECT_TRUE(Formula::exists({"x"}, Formula::trueFormula()).isTrue());
}

TEST(FormulaTest, FreeVars) {
  Formula F = Formula::exists(
      {"i"}, Formula::atom(Constraint::eq(var("i") - var("n"))) &&
                 Formula::atom(Constraint::ge(var("m") - var("i"))));
  VarSet Free = F.freeVars();
  EXPECT_EQ(Free, (VarSet{"n", "m"}));
}

TEST(FormulaTest, EvaluateQuantifierFree) {
  Formula F = Formula::atom(Constraint::ge(var("x") - AffineExpr(3))) ||
              Formula::atom(Constraint::eq(var("x") + AffineExpr(1)));
  EXPECT_TRUE(F.evaluate({{"x", BigInt(5)}}));
  EXPECT_TRUE(F.evaluate({{"x", BigInt(-1)}}));
  EXPECT_FALSE(F.evaluate({{"x", BigInt(0)}}));
  Formula N = !F;
  EXPECT_TRUE(N.evaluate({{"x", BigInt(0)}}));
}

TEST(NonLinearTest, FloorLoweringSemantics) {
  // For e = 7 and c = 3, the unique witness is alpha = 2.
  LoweredExpr L = lowerFloor(var("n"), BigInt(3), wildcardVar(0));
  ASSERT_EQ(L.Side.wildcards().size(), 1u);
  std::string Alpha = varName(*L.Side.wildcards().begin());
  for (int64_t N = -10; N <= 10; ++N) {
    int64_t Expected = N >= 0 ? N / 3 : (N - 2) / 3;
    int Witnesses = 0;
    for (int64_t A = -10; A <= 10; ++A) {
      Assignment Vals{{"n", BigInt(N)}, {Alpha, BigInt(A)}};
      bool Holds = true;
      for (const Constraint &C : L.Side.constraints())
        Holds = Holds && C.holds(Vals);
      if (Holds) {
        ++Witnesses;
        EXPECT_EQ(L.Expr.evaluate(Vals).toInt64(), Expected);
      }
    }
    EXPECT_EQ(Witnesses, 1) << "floor witness not unique for n=" << N;
  }
}

TEST(NonLinearTest, CeilAndModSemantics) {
  LoweredExpr Ceil = lowerCeil(var("n"), BigInt(4), wildcardVar(0));
  LoweredExpr Mod = lowerMod(var("n"), BigInt(4), wildcardVar(1));
  std::string B = varName(*Ceil.Side.wildcards().begin());
  std::string G = varName(*Mod.Side.wildcards().begin());
  for (int64_t N = -9; N <= 9; ++N) {
    int64_t ExpCeil = (N >= 0 ? (N + 3) / 4 : N / 4);
    int64_t ExpMod = ((N % 4) + 4) % 4;
    for (int64_t W = -10; W <= 10; ++W) {
      Assignment CV{{"n", BigInt(N)}, {B, BigInt(W)}};
      bool CH = true;
      for (const Constraint &C : Ceil.Side.constraints())
        CH = CH && C.holds(CV);
      if (CH) {
        EXPECT_EQ(Ceil.Expr.evaluate(CV).toInt64(), ExpCeil);
      }
      Assignment MV{{"n", BigInt(N)}, {G, BigInt(W)}};
      bool MH = true;
      for (const Constraint &C : Mod.Side.constraints())
        MH = MH && C.holds(MV);
      if (MH) {
        EXPECT_EQ(Mod.Expr.evaluate(MV).toInt64(), ExpMod);
      }
    }
  }
}

TEST(ConjunctTest, MergeRefreshesWildcards) {
  Conjunct A;
  VarId W = A.freshWildcard();
  A.addWildcard(W);
  A.add(Constraint::eq(var("x") - AffineExpr::variable(W)));
  Conjunct M = Conjunct::merge(A, A);
  EXPECT_EQ(M.wildcards().size(), 2u);
  EXPECT_EQ(M.constraints().size(), 2u);
  // Each clause keeps a wildcard of its own: A's stays, B's moves.
  EXPECT_TRUE(M.isWildcard(W));
  for (const Constraint &K : M.constraints())
    EXPECT_EQ(K.expr().terms().size(), 2u);
  EXPECT_NE(M.constraints()[0], M.constraints()[1]);
}

TEST(ConjunctTest, MergeIsDeterministic) {
  Conjunct A, B;
  VarId W = A.freshWildcard();
  A.addWildcard(W);
  A.add(Constraint::eq(var("x") - BigInt(2) * AffineExpr::variable(W)));
  B.addWildcard(W);
  B.add(Constraint::eq(var("y") - BigInt(3) * AffineExpr::variable(W)));
  EXPECT_EQ(Conjunct::merge(A, B).toString(),
            Conjunct::merge(A, B).toString());
}

TEST(ConjunctTest, MergeDoesNotCaptureFreeWildcardNames) {
  // A binds $0; B mentions $0 free (an enclosing quantifier's variable).
  Conjunct A, B;
  A.addWildcard(wildcardVar(0));
  A.add(Constraint::eq(var("x") - BigInt(2) * AffineExpr::variable(
                                                  wildcardVar(0))));
  B.add(Constraint::ge(AffineExpr::variable(wildcardVar(0)) - var("x")));
  Conjunct M = Conjunct::merge(A, B);
  EXPECT_FALSE(M.isWildcard(wildcardVar(0)));
  EXPECT_TRUE(M.mentions(wildcardVar(0)));
  EXPECT_EQ(M.wildcards().size(), 1u);
}

TEST(ConjunctTest, FreshWildcardIsPastEveryIndexUsed) {
  Conjunct C;
  EXPECT_EQ(C.freshWildcard(), wildcardVar(0));
  C.add(Constraint::ge(var("i") - AffineExpr::variable(wildcardVar(4))));
  EXPECT_EQ(C.freshWildcard(), wildcardVar(5));
  C.addWildcard(wildcardVar(11));
  EXPECT_EQ(C.freshWildcard(), wildcardVar(12));
}

TEST(ConjunctTest, StridesToWildcards) {
  Conjunct C;
  C.add(Constraint::stride(BigInt(3), var("n") - AffineExpr(1)));
  C.add(Constraint::ge(var("n")));
  C.stridesToWildcards();
  EXPECT_EQ(C.wildcards().size(), 1u);
  int Eqs = 0, Strides = 0;
  for (const Constraint &K : C.constraints()) {
    Eqs += K.isEq();
    Strides += K.isStride();
  }
  EXPECT_EQ(Eqs, 1);
  EXPECT_EQ(Strides, 0);
}

TEST(ConjunctTest, ContainsAndFreeVars) {
  Conjunct C;
  C.add(Constraint::le(AffineExpr(1), var("i")));
  C.add(Constraint::le(var("i"), var("n")));
  C.add(Constraint::stride(BigInt(2), var("i")));
  EXPECT_TRUE(C.contains({{"i", BigInt(2)}, {"n", BigInt(5)}}));
  EXPECT_FALSE(C.contains({{"i", BigInt(3)}, {"n", BigInt(5)}}));
  EXPECT_FALSE(C.contains({{"i", BigInt(6)}, {"n", BigInt(5)}}));
  EXPECT_EQ(C.freeVars(), (VarSet{"i", "n"}));
}

TEST(ParserTest, SimpleComparisons) {
  Formula F = parseFormulaOrDie("1 <= i && i <= n");
  EXPECT_TRUE(F.evaluate({{"i", BigInt(3)}, {"n", BigInt(5)}}));
  EXPECT_FALSE(F.evaluate({{"i", BigInt(0)}, {"n", BigInt(5)}}));
  Formula Chain = parseFormulaOrDie("1 <= i <= n");
  EXPECT_TRUE(Chain.evaluate({{"i", BigInt(3)}, {"n", BigInt(5)}}));
  EXPECT_FALSE(Chain.evaluate({{"i", BigInt(6)}, {"n", BigInt(5)}}));
}

TEST(ParserTest, CommaLists) {
  // The paper's "1 <= i,j <= n".
  Formula F = parseFormulaOrDie("1 <= i,j <= n");
  Assignment Good{{"i", BigInt(1)}, {"j", BigInt(4)}, {"n", BigInt(4)}};
  Assignment Bad{{"i", BigInt(0)}, {"j", BigInt(4)}, {"n", BigInt(4)}};
  EXPECT_TRUE(F.evaluate(Good));
  EXPECT_FALSE(F.evaluate(Bad));
}

TEST(ParserTest, ArithmeticPrecedence) {
  Formula F = parseFormulaOrDie("2*i + 3 = j - 1");
  EXPECT_TRUE(F.evaluate({{"i", BigInt(1)}, {"j", BigInt(6)}}));
  EXPECT_FALSE(F.evaluate({{"i", BigInt(1)}, {"j", BigInt(5)}}));
  Formula G = parseFormulaOrDie("-(i + 2) * 3 < 0");
  EXPECT_TRUE(G.evaluate({{"i", BigInt(0)}}));
  EXPECT_FALSE(G.evaluate({{"i", BigInt(-4)}}));
}

TEST(ParserTest, BooleanStructureAndNegation) {
  Formula F = parseFormulaOrDie("(x = 1 || x = 2) && !(x = 2)");
  EXPECT_TRUE(F.evaluate({{"x", BigInt(1)}}));
  EXPECT_FALSE(F.evaluate({{"x", BigInt(2)}}));
  EXPECT_FALSE(F.evaluate({{"x", BigInt(3)}}));
  Formula G = parseFormulaOrDie("not (x = 1 or x = 2)");
  EXPECT_TRUE(G.evaluate({{"x", BigInt(5)}}));
}

TEST(ParserTest, NotEqual) {
  Formula F = parseFormulaOrDie("i != j");
  EXPECT_TRUE(F.evaluate({{"i", BigInt(1)}, {"j", BigInt(2)}}));
  EXPECT_FALSE(F.evaluate({{"i", BigInt(2)}, {"j", BigInt(2)}}));
}

TEST(ParserTest, StrideAtom) {
  Formula F = parseFormulaOrDie("3 | n - 1");
  EXPECT_TRUE(F.evaluate({{"n", BigInt(4)}}));
  EXPECT_FALSE(F.evaluate({{"n", BigInt(5)}}));
}

TEST(ParserTest, ExistsParses) {
  Formula F = parseFormulaOrDie("exists(y: 1 <= y <= 4 && x = 2*y)");
  EXPECT_EQ(F.kind(), FormulaKind::Exists);
  EXPECT_EQ(F.freeVars(), VarSet{"x"});
}

TEST(ParserTest, FloorCeilModParse) {
  Formula F = parseFormulaOrDie("x = floor(n / 3)");
  EXPECT_EQ(F.kind(), FormulaKind::Exists);
  EXPECT_EQ(F.freeVars(), (VarSet{"x", "n"}));
  Formula G = parseFormulaOrDie("n mod 2 = 1");
  EXPECT_EQ(G.freeVars(), VarSet{"n"});
  Formula H = parseFormulaOrDie("x = ceil(n / 4) && (i + j) mod 3 = 0");
  EXPECT_EQ(H.freeVars(), (VarSet{"x", "n", "i", "j"}));
}

TEST(ParserTest, TrueFalseLiterals) {
  EXPECT_TRUE(parseFormulaOrDie("TRUE").isTrue());
  EXPECT_TRUE(parseFormulaOrDie("FALSE").isFalse());
  EXPECT_TRUE(parseFormulaOrDie("TRUE && TRUE").isTrue());
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(parseFormula("1 <="));
  EXPECT_FALSE(parseFormula("i * j = 3"));    // Nonlinear.
  EXPECT_FALSE(parseFormula("x = 1 &&"));
  EXPECT_FALSE(parseFormula("exists(: x = 1)"));
  EXPECT_FALSE(parseFormula("x # 1"));
  EXPECT_FALSE(parseFormula("x = 1 extra"));
  EXPECT_FALSE(parseFormula(""));
  ParseResult R = parseFormula("x = ");
  ASSERT_FALSE(R);
  EXPECT_NE(R.Error.find("offset"), std::string::npos);
}

TEST(ParserTest, PaperSection26Formula) {
  // The formula the paper reports simplifying in 12 ms (§2.6).
  const char *Text =
      "1 <= i <= 2*n && 1 <= ip <= 2*n && i = ip && "
      "(exists(i2, j2: 1 <= i2 <= 2*n && 1 <= j2 <= n - 1 && i2 < i && "
      "i2 = ip && 2*j2 = i2) || "
      "exists(i2, j2: 1 <= i2 <= 2*n && 1 <= j2 <= n - 1 && i2 < i && "
      "i2 = ip && 2*j2 + 1 = i2))";
  ParseResult R = parseFormula(Text);
  ASSERT_TRUE(R) << R.Error;
  EXPECT_EQ(R.Value->freeVars(), (VarSet{"i", "ip", "n"}));
}

} // namespace
