//===- tests/PolyTest.cpp - QuasiPolynomial, Faulhaber, PiecewiseValue ---===//

#include "poly/Faulhaber.h"
#include "poly/PiecewiseValue.h"
#include "poly/QuasiPolynomial.h"

#include <gtest/gtest.h>

#include <random>

using namespace omega;

namespace {

QuasiPolynomial var(const char *N) { return QuasiPolynomial::variable(N); }
Rational rat(long long N, long long D = 1) {
  return Rational(BigInt(N), BigInt(D));
}

TEST(AtomTest, ModCanonicalization) {
  // (5n + 7) mod 3 == (2n + 1) mod 3 as atoms.
  AffineExpr E1 = BigInt(5) * AffineExpr::variable("n") + AffineExpr(7);
  AffineExpr E2 = BigInt(2) * AffineExpr::variable("n") + AffineExpr(1);
  EXPECT_EQ(Atom::mod(E1, BigInt(3)), Atom::mod(E2, BigInt(3)));
  // Constant argument folds when built through fromAtom.
  QuasiPolynomial P = QuasiPolynomial::fromAtom(
      Atom::mod(AffineExpr(7), BigInt(3)));
  EXPECT_TRUE(P.isConstant());
  EXPECT_EQ(P.constantValue(), rat(1));
}

TEST(AtomTest, ModConstantFoldsWhenModulusDividesCoefficients) {
  // Table-driven: when the modulus divides every variable coefficient the
  // canonicalized argument is a bare constant, so fromAtom must fold the
  // atom to (constant mod m) — no periodic term survives.
  struct Case {
    int64_t CoeffN, CoeffM, Constant, Modulus, Folded;
  };
  const Case Cases[] = {
      {6, 9, 7, 3, 1},   // (6n + 9m + 7) mod 3 == 1
      {4, 0, 0, 2, 0},   // (4n) mod 2 == 0
      {-6, 12, -5, 3, 1},  // negative coefficients and constant
      {10, 5, 13, 5, 3},   // (10n + 5m + 13) mod 5 == 3
  };
  for (const Case &C : Cases) {
    AffineExpr E = BigInt(C.CoeffN) * AffineExpr::variable("n") +
                   BigInt(C.CoeffM) * AffineExpr::variable("m") +
                   AffineExpr(C.Constant);
    Atom A = Atom::mod(E, BigInt(C.Modulus));
    EXPECT_TRUE(A.arg().isConstant())
        << "canonicalization left a variable in " << C.CoeffN << "n + "
        << C.CoeffM << "m + " << C.Constant << " mod " << C.Modulus;
    QuasiPolynomial P = QuasiPolynomial::fromAtom(A);
    EXPECT_TRUE(P.isConstant());
    EXPECT_EQ(P.constantValue(), rat(C.Folded));
  }
  // Contrast: a coefficient the modulus does not divide keeps the term.
  QuasiPolynomial Q = QuasiPolynomial::fromAtom(
      Atom::mod(BigInt(2) * AffineExpr::variable("n"), BigInt(4)));
  EXPECT_FALSE(Q.isConstant());
}

TEST(AtomTest, Evaluate) {
  Atom M = Atom::mod(AffineExpr::variable("n"), BigInt(4));
  EXPECT_EQ(M.evaluate({{"n", BigInt(7)}}).toInt64(), 3);
  EXPECT_EQ(M.evaluate({{"n", BigInt(-1)}}).toInt64(), 3);
  EXPECT_EQ(M.evaluate({{"n", BigInt(8)}}).toInt64(), 0);
  Atom S = Atom::symbol(internVar("n"));
  EXPECT_EQ(S.evaluate({{"n", BigInt(5)}}).toInt64(), 5);
}

TEST(QuasiPolynomialTest, RingOperations) {
  QuasiPolynomial P = var("n") * var("n") + var("n") * rat(2) +
                      QuasiPolynomial(rat(1));
  // (n + 1)^2.
  QuasiPolynomial Q =
      QuasiPolynomial::pow(var("n") + QuasiPolynomial(rat(1)), 2);
  EXPECT_EQ(P, Q);
  EXPECT_TRUE((P - Q).isZero());
  EXPECT_EQ(P.evaluate({{"n", BigInt(3)}}), rat(16));
  EXPECT_EQ((P * Q).evaluate({{"n", BigInt(2)}}), rat(81));
  EXPECT_EQ((-P).evaluate({{"n", BigInt(3)}}), rat(-16));
}

TEST(QuasiPolynomialTest, CoefficientsOf) {
  // 3v^2*n + v - 7, coefficients in v.
  QuasiPolynomial P = var("v") * var("v") * var("n") * rat(3) + var("v") -
                      QuasiPolynomial(rat(7));
  std::vector<QuasiPolynomial> C = P.coefficientsOf(internVar("v"));
  ASSERT_EQ(C.size(), 3u);
  EXPECT_EQ(C[0], QuasiPolynomial(rat(-7)));
  EXPECT_EQ(C[1], QuasiPolynomial(rat(1)));
  EXPECT_EQ(C[2], var("n") * rat(3));
  EXPECT_EQ(P.degreeIn(internVar("v")), 2u);
  EXPECT_EQ(P.degreeIn(internVar("w")), 0u);
}

TEST(QuasiPolynomialTest, Substitute) {
  // v := n + 1 in v^2 gives (n+1)^2.
  QuasiPolynomial P = var("v") * var("v");
  P.substitute(internVar("v"), var("n") + QuasiPolynomial(rat(1)));
  EXPECT_EQ(P, QuasiPolynomial::pow(var("n") + QuasiPolynomial(rat(1)), 2));
  // Substitution with rational coefficients.
  QuasiPolynomial Q = var("v");
  Q.substitute(internVar("v"), var("n") * rat(1, 2));
  EXPECT_EQ(Q.evaluate({{"n", BigInt(4)}}), rat(2));
}

TEST(QuasiPolynomialTest, ModAtomsInPolynomials) {
  // n - (n mod 2) is always even; halved it is floor(n/2).
  QuasiPolynomial Floor =
      (var("n") -
       QuasiPolynomial::fromAtom(Atom::mod(AffineExpr::variable("n"),
                                           BigInt(2)))) *
      rat(1, 2);
  for (int64_t N = -7; N <= 7; ++N) {
    int64_t Expected = N >= 0 ? N / 2 : (N - 1) / 2;
    EXPECT_EQ(Floor.evaluate({{"n", BigInt(N)}}), rat(Expected)) << N;
  }
}

TEST(QuasiPolynomialTest, FromAffine) {
  AffineExpr E = BigInt(2) * AffineExpr::variable("i") -
                 BigInt(3) * AffineExpr::variable("j") + AffineExpr(5);
  QuasiPolynomial P = QuasiPolynomial::fromAffine(E);
  EXPECT_EQ(P.evaluate({{"i", BigInt(1)}, {"j", BigInt(2)}}), rat(1));
}

TEST(QuasiPolynomialTest, ToString) {
  QuasiPolynomial P = var("n") * var("n") * rat(3, 4) + var("n") * rat(1, 2) -
                      QuasiPolynomial(rat(1, 4));
  EXPECT_EQ(P.toString(), "3/4*n^2 + 1/2*n - 1/4");
  EXPECT_EQ(QuasiPolynomial().toString(), "0");
}

TEST(BernoulliTest, KnownValues) {
  EXPECT_EQ(bernoulli(0), rat(1));
  EXPECT_EQ(bernoulli(1), rat(1, 2)); // B+ convention.
  EXPECT_EQ(bernoulli(2), rat(1, 6));
  EXPECT_EQ(bernoulli(3), rat(0));
  EXPECT_EQ(bernoulli(4), rat(-1, 30));
  EXPECT_EQ(bernoulli(6), rat(1, 42));
  EXPECT_EQ(bernoulli(8), rat(-1, 30));
  EXPECT_EQ(bernoulli(10), rat(5, 66));
  EXPECT_EQ(bernoulli(12), rat(-691, 2730));
}

TEST(BinomialTest, Basics) {
  EXPECT_EQ(binomial(5, 2).toInt64(), 10);
  EXPECT_EQ(binomial(10, 0).toInt64(), 1);
  EXPECT_EQ(binomial(10, 10).toInt64(), 1);
  EXPECT_EQ(binomial(3, 5).toInt64(), 0);
  EXPECT_EQ(binomial(50, 25).toString(), "126410606437752");
}

/// The CRC-table closed forms the paper references in §4.1.
TEST(FaulhaberTest, ClassicFormulas) {
  QuasiPolynomial N = var("n");
  // Σ 1 = n.
  EXPECT_EQ(faulhaber(0, N), N);
  // Σ i = n(n+1)/2.
  EXPECT_EQ(faulhaber(1, N), (N * N + N) * rat(1, 2));
  // Σ i² = n(n+1)(2n+1)/6.
  EXPECT_EQ(faulhaber(2, N),
            N * N * N * rat(1, 3) + N * N * rat(1, 2) + N * rat(1, 6));
  // Σ i³ = (n(n+1)/2)².
  EXPECT_EQ(faulhaber(3, N),
            QuasiPolynomial::pow((N * N + N) * rat(1, 2), 2));
}

/// S_p(X) - S_p(X-1) = X^p as a polynomial identity, p up to 10 (the
/// paper hard-codes formulas to p = 10).
TEST(FaulhaberTest, TelescopingIdentity) {
  QuasiPolynomial X = var("x");
  for (unsigned P = 0; P <= 10; ++P) {
    QuasiPolynomial Diff =
        faulhaber(P, X) - faulhaber(P, X - QuasiPolynomial(rat(1)));
    EXPECT_EQ(Diff, QuasiPolynomial::pow(X, P)) << "p = " << P;
  }
}

TEST(FaulhaberTest, NumericAgreement) {
  for (unsigned P = 0; P <= 6; ++P) {
    QuasiPolynomial S = faulhaber(P, var("n"));
    for (int64_t N = 0; N <= 12; ++N) {
      BigInt Expected(0);
      for (int64_t I = 1; I <= N; ++I)
        Expected += BigInt::pow(BigInt(I), P);
      EXPECT_EQ(S.evaluate({{"n", BigInt(N)}}), Rational(Expected))
          << "p=" << P << " n=" << N;
    }
  }
}

/// powerSumRange is exact for negative and mixed ranges — the behaviour
/// the paper's four-piece decomposition of §4.2 exists to provide.
TEST(FaulhaberTest, RangeWithNegatives) {
  std::mt19937_64 Rng(3);
  for (int Trial = 0; Trial < 200; ++Trial) {
    int64_t L = int64_t(Rng() % 21) - 10;
    int64_t U = L + int64_t(Rng() % 12);
    unsigned P = Rng() % 5;
    QuasiPolynomial R = powerSumRange(P, QuasiPolynomial(rat(L)),
                                      QuasiPolynomial(rat(U)));
    BigInt Expected(0);
    for (int64_t V = L; V <= U; ++V)
      Expected += BigInt::pow(BigInt(V), P);
    ASSERT_TRUE(R.isConstant());
    EXPECT_EQ(R.constantValue(), Rational(Expected))
        << "p=" << P << " [" << L << "," << U << "]";
  }
}

TEST(PiecewiseValueTest, EvaluateSumsMatchingPieces) {
  PiecewiseValue V;
  Conjunct G1; // n >= 1.
  G1.add(Constraint::ge(AffineExpr::variable("n") - AffineExpr(1)));
  Conjunct G2; // n >= 5.
  G2.add(Constraint::ge(AffineExpr::variable("n") - AffineExpr(5)));
  V.add({G1, var("n")});
  V.add({G2, QuasiPolynomial(rat(100))});
  EXPECT_EQ(V.evaluate({{"n", BigInt(0)}}), rat(0));
  EXPECT_EQ(V.evaluate({{"n", BigInt(3)}}), rat(3));
  EXPECT_EQ(V.evaluate({{"n", BigInt(7)}}), rat(107));
  EXPECT_EQ(V.evaluateInt({{"n", BigInt(7)}}).toInt64(), 107);
}

TEST(PiecewiseValueTest, MergeSyntactic) {
  PiecewiseValue V;
  Conjunct G;
  G.add(Constraint::ge(AffineExpr::variable("n")));
  V.add({G, var("n")});
  V.add({G, var("n") * rat(-1)});
  V.add({G, QuasiPolynomial(rat(2))});
  V.mergeSyntactic();
  ASSERT_EQ(V.pieces().size(), 1u);
  EXPECT_EQ(V.pieces()[0].Value, QuasiPolynomial(rat(2)));
}

TEST(PiecewiseValueTest, UnboundedAndPrinting) {
  EXPECT_TRUE(PiecewiseValue::unbounded().isUnbounded());
  EXPECT_EQ(PiecewiseValue::unbounded().toString(), "<unbounded>");
  EXPECT_EQ(PiecewiseValue().toString(), "0");
  PiecewiseValue V(QuasiPolynomial(rat(5)));
  EXPECT_EQ(V.toString(), "(5)");
  V *= rat(2);
  EXPECT_EQ(V.evaluate({}), rat(10));
}

} // namespace
