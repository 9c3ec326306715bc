//===- tests/CountingTest.cpp - Symbolic summation vs enumeration --------===//

#include "counting/Summation.h"

#include "presburger/Parser.h"

#include <gtest/gtest.h>

#include <random>

using namespace omega;

namespace {

QuasiPolynomial qvar(const char *N) { return QuasiPolynomial::variable(N); }
Rational rat(long long N, long long D = 1) {
  return Rational(BigInt(N), BigInt(D));
}
QuasiPolynomial one() { return QuasiPolynomial(rat(1)); }

/// Brute-force oracle: sums X over all assignments of Vars in [Lo, Hi]^k
/// satisfying the (quantifier-bearing) formula F at the given symbol
/// values; quantified variables are searched in [WLo, WHi].
Rational enumerate(const Formula &F, const std::vector<std::string> &Vars,
                   Assignment Syms, const QuasiPolynomial &X, int64_t Lo,
                   int64_t Hi, int64_t WLo, int64_t WHi) {
  struct Rec {
    int64_t WLo, WHi;
    bool eval(const Formula &F, Assignment &A) {
      switch (F.kind()) {
      case FormulaKind::True:
        return true;
      case FormulaKind::False:
        return false;
      case FormulaKind::Atom:
        return F.constraint().holds(A);
      case FormulaKind::And:
        for (const Formula &C : F.children())
          if (!eval(C, A))
            return false;
        return true;
      case FormulaKind::Or:
        for (const Formula &C : F.children())
          if (eval(C, A))
            return true;
        return false;
      case FormulaKind::Not:
        return !eval(F.children()[0], A);
      case FormulaKind::Exists:
      case FormulaKind::Forall: {
        std::vector<VarId> Qs(F.quantified().begin(), F.quantified().end());
        bool IsEx = F.kind() == FormulaKind::Exists;
        std::vector<int64_t> Vals(Qs.size(), WLo);
        bool Result = !IsEx;
        while (true) {
          for (size_t I = 0; I < Qs.size(); ++I)
            A[Qs[I]] = BigInt(Vals[I]);
          bool B = eval(F.body(), A);
          if (IsEx && B) {
            Result = true;
            break;
          }
          if (!IsEx && !B) {
            Result = false;
            break;
          }
          size_t I = 0;
          while (I < Vals.size() && ++Vals[I] > WHi)
            Vals[I++] = WLo;
          if (I == Vals.size())
            break;
        }
        for (VarId Q : Qs)
          A.erase(Q);
        return Result;
      }
      }
      return false;
    }
  } R{WLo, WHi};

  Rational Sum(0);
  std::vector<int64_t> Vals(Vars.size(), Lo);
  while (true) {
    Assignment A = Syms;
    for (size_t I = 0; I < Vars.size(); ++I)
      A[Vars[I]] = BigInt(Vals[I]);
    if (R.eval(F, A))
      Sum += X.evaluate(A);
    size_t I = 0;
    while (I < Vals.size() && ++Vals[I] > Hi)
      Vals[I++] = Lo;
    if (I == Vals.size() || Vars.empty())
      break;
  }
  return Sum;
}

TEST(CountingTest, IntroTableConstantRange) {
  // (Σ i : 1 <= i <= 10 : 1) = 10.
  PiecewiseValue V =
      countSolutions(parseFormulaOrDie("1 <= i <= 10"), {"i"}).Value;
  EXPECT_EQ(V.evaluate({}), rat(10));
}

TEST(CountingTest, IntroTableSymbolicCount) {
  // (Σ i : 1 <= i <= n : 1) = (n if n >= 1).
  PiecewiseValue V =
      countSolutions(parseFormulaOrDie("1 <= i <= n"), {"i"}).Value;
  for (int64_t N = -3; N <= 10; ++N)
    EXPECT_EQ(V.evaluate({{"n", BigInt(N)}}), rat(std::max<int64_t>(0, N)))
        << N;
}

TEST(CountingTest, IntroTableSum) {
  // (Σ i : 1 <= i <= n : i) = n(n+1)/2 guarded by n >= 1.
  PiecewiseValue V =
      sumPolynomial(parseFormulaOrDie("1 <= i <= n"), {"i"}, qvar("i")).Value;
  for (int64_t N = -3; N <= 10; ++N) {
    int64_t Expected = N >= 1 ? N * (N + 1) / 2 : 0;
    EXPECT_EQ(V.evaluate({{"n", BigInt(N)}}), rat(Expected)) << N;
  }
}

TEST(CountingTest, IntroTableSquare) {
  // (Σ i,j : 1 <= i,j <= n : 1) = n².
  PiecewiseValue V =
      countSolutions(parseFormulaOrDie("1 <= i,j <= n"), {"i", "j"}).Value;
  for (int64_t N = 0; N <= 8; ++N)
    EXPECT_EQ(V.evaluate({{"n", BigInt(N)}}), rat(N * N)) << N;
}

TEST(CountingTest, IntroTableTriangle) {
  // (Σ i,j : 1 <= i < j <= n : 1) = n(n-1)/2 for n >= 2.
  PiecewiseValue V =
      countSolutions(parseFormulaOrDie("1 <= i && i < j && j <= n"),
                     {"i", "j"}).Value;
  for (int64_t N = 0; N <= 9; ++N)
    EXPECT_EQ(V.evaluate({{"n", BigInt(N)}}), rat(N * (N - 1) / 2)) << N;
}

TEST(CountingTest, MathematicaPitfall) {
  // Σ_{i=1}^n Σ_{j=i}^m 1: Mathematica's n(2m-n+1)/2 is wrong for m < n;
  // ours must be right on both regions.
  Formula F = parseFormulaOrDie("1 <= i <= n && i <= j <= m");
  PiecewiseValue V = countSolutions(F, {"i", "j"}).Value;
  for (int64_t N = 0; N <= 7; ++N)
    for (int64_t M = 0; M <= 7; ++M) {
      int64_t Expected = 0;
      for (int64_t I = 1; I <= N; ++I)
        Expected += std::max<int64_t>(0, M - I + 1);
      EXPECT_EQ(V.evaluate({{"n", BigInt(N)}, {"m", BigInt(M)}}),
                rat(Expected))
          << N << "," << M;
    }
}

TEST(CountingTest, PolynomialSummand) {
  // Σ_{i=1}^{n} i² and Σ_{1<=i<=j<=n} i*j against enumeration.
  Formula F1 = parseFormulaOrDie("1 <= i <= n");
  PiecewiseValue V1 = sumPolynomial(F1, {"i"}, qvar("i") * qvar("i")).Value;
  Formula F2 = parseFormulaOrDie("1 <= i <= j <= n");
  PiecewiseValue V2 =
      sumPolynomial(F2, {"i", "j"}, qvar("i") * qvar("j")).Value;
  for (int64_t N = 0; N <= 8; ++N) {
    Assignment S{{"n", BigInt(N)}};
    EXPECT_EQ(V1.evaluate(S),
              enumerate(F1, {"i"}, S, qvar("i") * qvar("i"), -1, 10, 0, 0))
        << N;
    EXPECT_EQ(V2.evaluate(S), enumerate(F2, {"i", "j"}, S,
                                        qvar("i") * qvar("j"), -1, 10, 0, 0))
        << N;
  }
}

TEST(CountingTest, Example6PaperResult) {
  // §6 Example 6: (Σ i,j : 1 <= i, j <= n ∧ 2i <= 3j : 1)
  //             = (3n² + 2n - n mod 2) / 4 for n >= 1.
  Formula F = parseFormulaOrDie("1 <= i && 1 <= j && j <= n && 2*i <= 3*j");
  PiecewiseValue V = countSolutions(F, {"i", "j"}).Value;
  for (int64_t N = 0; N <= 12; ++N) {
    int64_t Expected = (3 * N * N + 2 * N - (N % 2)) / 4;
    if (N < 1)
      Expected = 0;
    EXPECT_EQ(V.evaluate({{"n", BigInt(N)}}), rat(Expected)) << "n=" << N;
  }
}

TEST(CountingTest, StrideCounting) {
  // (Σ x : 1 <= x <= n ∧ 2 | x : 1) = floor(n/2).
  Formula F = parseFormulaOrDie("1 <= x <= n && 2 | x");
  for (BoundStrategy Strat :
       {BoundStrategy::Splinter, BoundStrategy::SymbolicMod}) {
    CountOptions Opts;
    Opts.Strategy = Strat;
    PiecewiseValue V = countSolutions(F, {"x"}, Opts).Value;
    for (int64_t N = -1; N <= 12; ++N)
      EXPECT_EQ(V.evaluate({{"n", BigInt(N)}}),
                rat(std::max<int64_t>(0, N / 2)))
          << "n=" << N << " strat=" << int(Strat);
  }
}

TEST(CountingTest, ProjectedCount) {
  // §6 Example 4 shape: x = 6i + 9j - 7 with loop bounds has 25 distinct
  // values.
  Formula F = parseFormulaOrDie(
      "exists(i, j: 1 <= i <= 8 && 1 <= j <= 5 && x = 6*i + 9*j - 7)");
  PiecewiseValue V = countSolutions(F, {"x"}).Value;
  EXPECT_EQ(V.evaluate({}), rat(25));
}

TEST(CountingTest, RationalBoundStrategies) {
  // Σ_{i=1}^{floor(n/3)} i (§4.2.1's running example).
  Formula F = parseFormulaOrDie("1 <= 3*i && 3*i <= n");
  auto Truth = [](int64_t N) {
    int64_t U = N >= 0 ? N / 3 : 0;
    return rat(U * (U + 1) / 2);
  };
  for (BoundStrategy Strat :
       {BoundStrategy::Splinter, BoundStrategy::SymbolicMod}) {
    CountOptions Opts;
    Opts.Strategy = Strat;
    PiecewiseValue V = sumPolynomial(F, {"i"}, qvar("i"), Opts).Value;
    for (int64_t N = 0; N <= 15; ++N)
      EXPECT_EQ(V.evaluate({{"n", BigInt(N)}}), Truth(N))
          << "n=" << N << " strat=" << int(Strat);
  }
  // Bounds bracket the truth.
  CountOptions UpOpts, LoOpts;
  UpOpts.Strategy = BoundStrategy::UpperBound;
  LoOpts.Strategy = BoundStrategy::LowerBound;
  PiecewiseValue Up = sumPolynomial(F, {"i"}, qvar("i"), UpOpts).Value;
  PiecewiseValue Lo = sumPolynomial(F, {"i"}, qvar("i"), LoOpts).Value;
  for (int64_t N = 0; N <= 15; ++N) {
    EXPECT_GE(Up.evaluate({{"n", BigInt(N)}}), Truth(N)) << N;
    EXPECT_LE(Lo.evaluate({{"n", BigInt(N)}}), Truth(N)) << N;
  }
  // The paper's §4.2.1 closed forms at n >= 3:
  // lower (n-2)(n+1)/18, upper n(n+3)/18.
  for (int64_t N = 3; N <= 15; ++N) {
    EXPECT_EQ(Up.evaluate({{"n", BigInt(N)}}), rat(N * (N + 3), 18)) << N;
    EXPECT_EQ(Lo.evaluate({{"n", BigInt(N)}}), rat((N - 2) * (N + 1), 18))
        << N;
  }
}

TEST(CountingTest, Example1TawbiLoop) {
  // §6 Example 1: Σ_{i=1}^n Σ_{j=1}^i Σ_{k=j}^m 1.
  Formula F =
      parseFormulaOrDie("1 <= i <= n && 1 <= j <= i && j <= k <= m");
  PiecewiseValue V = countSolutions(F, {"i", "j", "k"}).Value;
  for (int64_t N = 0; N <= 6; ++N)
    for (int64_t M = 0; M <= 6; ++M) {
      int64_t Expected = 0;
      for (int64_t I = 1; I <= N; ++I)
        for (int64_t J = 1; J <= I; ++J)
          Expected += std::max<int64_t>(0, M - J + 1);
      EXPECT_EQ(V.evaluate({{"n", BigInt(N)}, {"m", BigInt(M)}}),
                rat(Expected))
          << N << "," << M;
    }
}

TEST(CountingTest, Example2HaghighatLoop) {
  // §6 Example 2: Σ_{i=1}^n Σ_{j=3}^i Σ_{k=j}^5 1 = 6n - 16 for n >= 5.
  Formula F =
      parseFormulaOrDie("1 <= i <= n && 3 <= j <= i && j <= k <= 5");
  PiecewiseValue V = countSolutions(F, {"i", "j", "k"}).Value;
  for (int64_t N = 0; N <= 12; ++N) {
    int64_t Expected = 0;
    for (int64_t I = 1; I <= N; ++I)
      for (int64_t J = 3; J <= I; ++J)
        Expected += std::max<int64_t>(0, 5 - J + 1);
    EXPECT_EQ(V.evaluate({{"n", BigInt(N)}}), rat(Expected)) << N;
    if (N >= 5)
      EXPECT_EQ(Expected, 6 * N - 16) << N;
  }
}

TEST(CountingTest, Example3MinLoop) {
  // §6 Example 3: (Σ i,j : 1 <= i <= 2n ∧ 1 <= j <= i ∧ i + j <= 2n) = n².
  Formula F = parseFormulaOrDie(
      "1 <= i <= 2*n && 1 <= j <= i && i + j <= 2*n");
  PiecewiseValue V = countSolutions(F, {"i", "j"}).Value;
  for (int64_t N = 0; N <= 8; ++N)
    EXPECT_EQ(V.evaluate({{"n", BigInt(N)}}), rat(N * N)) << N;
}

TEST(CountingTest, UnboundedDetection) {
  EXPECT_TRUE(countSolutions(parseFormulaOrDie("x >= 1"), {"x"})
                  .Value.isUnbounded());
  EXPECT_TRUE(countSolutions(parseFormulaOrDie("1 <= y <= 5"), {"x", "y"})
                  .Value.isUnbounded());
  EXPECT_FALSE(countSolutions(parseFormulaOrDie("1 <= x <= 5"), {"x"})
                   .Value.isUnbounded());
}

TEST(CountingTest, DisjunctionCountedOnce) {
  // Overlapping clauses must not double-count (§4.5.1).
  Formula F = parseFormulaOrDie(
      "(1 <= x <= 10 && 2 | x) || (1 <= x <= 10 && 3 | x)");
  PiecewiseValue V = countSolutions(F, {"x"}).Value;
  EXPECT_EQ(V.evaluate({}), rat(7)); // {2,3,4,6,8,9,10}.
}

TEST(CountingTest, NegationCount) {
  Formula F = parseFormulaOrDie("1 <= x <= 20 && !(3 | x) && !(x = 7)");
  PiecewiseValue V = countSolutions(F, {"x"}).Value;
  // 20 - 6 (multiples of 3) - 1 (x=7, not a multiple of 3) = 13.
  EXPECT_EQ(V.evaluate({}), rat(13));
}

TEST(CountingTest, SumOverStriddenVar) {
  // Σ_{x even, 2 <= x <= n} x = 2 + 4 + ... against enumeration.
  Formula F = parseFormulaOrDie("2 <= x <= n && 2 | x");
  PiecewiseValue V = sumPolynomial(F, {"x"}, qvar("x")).Value;
  for (int64_t N = 0; N <= 13; ++N) {
    int64_t Expected = 0;
    for (int64_t X = 2; X <= N; X += 2)
      Expected += X;
    EXPECT_EQ(V.evaluate({{"n", BigInt(N)}}), rat(Expected)) << N;
  }
}

TEST(CountingTest, EqualityCoupling) {
  // Count (i, j) with i = j and bounds: diagonal.
  Formula F = parseFormulaOrDie("1 <= i <= n && 1 <= j <= n && i = j");
  PiecewiseValue V = countSolutions(F, {"i", "j"}).Value;
  for (int64_t N = 0; N <= 8; ++N)
    EXPECT_EQ(V.evaluate({{"n", BigInt(N)}}), rat(std::max<int64_t>(0, N)))
        << N;
}

TEST(CountingTest, HPFBlockCyclicMapping) {
  // §3.3: t = l + 4p + 32c, 0 <= l <= 3, 0 <= p <= 7, 0 <= t <= 1023:
  // each processor owns 128 template cells.
  Formula F = parseFormulaOrDie("exists(l, c: t = l + 4*p + 32*c && "
                                "0 <= l <= 3 && 0 <= c && 0 <= t <= 1023)");
  PiecewiseValue V = countSolutions(F, {"t"}).Value;
  for (int64_t P = 0; P <= 7; ++P)
    EXPECT_EQ(V.evaluate({{"p", BigInt(P)}}), rat(128)) << "p=" << P;
}

TEST(CountingTest, RandomClausesAgainstEnumeration) {
  std::mt19937_64 Rng(4242);
  int Done = 0;
  for (int Trial = 0; Trial < 200 && Done < 60; ++Trial) {
    // Random conjunct over counted (x, y) and symbol n.
    Conjunct C;
    auto RC = [&] { return BigInt(int64_t(Rng() % 7) - 3); };
    unsigned NumCons = 2 + Rng() % 3;
    for (unsigned I = 0; I < NumCons; ++I) {
      AffineExpr E = RC() * AffineExpr::variable("x") +
                     RC() * AffineExpr::variable("y") +
                     RC() * AffineExpr::variable("n") + AffineExpr(RC());
      C.add(Constraint::ge(E));
    }
    // Bound the counted box so the count is finite.
    for (const char *V : {"x", "y"}) {
      C.add(Constraint::ge(AffineExpr::variable(V) + AffineExpr(5)));
      C.add(Constraint::ge(AffineExpr(5) - AffineExpr::variable(V)));
    }
    if (Rng() % 2)
      C.add(Constraint::stride(BigInt(2 + Rng() % 3),
                               AffineExpr::variable("x") +
                                   AffineExpr::variable("n")));
    Formula F = Formula::fromConjunct(C);
    PiecewiseValue V = countSolutions(F, {"x", "y"}).Value;
    if (V.isUnbounded())
      continue;
    ++Done;
    for (int64_t N = -3; N <= 3; ++N) {
      Assignment S{{"n", BigInt(N)}};
      Rational Truth = enumerate(F, {"x", "y"}, S, one(), -5, 5, 0, 0);
      EXPECT_EQ(V.evaluate(S), Truth) << "trial " << Trial << " n=" << N;
    }
  }
  EXPECT_GE(Done, 30);
}

TEST(CountingTest, RandomPolynomialSums) {
  std::mt19937_64 Rng(777);
  for (int Trial = 0; Trial < 30; ++Trial) {
    int64_t A = 1 + int64_t(Rng() % 3);
    int64_t B = 1 + int64_t(Rng() % 3);
    std::string Text = "1 <= " + std::to_string(A) + "*i && " +
                       std::to_string(B) + "*i <= n";
    Formula F = parseFormulaOrDie(Text);
    unsigned Deg = Rng() % 4;
    QuasiPolynomial X = QuasiPolynomial::pow(qvar("i"), Deg);
    PiecewiseValue V = sumPolynomial(F, {"i"}, X).Value;
    for (int64_t N = 0; N <= 14; ++N) {
      Assignment S{{"n", BigInt(N)}};
      Rational Truth = enumerate(F, {"i"}, S, X, -1, 20, 0, 0);
      EXPECT_EQ(V.evaluate(S), Truth)
          << "trial " << Trial << " a=" << A << " b=" << B << " d=" << Deg
          << " n=" << N;
    }
  }
}

} // namespace
