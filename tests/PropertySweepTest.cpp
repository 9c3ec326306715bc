//===- tests/PropertySweepTest.cpp - Parameterized property sweeps -------===//
//
// TEST_P sweeps over the engine's main knobs: shadow modes, bound
// strategies, coefficient ranges, moduli, and dimensions — every sweep is
// validated against a brute-force enumeration oracle.
//
//===----------------------------------------------------------------------===//

#include "baselines/Enumerator.h"
#include "counting/Summation.h"
#include "presburger/Parser.h"

#include <gtest/gtest.h>

#include <random>

using namespace omega;

namespace {

AffineExpr var(const std::string &N) { return AffineExpr::variable(N); }

//===----------------------------------------------------------------------===//
// Sweep 1: projection modes x random clause shapes.
//===----------------------------------------------------------------------===//

struct ProjectionParam {
  ShadowMode Mode;
  unsigned Seed;
  friend std::ostream &operator<<(std::ostream &OS,
                                  const ProjectionParam &P) {
    return OS << "mode" << int(P.Mode) << "_seed" << P.Seed;
  }
};

class ProjectionSweep : public ::testing::TestWithParam<ProjectionParam> {};

TEST_P(ProjectionSweep, ExactOrDirectional) {
  ProjectionParam Param = GetParam();
  std::mt19937_64 Rng(Param.Seed);
  for (int Trial = 0; Trial < 12; ++Trial) {
    Conjunct C;
    auto RC = [&] { return BigInt(int64_t(Rng() % 9) - 4); };
    unsigned NumCons = 2 + Rng() % 3;
    for (unsigned I = 0; I < NumCons; ++I)
      C.add(Constraint::ge(RC() * var("x") + RC() * var("y") +
                           RC() * var("z") + AffineExpr(RC() * 2)));
    for (const char *V : {"x", "y", "z"}) {
      C.add(Constraint::ge(var(V) + AffineExpr(5)));
      C.add(Constraint::ge(AffineExpr(5) - var(V)));
    }
    std::vector<Conjunct> R = projectVars(C, {"y", "z"}, Param.Mode);
    if (Param.Mode == ShadowMode::Disjoint)
      EXPECT_TRUE(pairwiseDisjoint(R));
    for (int64_t X = -6; X <= 6; ++X) {
      bool Truth = false;
      for (int64_t Y = -5; Y <= 5 && !Truth; ++Y)
        for (int64_t Z = -5; Z <= 5 && !Truth; ++Z)
          Truth = C.contains(
              {{"x", BigInt(X)}, {"y", BigInt(Y)}, {"z", BigInt(Z)}});
      bool Got = false;
      for (const Conjunct &Cl : R)
        Got = Got || containsPoint(Cl, {{"x", BigInt(X)}});
      switch (Param.Mode) {
      case ShadowMode::Exact:
      case ShadowMode::Disjoint:
        EXPECT_EQ(Got, Truth) << "trial " << Trial << " x=" << X;
        break;
      case ShadowMode::Real: // Over-approximation.
        if (Truth)
          EXPECT_TRUE(Got) << "trial " << Trial << " x=" << X;
        break;
      case ShadowMode::Dark: // Under-approximation.
        if (Got)
          EXPECT_TRUE(Truth) << "trial " << Trial << " x=" << X;
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ProjectionSweep,
    ::testing::Values(ProjectionParam{ShadowMode::Exact, 11},
                      ProjectionParam{ShadowMode::Exact, 12},
                      ProjectionParam{ShadowMode::Disjoint, 11},
                      ProjectionParam{ShadowMode::Disjoint, 13},
                      ProjectionParam{ShadowMode::Real, 11},
                      ProjectionParam{ShadowMode::Dark, 11}),
    [](const ::testing::TestParamInfo<ProjectionParam> &Info) {
      std::ostringstream OS;
      OS << Info.param;
      return OS.str();
    });

//===----------------------------------------------------------------------===//
// Sweep 2: bound strategies x divisor pairs on Σ_{a*i>=1, b*i<=n} i^d.
//===----------------------------------------------------------------------===//

struct StrategyParam {
  BoundStrategy Strategy;
  int A, B;
  unsigned Degree;
};

class StrategySweep : public ::testing::TestWithParam<StrategyParam> {};

TEST_P(StrategySweep, ExactStrategiesMatchOracleBoundsBracket) {
  StrategyParam P = GetParam();
  std::string Text = std::to_string(P.A) + "*i >= 1 && " +
                     std::to_string(P.B) + "*i <= n";
  Formula F = parseFormulaOrDie(Text);
  QuasiPolynomial X = QuasiPolynomial::pow(QuasiPolynomial::variable("i"),
                                           P.Degree);
  CountOptions Opts;
  Opts.Strategy = P.Strategy;
  PiecewiseValue V = sumPolynomial(F, {"i"}, X, Opts).Value;
  ASSERT_FALSE(V.isUnbounded());
  for (int64_t N = 0; N <= 25; ++N) {
    Assignment S{{"n", BigInt(N)}};
    Rational Truth = enumerateSum(F, {"i"}, S, X, -1, 30, 0, 0);
    Rational Got = V.evaluate(S);
    switch (P.Strategy) {
    case BoundStrategy::Splinter:
    case BoundStrategy::SymbolicMod:
      EXPECT_EQ(Got, Truth) << "n=" << N;
      break;
    case BoundStrategy::UpperBound:
      EXPECT_GE(Got, Truth) << "n=" << N;
      break;
    case BoundStrategy::LowerBound:
      EXPECT_LE(Got, Truth) << "n=" << N;
      break;
    case BoundStrategy::Approximate:
      break; // Between the bounds by construction; nothing sharp to check.
    }
  }
}

std::vector<StrategyParam> strategyGrid() {
  std::vector<StrategyParam> Out;
  for (BoundStrategy S :
       {BoundStrategy::Splinter, BoundStrategy::SymbolicMod,
        BoundStrategy::UpperBound, BoundStrategy::LowerBound})
    for (int A : {1, 2})
      for (int B : {2, 3, 5})
        for (unsigned D : {0u, 1u, 2u})
          Out.push_back({S, A, B, D});
  return Out;
}

INSTANTIATE_TEST_SUITE_P(Grid, StrategySweep,
                         ::testing::ValuesIn(strategyGrid()));

//===----------------------------------------------------------------------===//
// Sweep 3: stride moduli x range offsets for counting.
//===----------------------------------------------------------------------===//

struct StrideParam {
  int Mod;
  int Residue;
};

class StrideSweep : public ::testing::TestWithParam<StrideParam> {};

TEST_P(StrideSweep, CountStriddenRange) {
  StrideParam P = GetParam();
  std::string Text = "1 <= x <= n && " + std::to_string(P.Mod) + " | x - " +
                     std::to_string(P.Residue);
  Formula F = parseFormulaOrDie(Text);
  PiecewiseValue V = countSolutions(F, {"x"}).Value;
  for (int64_t N = 0; N <= 3 * P.Mod + 4; ++N) {
    int64_t Expected = 0;
    for (int64_t X = 1; X <= N; ++X)
      if ((X - P.Residue) % P.Mod == 0)
        ++Expected;
    EXPECT_EQ(V.evaluate({{"n", BigInt(N)}}), Rational(BigInt(Expected)))
        << "n=" << N;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModGrid, StrideSweep,
    ::testing::Values(StrideParam{2, 0}, StrideParam{2, 1},
                      StrideParam{3, 0}, StrideParam{3, 2},
                      StrideParam{5, 1}, StrideParam{7, 3},
                      StrideParam{12, 5}));

//===----------------------------------------------------------------------===//
// Sweep 4: Faulhaber degree x range shape (negative and mixed ranges).
//===----------------------------------------------------------------------===//

class DegreeSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(DegreeSweep, SumOverShiftedRange) {
  unsigned D = GetParam();
  // Σ_{i=-n}^{n} i^d: odd powers cancel, even powers double.
  Formula F = parseFormulaOrDie("0 - n <= i && i <= n");
  QuasiPolynomial X =
      QuasiPolynomial::pow(QuasiPolynomial::variable("i"), D);
  PiecewiseValue V = sumPolynomial(F, {"i"}, X).Value;
  for (int64_t N = 0; N <= 9; ++N) {
    BigInt Expected(0);
    for (int64_t I = -N; I <= N; ++I)
      Expected += BigInt::pow(BigInt(I), D);
    EXPECT_EQ(V.evaluate({{"n", BigInt(N)}}), Rational(Expected))
        << "n=" << N;
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, DegreeSweep,
                         ::testing::Range(0u, 8u));

//===----------------------------------------------------------------------===//
// Sweep 5: random guarded loop nests (steps, guards, min/max) vs oracle.
//===----------------------------------------------------------------------===//

class NestSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(NestSweep, RandomNestCounts) {
  std::mt19937_64 Rng(GetParam());
  for (int Trial = 0; Trial < 6; ++Trial) {
    // Build a random 2-level nest over symbol n.
    int64_t Step = 1 + int64_t(Rng() % 3);
    int64_t C1 = int64_t(Rng() % 3);
    std::string Text = "1 <= i <= n && " + std::to_string(Step) +
                       " | i - 1 && 1 <= j && j <= i + " +
                       std::to_string(C1);
    if (Rng() % 2)
      Text += " && j <= n";
    if (Rng() % 2)
      Text += " && i + j <= n + " + std::to_string(int64_t(Rng() % 4));
    Formula F = parseFormulaOrDie(Text);
    PiecewiseValue V = countSolutions(F, {"i", "j"}).Value;
    ASSERT_FALSE(V.isUnbounded()) << Text;
    for (int64_t N = 0; N <= 9; ++N) {
      Assignment S{{"n", BigInt(N)}};
      BigInt Truth = enumerateCount(F, {"i", "j"}, S, -1, 16, 0, 0);
      EXPECT_EQ(V.evaluate(S), Rational(Truth))
          << Text << " at n=" << N;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NestSweep,
                         ::testing::Values(101u, 202u, 303u, 404u));

} // namespace
