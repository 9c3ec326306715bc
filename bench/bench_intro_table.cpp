//===- bench/bench_intro_table.cpp - X1/X2: the §1 summation table -------===//
//
// Reproduces the paper's introductory table of simple symbolic summations
// and the Mathematica-pitfall comparison, then times the engine on them.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"

#include "baselines/FixedOrderSum.h"
#include "counting/Summation.h"
#include "presburger/Parser.h"

using namespace omega;

namespace {

void report() {
  reportHeader("X1", "intro table of simple summations (§1)");
  {
    PiecewiseValue V = countSolutions(parseFormulaOrDie("1 <= i <= 10"),
                                      {"i"}).Value;
    reportRow("(Σ i : 1<=i<=10 : 1)", "10", V.evaluateInt({}).toString());
  }
  {
    PiecewiseValue V = countSolutions(parseFormulaOrDie("1 <= i <= n"),
                                      {"i"}).Value;
    reportRow("(Σ i : 1<=i<=n : 1), symbolic", "(n if n>=1)", V.toString());
  }
  {
    PiecewiseValue V = sumPolynomial(parseFormulaOrDie("1 <= i <= n"), {"i"},
                                     QuasiPolynomial::variable("i"))
                           .Value;
    reportRow("(Σ i : 1<=i<=n : i) at n=10", "55",
              V.evaluateInt({{"n", BigInt(10)}}).toString());
    reportRow("  symbolic", "(n(n+1)/2 if n>=1)", V.toString());
  }
  {
    PiecewiseValue V = countSolutions(parseFormulaOrDie("1 <= i,j <= n"),
                                      {"i", "j"}).Value;
    reportRow("(Σ i,j : 1<=i,j<=n : 1), symbolic", "(n^2 if n>=1)",
              V.toString());
  }
  {
    PiecewiseValue V = countSolutions(
        parseFormulaOrDie("1 <= i && i < j && j <= n"), {"i", "j"}).Value;
    reportRow("(Σ i,j : 1<=i<j<=n : 1) at n=7", "21",
              V.evaluateInt({{"n", BigInt(7)}}).toString());
    reportRow("  symbolic", "(n(n-1)/2 if n>=2)", V.toString());
  }

  reportHeader("X2", "the Mathematica pitfall (§1)");
  Formula F = parseFormulaOrDie("1 <= i <= n && i <= j <= m");
  PiecewiseValue Ours = countSolutions(F, {"i", "j"}).Value;
  Conjunct C;
  C.add(Constraint::ge(AffineExpr::variable("i") - AffineExpr(1)));
  C.add(Constraint::ge(AffineExpr::variable("n") -
                       AffineExpr::variable("i")));
  C.add(Constraint::ge(AffineExpr::variable("j") -
                       AffineExpr::variable("i")));
  C.add(Constraint::ge(AffineExpr::variable("m") -
                       AffineExpr::variable("j")));
  QuasiPolynomial Naive =
      naiveClosedFormSum(C, {"j", "i"}, QuasiPolynomial(Rational(1)));
  reportRow("naive closed form (matches Mathematica)", "n(2m-n+1)/2",
            Naive.toString());
  Assignment Good{{"n", BigInt(3)}, {"m", BigInt(5)}};
  Assignment Bad{{"n", BigInt(5)}, {"m", BigInt(3)}};
  reportRow("1<=n<=m region (n=3,m=5): truth 12; naive", "12",
            Naive.evaluate(Good).toString());
  reportRow("  ours", "12", Ours.evaluate(Good).toString());
  reportRow("1<=m<n region (n=5,m=3): truth is 6; naive formula gives",
            "5 (wrong)", Naive.evaluate(Bad).toString());
  reportRow("  ours", "6", Ours.evaluate(Bad).toString());
  reportRow("our piecewise answer", "-", Ours.toString());
}

void BM_CountTriangle(benchmark::State &State) {
  Formula F = parseFormulaOrDie("1 <= i && i < j && j <= n");
  for (auto _ : State) {
    PiecewiseValue V = countSolutions(F, {"i", "j"}).Value;
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_CountTriangle);

void BM_CountPitfall(benchmark::State &State) {
  Formula F = parseFormulaOrDie("1 <= i <= n && i <= j <= m");
  for (auto _ : State) {
    PiecewiseValue V = countSolutions(F, {"i", "j"}).Value;
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_CountPitfall);

void BM_EvaluateSymbolicAnswer(benchmark::State &State) {
  Formula F = parseFormulaOrDie("1 <= i <= n && i <= j <= m");
  PiecewiseValue V = countSolutions(F, {"i", "j"}).Value;
  Assignment A{{"n", BigInt(1000)}, {"m", BigInt(777)}};
  for (auto _ : State) {
    Rational R = V.evaluate(A);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_EvaluateSymbolicAnswer);

} // namespace

OMEGA_BENCH_MAIN(report)
