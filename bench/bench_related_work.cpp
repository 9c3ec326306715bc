//===- bench/bench_related_work.cpp - X7/X8/X9: §6 Examples 1-3 ----------===//
//
// The paper's head-to-head examples against Tawbi [TF92/Taw94] and
// Haghighat-Polychronopoulos [HP93a]:
//   Example 1: our free-order engine needs 2 terms; Tawbi's fixed order
//              with polyhedral splitting needs 3.
//   Example 2: Σ = 6n - 16 for n >= 5, plus a small-n piece (H-P take 9
//              steps; our engine: eliminate redundant constraint, then 3
//              single-bound sums, one split).
//   Example 3: Σ = n² (H-P take 15 steps).
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"

#include "baselines/FixedOrderSum.h"
#include "counting/Summation.h"
#include "presburger/Parser.h"

using namespace omega;

namespace {

Conjunct example1Clause() {
  Conjunct C;
  AffineExpr I = AffineExpr::variable("i"), J = AffineExpr::variable("j"),
             K = AffineExpr::variable("k"), N = AffineExpr::variable("n"),
             M = AffineExpr::variable("m");
  C.add(Constraint::ge(I - AffineExpr(1)));
  C.add(Constraint::ge(N - I));
  C.add(Constraint::ge(J - AffineExpr(1)));
  C.add(Constraint::ge(I - J));
  C.add(Constraint::ge(K - J));
  C.add(Constraint::ge(M - K));
  return C;
}

void report() {
  reportHeader("X7", "Example 1: vs Tawbi's fixed-order algorithm");
  Formula F1 =
      parseFormulaOrDie("1 <= i <= n && 1 <= j <= i && j <= k <= m");
  PiecewiseValue Ours = countSolutions(F1, {"i", "j", "k"}).Value;
  BaselineSumResult Tawbi = fixedOrderSum(example1Clause(), {"k", "j", "i"},
                                          QuasiPolynomial(Rational(1)));
  reportRow("our terms", "2", std::to_string(Ours.pieces().size()));
  // Tawbi's upfront polyhedral split yields 3 terms; our lazy per-level
  // reimplementation of her splitting over-splits slightly (see
  // EXPERIMENTS.md) — the comparison point is fixed-order > free-order.
  reportRow("fixed-order (Tawbi) terms", "3 (her exact algorithm)",
            std::to_string(Tawbi.NumTerms));
  reportRow("our symbolic answer", "-", Ours.toString());
  bool Agree = true;
  for (int64_t N = 0; N <= 6 && Agree; ++N)
    for (int64_t M = 0; M <= 6 && Agree; ++M) {
      Assignment A{{"n", BigInt(N)}, {"m", BigInt(M)}};
      Agree = Ours.evaluate(A) == Tawbi.Value.evaluate(A);
    }
  reportRow("values agree with baseline on grid", "yes",
            Agree ? "yes" : "no");

  reportHeader("X8", "Example 2: vs Haghighat-Polychronopoulos");
  Formula F2 =
      parseFormulaOrDie("1 <= i <= n && 3 <= j <= i && j <= k <= 5");
  PiecewiseValue V2 = countSolutions(F2, {"i", "j", "k"}).Value;
  reportRow("symbolic answer", "(6n - 16 if n>=5) + small-n piece",
            V2.toString());
  reportRow("value at n=10", "44",
            V2.evaluateInt({{"n", BigInt(10)}}).toString());
  reportRow("value at n=4", "(5n-12 at n=4) = 8",
            V2.evaluateInt({{"n", BigInt(4)}}).toString());
  reportRow("H-P steps for this example (their algorithm)", "9",
            "ours: single pass, " + std::to_string(V2.pieces().size()) +
                " terms");

  reportHeader("X9", "Example 3: the min(i, 2n - j) loop");
  Formula F3 = parseFormulaOrDie(
      "1 <= i <= 2*n && 1 <= j <= i && i + j <= 2*n");
  PiecewiseValue V3 = countSolutions(F3, {"i", "j"}).Value;
  reportRow("symbolic answer", "(n^2 if n>=1)", V3.toString());
  bool IsSquare = true;
  for (int64_t N = 0; N <= 12; ++N)
    IsSquare = IsSquare &&
               V3.evaluate({{"n", BigInt(N)}}) == Rational(BigInt(N * N));
  reportRow("equals n² on 0..12", "yes", IsSquare ? "yes" : "no");
  reportRow("H-P steps for this example (their algorithm)", "15",
            "ours: single pass, " + std::to_string(V3.pieces().size()) +
                " terms");
}

void BM_Example1Ours(benchmark::State &State) {
  Formula F =
      parseFormulaOrDie("1 <= i <= n && 1 <= j <= i && j <= k <= m");
  for (auto _ : State) {
    PiecewiseValue V = countSolutions(F, {"i", "j", "k"}).Value;
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_Example1Ours)->Unit(benchmark::kMillisecond);

void BM_Example1FixedOrder(benchmark::State &State) {
  Conjunct C = example1Clause();
  for (auto _ : State) {
    BaselineSumResult R =
        fixedOrderSum(C, {"k", "j", "i"}, QuasiPolynomial(Rational(1)));
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_Example1FixedOrder)->Unit(benchmark::kMillisecond);

void BM_Example2(benchmark::State &State) {
  Formula F =
      parseFormulaOrDie("1 <= i <= n && 3 <= j <= i && j <= k <= 5");
  for (auto _ : State) {
    PiecewiseValue V = countSolutions(F, {"i", "j", "k"}).Value;
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_Example2)->Unit(benchmark::kMillisecond);

void BM_Example3(benchmark::State &State) {
  Formula F = parseFormulaOrDie(
      "1 <= i <= 2*n && 1 <= j <= i && i + j <= 2*n");
  for (auto _ : State) {
    PiecewiseValue V = countSolutions(F, {"i", "j"}).Value;
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_Example3)->Unit(benchmark::kMillisecond);

} // namespace

OMEGA_BENCH_MAIN(report)
