//===- bench/bench_example6.cpp - X13: §6 Example 6 ----------------------===//
//
// (Σ i,j : 1 <= i ∧ j <= n ∧ 2i <= 3j : 1) = (3n² + 2n - n mod 2)/4,
// computed through splintering (2|3j even/odd), projected clauses, and
// the mod-atom symbolic form — the paper's capstone example.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"

#include "counting/Summation.h"
#include "presburger/Parser.h"

using namespace omega;

namespace {

void report() {
  reportHeader("X13", "Example 6: (Σ i,j : 1<=i, j<=n, 2i<=3j : 1)");
  Formula F =
      parseFormulaOrDie("1 <= i && 1 <= j && j <= n && 2*i <= 3*j");
  PiecewiseValue V = countSolutions(F, {"i", "j"}).Value;
  reportRow("symbolic", "(3n^2 + 2n - n mod 2)/4 for n >= 1",
            V.toString());
  bool Match = true;
  for (int64_t N = 0; N <= 50; ++N) {
    int64_t Paper = N >= 1 ? (3 * N * N + 2 * N - (N % 2)) / 4 : 0;
    Match = Match && V.evaluate({{"n", BigInt(N)}}) ==
                         Rational(BigInt(Paper));
  }
  reportRow("matches the paper's closed form on 0..50", "yes",
            Match ? "yes" : "no");
  reportRow("value at n=100", "7550",
            V.evaluateInt({{"n", BigInt(100)}}).toString());

  // The SymbolicMod strategy reproduces the compact mod-atom form.
  CountOptions Sym;
  Sym.Strategy = BoundStrategy::SymbolicMod;
  PiecewiseValue VS = countSolutions(F, {"i", "j"}, Sym).Value;
  reportRow("mod-atom form", "-", VS.toString());
  bool Match2 = true;
  for (int64_t N = 0; N <= 50; ++N)
    Match2 = Match2 && VS.evaluate({{"n", BigInt(N)}}) ==
                           V.evaluate({{"n", BigInt(N)}});
  reportRow("strategies agree", "yes", Match2 ? "yes" : "no");
}

void BM_Example6Splinter(benchmark::State &State) {
  Formula F =
      parseFormulaOrDie("1 <= i && 1 <= j && j <= n && 2*i <= 3*j");
  for (auto _ : State) {
    PiecewiseValue V = countSolutions(F, {"i", "j"}).Value;
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_Example6Splinter)->Unit(benchmark::kMillisecond);

void BM_Example6SymbolicMod(benchmark::State &State) {
  Formula F =
      parseFormulaOrDie("1 <= i && 1 <= j && j <= n && 2*i <= 3*j");
  CountOptions Opts;
  Opts.Strategy = BoundStrategy::SymbolicMod;
  for (auto _ : State) {
    PiecewiseValue V = countSolutions(F, {"i", "j"}, Opts).Value;
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_Example6SymbolicMod)->Unit(benchmark::kMillisecond);

} // namespace

OMEGA_BENCH_MAIN(report)
