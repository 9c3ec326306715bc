//===- bench/bench_scaling.cpp - X15: symbolic vs enumeration scaling ----===//
//
// The payoff of symbolic counting: the symbolic answer is computed once,
// independent of n; enumeration is O(n²) for Example 6's set.  The paper's
// implicit claim ("we are able to efficiently analyze many Presburger
// formulas that arise in practice") shown as a crossover.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"

#include "baselines/Enumerator.h"
#include "counting/Summation.h"
#include "presburger/Parser.h"

using namespace omega;

namespace {

void report() {
  reportHeader("X15", "symbolic counting vs enumeration");
  Formula F =
      parseFormulaOrDie("1 <= i && 1 <= j && j <= n && 2*i <= 3*j");
  PiecewiseValue V = countSolutions(F, {"i", "j"}).Value;
  for (int64_t N : {10, 100, 1000}) {
    BigInt Sym = V.evaluateInt({{"n", BigInt(N)}});
    BigInt Enum = enumerateCount(F, {"i", "j"}, {{"n", BigInt(N)}}, 0,
                                 2 * N, 0, 0);
    reportRow("n=" + std::to_string(N) + " counts agree",
              Enum.toString(), Sym.toString());
  }
  reportRow("cost model", "symbolic: one-time analysis + O(1) evaluation;"
                          " enumeration: O(n^2) per query",
            "see timings below");
}

void BM_SymbolicOnce(benchmark::State &State) {
  Formula F =
      parseFormulaOrDie("1 <= i && 1 <= j && j <= n && 2*i <= 3*j");
  for (auto _ : State) {
    PiecewiseValue V = countSolutions(F, {"i", "j"}).Value;
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_SymbolicOnce)->Unit(benchmark::kMillisecond);

void BM_SymbolicEvaluate(benchmark::State &State) {
  Formula F =
      parseFormulaOrDie("1 <= i && 1 <= j && j <= n && 2*i <= 3*j");
  PiecewiseValue V = countSolutions(F, {"i", "j"}).Value;
  Assignment A{{"n", BigInt(State.range(0))}};
  for (auto _ : State) {
    BigInt R = V.evaluateInt(A);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_SymbolicEvaluate)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000);

void BM_Enumerate(benchmark::State &State) {
  Formula F =
      parseFormulaOrDie("1 <= i && 1 <= j && j <= n && 2*i <= 3*j");
  int64_t N = State.range(0);
  Assignment Sym{{"n", BigInt(N)}};
  for (auto _ : State) {
    BigInt R = enumerateCount(F, {"i", "j"}, Sym, 0, 2 * N, 0, 0);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_Enumerate)->Arg(10)->Arg(100)->Arg(1000);

} // namespace

OMEGA_BENCH_MAIN(report)
