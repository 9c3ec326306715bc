//===- bench/bench_ablation.cpp - X18: design-choice ablations -----------===//
//
// The paper's concluding observations, measured:
//   1. "Summations over several variables should not presume an order in
//      which to perform the summation."
//   2. "Eliminating redundant constraints is useful."
// Each toggle is ablated on the paper's own Example 1 and on a wider
// coupled nest; we report terms produced and timing.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"

#include "counting/Summation.h"
#include "presburger/Parser.h"

using namespace omega;

namespace {

Formula example1() {
  return parseFormulaOrDie("1 <= i <= n && 1 <= j <= i && j <= k <= m");
}

Formula coupled() {
  return parseFormulaOrDie(
      "1 <= a <= n && a <= b <= n && b <= c <= n && a + c <= n + 2");
}

size_t termsWith(const Formula &F, const VarSet &Vars,
                 const CountOptions &Opts) {
  return countSolutions(F, Vars, Opts).Value.pieces().size();
}

void report() {
  reportHeader("X18", "ablations of the paper's two concluding advices");
  CountOptions Full;
  CountOptions NoRedund;
  NoRedund.EliminateRedundant = false;
  CountOptions FixedOrder;
  FixedOrder.FreeVariableOrder = false;
  CountOptions Neither;
  Neither.EliminateRedundant = false;
  Neither.FreeVariableOrder = false;

  {
    VarSet Vars{"i", "j", "k"};
    reportRow("Example 1 terms, full engine", "2",
              std::to_string(termsWith(example1(), Vars, Full)));
    reportRow("  without redundant-constraint elimination", "-",
              std::to_string(termsWith(example1(), Vars, NoRedund)));
    reportRow("  with a fixed variable order", "-",
              std::to_string(termsWith(example1(), Vars, FixedOrder)));
    reportRow("  with neither", "-",
              std::to_string(termsWith(example1(), Vars, Neither)));
  }
  {
    VarSet Vars{"a", "b", "c"};
    reportRow("coupled nest terms, full engine", "-",
              std::to_string(termsWith(coupled(), Vars, Full)));
    reportRow("  without redundancy elimination", "-",
              std::to_string(termsWith(coupled(), Vars, NoRedund)));
    reportRow("  with a fixed variable order", "-",
              std::to_string(termsWith(coupled(), Vars, FixedOrder)));
    reportRow("  with neither", "-",
              std::to_string(termsWith(coupled(), Vars, Neither)));
  }
  // Correctness is invariant under the ablations; only cost changes.
  bool Agree = true;
  for (int64_t N = 0; N <= 6 && Agree; ++N)
    for (int64_t M = 0; M <= 6 && Agree; ++M) {
      Assignment A{{"n", BigInt(N)}, {"m", BigInt(M)}};
      Rational R = countSolutions(example1(), {"i", "j", "k"}, Full)
                       .Value.evaluate(A);
      Agree = R == countSolutions(example1(), {"i", "j", "k"}, Neither)
                       .Value.evaluate(A);
    }
  reportRow("ablated engines still produce correct values", "yes",
            Agree ? "yes" : "no");
}

void BM_Ablation(benchmark::State &State) {
  CountOptions Opts;
  Opts.EliminateRedundant = State.range(0) & 1;
  Opts.FreeVariableOrder = State.range(0) & 2;
  Formula F = coupled();
  for (auto _ : State) {
    PiecewiseValue V = countSolutions(F, {"a", "b", "c"}, Opts).Value;
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_Ablation)
    ->Arg(3)  // Full engine.
    ->Arg(2)  // No redundancy elimination.
    ->Arg(1)  // Fixed order.
    ->Arg(0)  // Neither.
    ->Unit(benchmark::kMillisecond);

} // namespace

OMEGA_BENCH_MAIN(report)
