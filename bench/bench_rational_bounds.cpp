//===- bench/bench_rational_bounds.cpp - X6: §4.2.1 bound strategies -----===//
//
// The paper's running example Σ_{i=1}^{⌊n/3⌋} i computed with every
// strategy of §4.2.1: symbolic (mod-atoms), splintered exact, upper bound
// n(n+3)/18, lower bound (n-2)(n+1)/18, approximation (n-1)(n+2)/18.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"

#include "counting/Summation.h"
#include "presburger/Parser.h"

using namespace omega;

namespace {

PiecewiseValue solveWith(BoundStrategy S) {
  Formula F = parseFormulaOrDie("1 <= i && 3*i <= n");
  CountOptions Opts;
  Opts.Strategy = S;
  return sumPolynomial(F, {"i"}, QuasiPolynomial::variable("i"), Opts).Value;
}

void report() {
  reportHeader("X6", "rational bounds: Σ_{i=1}^{⌊n/3⌋} i (§4.2.1)");
  PiecewiseValue Sym = solveWith(BoundStrategy::SymbolicMod);
  PiecewiseValue Spl = solveWith(BoundStrategy::Splinter);
  PiecewiseValue Up = solveWith(BoundStrategy::UpperBound);
  PiecewiseValue Lo = solveWith(BoundStrategy::LowerBound);
  PiecewiseValue Ap = solveWith(BoundStrategy::Approximate);
  reportRow("symbolic (mod atoms)",
            "(n - n mod 3)(n + 3 - n mod 3)/18", Sym.toString());
  reportRow("splintered exact", "3 residue cases", Spl.toString());
  reportRow("upper bound", "n(n+3)/18", Up.toString());
  reportRow("lower bound", "(n-2)(n+1)/18", Lo.toString());
  reportRow("approximation", "(n-1)(n+2)/18 (or bound average)",
            Ap.toString());
  // Numeric sanity at a few points (truth: U(U+1)/2 with U = floor(n/3)).
  for (int64_t N : {7, 9, 100}) {
    int64_t U = N / 3;
    Assignment A{{"n", BigInt(N)}};
    reportRow("exact value at n=" + std::to_string(N),
              std::to_string(U * (U + 1) / 2),
              Spl.evaluate(A).toString());
    std::cout << "    bounds at n=" << N << ": lower "
              << Lo.evaluate(A).toString() << " <= exact "
              << Sym.evaluate(A).toString() << " <= upper "
              << Up.evaluate(A).toString() << ", best-guess "
              << Ap.evaluate(A).toString() << "\n";
  }
}

void BM_Strategy(benchmark::State &State) {
  BoundStrategy S = static_cast<BoundStrategy>(State.range(0));
  Formula F = parseFormulaOrDie("1 <= i && 3*i <= n");
  CountOptions Opts;
  Opts.Strategy = S;
  for (auto _ : State) {
    PiecewiseValue V =
        sumPolynomial(F, {"i"}, QuasiPolynomial::variable("i"), Opts).Value;
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_Strategy)
    ->Arg(int(BoundStrategy::Splinter))
    ->Arg(int(BoundStrategy::SymbolicMod))
    ->Arg(int(BoundStrategy::UpperBound))
    ->Arg(int(BoundStrategy::LowerBound))
    ->Arg(int(BoundStrategy::Approximate));

// Splintering cost grows with the divisor; the symbolic form stays flat.
void BM_SplinterVsDivisor(benchmark::State &State) {
  std::string Text = "1 <= i && " + std::to_string(State.range(0)) +
                     "*i <= n";
  Formula F = parseFormulaOrDie(Text);
  for (auto _ : State) {
    PiecewiseValue V =
        sumPolynomial(F, {"i"}, QuasiPolynomial::variable("i")).Value;
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_SplinterVsDivisor)->DenseRange(2, 10, 2);

void BM_SymbolicVsDivisor(benchmark::State &State) {
  std::string Text = "1 <= i && " + std::to_string(State.range(0)) +
                     "*i <= n";
  Formula F = parseFormulaOrDie(Text);
  CountOptions Opts;
  Opts.Strategy = BoundStrategy::SymbolicMod;
  for (auto _ : State) {
    PiecewiseValue V =
        sumPolynomial(F, {"i"}, QuasiPolynomial::variable("i"), Opts).Value;
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_SymbolicVsDivisor)->DenseRange(2, 10, 2);

} // namespace

OMEGA_BENCH_MAIN(report)
