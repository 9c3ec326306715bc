//===- bench/bench_memory.cpp - X10: §6 Example 4 (FST locations) --------===//
//
// a(6i + 9j - 7) over 1<=i<=8, 1<=j<=5 touches 25 distinct locations;
// also contrasts FST inclusion-exclusion against the disjoint-DNF route
// on a multi-reference union (§4.5.1's 2^k blowup).
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"

#include "apps/MemoryModel.h"
#include "baselines/InclusionExclusion.h"

using namespace omega;

namespace {

AffineExpr var(const char *N) { return AffineExpr::variable(N); }

LoopNest fstNest() {
  LoopNest Nest;
  Nest.add("i", AffineExpr(1), AffineExpr(8));
  Nest.add("j", AffineExpr(1), AffineExpr(5));
  return Nest;
}

/// Clauses for the union of k shifted windows over x (stress for
/// inclusion-exclusion).
std::vector<Conjunct> shiftedWindows(unsigned K) {
  std::vector<Conjunct> Out;
  for (unsigned I = 0; I < K; ++I) {
    Conjunct C;
    C.add(Constraint::ge(var("x") - AffineExpr(int(3 * I))));
    C.add(Constraint::ge(AffineExpr(int(3 * I + 10)) - var("x")));
    Out.push_back(std::move(C));
  }
  return Out;
}

void report() {
  reportHeader("X10", "Example 4: distinct locations of a(6i+9j-7)");
  ArrayRef R{"a", {BigInt(6) * var("i") + BigInt(9) * var("j") -
                   AffineExpr(7)}};
  PiecewiseValue V = countDistinctLocations(fstNest(), {R}, "a");
  reportRow("distinct memory locations", "25",
            V.evaluateInt({}).toString());
  reportRow("as computed (clauses x=8, 5<=a<=27 via x=3a-1, x=86)",
            "1 + 23 + 1", V.toString());

  reportHeader("X10b", "union counting: FST inclusion-exclusion vs §5");
  for (unsigned K : {3u, 5u, 7u}) {
    std::vector<Conjunct> Clauses = shiftedWindows(K);
    InclusionExclusionResult IE =
        countUnionInclusionExclusion(Clauses, {"x"});
    std::vector<Formula> Parts;
    for (const Conjunct &C : Clauses)
      Parts.push_back(Formula::fromConjunct(C));
    PiecewiseValue Ours = countSolutions(Formula::disj(Parts), {"x"}).Value;
    reportRow("k=" + std::to_string(K) + " inclusion-exclusion summations",
              "up to 2^k-1 = " + std::to_string((1u << K) - 1) +
                  (K == 3 ? " (paper: 7 for 3 clauses)" : ""),
              std::to_string(IE.NumSummations) +
                  " (empty intersections skipped)");
    reportRow("  counts agree",
              IE.Value.evaluate({}).toString(),
              Ours.evaluate({}).toString());
  }
}

void BM_FSTLocations(benchmark::State &State) {
  ArrayRef R{"a", {BigInt(6) * var("i") + BigInt(9) * var("j") -
                   AffineExpr(7)}};
  LoopNest Nest = fstNest();
  for (auto _ : State) {
    PiecewiseValue V = countDistinctLocations(Nest, {R}, "a");
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_FSTLocations)->Unit(benchmark::kMillisecond);

void BM_UnionInclusionExclusion(benchmark::State &State) {
  std::vector<Conjunct> Clauses =
      shiftedWindows(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    InclusionExclusionResult R =
        countUnionInclusionExclusion(Clauses, {"x"});
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_UnionInclusionExclusion)
    ->Arg(2)
    ->Arg(4)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);

void BM_UnionDisjointDNF(benchmark::State &State) {
  std::vector<Conjunct> Clauses =
      shiftedWindows(static_cast<unsigned>(State.range(0)));
  std::vector<Formula> Parts;
  for (const Conjunct &C : Clauses)
    Parts.push_back(Formula::fromConjunct(C));
  Formula F = Formula::disj(Parts);
  for (auto _ : State) {
    PiecewiseValue V = countSolutions(F, {"x"}).Value;
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_UnionDisjointDNF)
    ->Arg(2)
    ->Arg(4)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);

} // namespace

OMEGA_BENCH_MAIN(report)
