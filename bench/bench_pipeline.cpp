//===- bench/bench_pipeline.cpp - Conjunct cache speedup -----------------===//
//
// Measures the pipeline accelerator this library layers over the paper's
// algorithms — the conjunct memoization cache — on a crossConjoin-heavy
// counting problem (a conjunction of interval unions, the worst case for
// DNF blow-up).
//
// Three configurations are timed (cache off, cache on, and a warm re-run
// against the populated cache), every configuration is checked to produce
// the identical piecewise answer, and one JSON object with the timings,
// speedups, and pipeline counters is printed to stdout.
//
//   bench_pipeline [--quick] [--scale N] [--reps N] [--out FILE]
//                  [shared flags: --cache/--budget/--stats/
//                   --trace/--trace-summary]
//
// --quick shrinks the workload so the binary doubles as a smoke test
// (wired into ctest); the JSON line is emitted either way.  Queries go
// through the CountOptions entry point (omega/Omega.h), so this benchmark
// is also the dogfood test for the unified query API.
//
//===----------------------------------------------------------------------===//

#include "counting/Summation.h"
#include "presburger/Parser.h"
#include "presburger/Var.h"
#include "support/Stats.h"

#include "Options.h"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace omega;

namespace {

/// A conjunction of interval unions with a coupling constraint and a
/// stride: S clauses per dimension, so crossConjoin explores S*S pairs and
/// the disjoint/summation phases see dozens of independent clauses.
Formula workload(int Scale) {
  auto Union = [&](const std::string &V) {
    std::ostringstream OS;
    OS << "(";
    for (int I = 0; I < Scale; ++I) {
      if (I)
        OS << " || ";
      int Lo = 1 + 12 * I;
      int Hi = Lo + 9;
      OS << Lo << " <= " << V << " <= " << Hi;
    }
    OS << ")";
    return OS.str();
  };
  std::ostringstream OS;
  OS << Union("i") << " && " << Union("j") << " && i + j <= " << 12 * Scale
     << " && 2 | i + j";
  ParseResult R = parseFormula(OS.str());
  if (!R) {
    std::cerr << "bench_pipeline: internal parse error: " << R.Error << "\n";
    std::exit(1);
  }
  return *R.Value;
}

struct ConfigResult {
  std::string Name;
  size_t CacheCapacity = 0;
  double WallMs = 0;
  std::string Answer;
  PipelineStatsSnapshot Stats{};
};

/// Runs the workload once under the given knobs from a cold cache (unless
/// \p Warm, which keeps the cache from the previous run).  Each
/// query goes through the options-taking entry point, which installs a
/// per-query context (support/QueryContext.h) rather than process state.
ConfigResult runConfig(const std::string &Name, int Scale, int Reps,
                       size_t CacheCapacity, bool Warm,
                       const EffortBudget &Budget, bool CountArithOps) {
  ConfigResult R;
  R.Name = Name;
  R.CacheCapacity = CacheCapacity;

  CountOptions CO;
  CO.CacheEnabled = CacheCapacity > 0;
  CO.CacheCapacity = CacheCapacity;
  CO.Budget = Budget;
  CO.CollectStats = true;
  CO.CountArithOps = CountArithOps;

  double BestMs = -1;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    if (!Warm)
      clearConjunctCache();
    Formula F = workload(Scale);
    auto T0 = std::chrono::steady_clock::now();
    CountResult CR = countSolutions(F, VarSet{"i", "j"}, CO);
    auto T1 = std::chrono::steady_clock::now();
    double Ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            T1 - T0)
            .count();
    if (BestMs < 0 || Ms < BestMs)
      BestMs = Ms;
    R.Answer = CR.Status == CountStatus::Bounded
                   ? "UNKNOWN[" + CR.Lower.toString() + ", " +
                         CR.Upper.toString() + "]"
                   : CR.Value.toString();
    R.Stats = CR.Stats;
  }
  R.WallMs = BestMs;
  return R;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  int Scale = 8, Reps = 3;
  std::string OutPath;
  ToolOptions TO;
  auto Fail = [](const std::string &Msg) {
    std::cerr << "bench_pipeline: error: " << Msg << "\n";
    std::exit(1);
  };
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (parseSharedOption(Argc, Argv, I, TO, Fail))
      continue;
    auto NextInt = [&](int Fallback) {
      return ++I < Argc ? std::atoi(Argv[I]) : Fallback;
    };
    if (Arg == "--quick") {
      Scale = 4;
      Reps = 1;
    } else if (Arg == "--scale")
      Scale = NextInt(Scale);
    else if (Arg == "--reps")
      Reps = NextInt(Reps);
    else if (Arg == "--out")
      OutPath = ++I < Argc ? Argv[I] : "";
    else {
      std::cerr << "usage: bench_pipeline [--quick] [--scale N] [--reps N] "
                   "[--out FILE] [shared options]\n"
                << sharedOptionsHelp();
      return 1;
    }
  }

  const size_t Cap = TO.Count.CacheEnabled ? TO.Count.CacheCapacity : 0;
  const EffortBudget &Budget = TO.Count.Budget;
  const bool Arith = TO.Count.CountArithOps;
  ToolTrace Trace(TO);
  std::vector<ConfigResult> Results;
  Results.push_back(runConfig("serial-nocache", Scale, Reps, 0,
                              /*Warm=*/false, Budget, Arith));
  Results.push_back(runConfig("serial-cache", Scale, Reps, Cap,
                              /*Warm=*/false, Budget, Arith));
  // Warm: same problem against the already-populated cache (the compiler
  // re-querying a dataflow fact it has seen before).
  Results.push_back(runConfig("serial-cache-warm", Scale, Reps, Cap,
                              /*Warm=*/true, Budget, Arith));

  // Every configuration must produce the identical answer — the
  // determinism contract, enforced here so a perf run can never silently
  // trade correctness for speed.
  for (const ConfigResult &R : Results)
    if (R.Answer != Results[0].Answer) {
      std::cerr << "bench_pipeline: DETERMINISM VIOLATION: config " << R.Name
                << " answered\n  " << R.Answer << "\nbut "
                << Results[0].Name << " answered\n  " << Results[0].Answer
                << "\n";
      return 1;
    }

  auto WallOf = [&](const std::string &Name) {
    for (const ConfigResult &R : Results)
      if (R.Name == Name)
        return R.WallMs;
    return -1.0;
  };
  double SpeedupCache = WallOf("serial-nocache") / WallOf("serial-cache");
  double SpeedupWarm = WallOf("serial-nocache") / WallOf("serial-cache-warm");
  unsigned Cores = std::thread::hardware_concurrency();

  // Schema 6 (was 5): the parallel-* configs, the per-config "workers"
  // field, speedup_workers and speedup_combined went with the intra-query
  // fan-out, and per-config stats dropped parallel_batches/parallel_tasks.
  // (Schema 5 added the expr_terms_* counters; schema 4 the coalesce
  // counters and the fixed "baseline" block CI gates ratios against.)
  std::ostringstream JS;
  JS << "{\"schema\":6,\"bench\":\"pipeline\",\"scale\":" << Scale
     << ",\"reps\":" << Reps << ",\"hardware_concurrency\":" << Cores
     << ",\"configs\":[";
  for (size_t I = 0; I < Results.size(); ++I) {
    const ConfigResult &R = Results[I];
    if (I)
      JS << ",";
    JS << "{\"name\":\"" << jsonEscape(R.Name)
       << "\",\"cache_capacity\":" << R.CacheCapacity
       << ",\"wall_ms\":" << R.WallMs << ",\"stats\":" << R.Stats.toJson()
       << "}";
  }
  JS << "],\"speedup_cache\":" << SpeedupCache
     << ",\"speedup_warm_cache\":" << SpeedupWarm
     // The seed-algorithm reference for the coalesce rework: BENCH_pipeline
     // serial-nocache at scale 8 as committed by PR 7 (single-core host, so
     // wall times compare like for like on such hosts; the counter is
     // host-independent).  tools/ci.sh gates coalesce_ms >= 3x and
     // feasibility_tests >= 5x against this block.
     << ",\"baseline\":{\"source\":\"PR 7 BENCH_pipeline.json serial-nocache"
        ", scale 8\",\"coalesce_ms\":299.841,\"feasibility_tests\":28966}"
     << ",\"answers_identical\":true}";
  std::cout << JS.str() << "\n";
  if (!OutPath.empty()) {
    std::ofstream Out(OutPath);
    if (!Out) {
      std::cerr << "bench_pipeline: cannot write " << OutPath << "\n";
      return 1;
    }
    Out << JS.str() << "\n";
  }

  std::cerr << "bench_pipeline: answers identical across all configs; "
            << "cache x" << SpeedupCache << ", warm x" << SpeedupWarm
            << " (on " << Cores << " hardware core" << (Cores == 1 ? "" : "s")
            << ")\n";
  if (!Trace.finish("bench_pipeline"))
    return 1;
  if (TO.Stats)
    std::cerr << snapshotPipelineStats().toPretty();
  std::cout << "bench_pipeline: ok\n";
  return 0;
}
