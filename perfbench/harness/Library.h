//===- perfbench/harness/Library.h - In-process query helpers ---*- C++ -*-===//
//
// Calls into the library shared by the closed-loop workloads, the omegad
// workload's in-process replay, and the traced runs.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LIBRARY_H
#define PERFBENCH_LIBRARY_H

#include "Bench.h"
#include "Gen.h"

#include "omega/Omega.h"

namespace perfbench {

/// The CountOptions a user would pass for \p Q: the backend and nothing
/// else (no Workers, no SumOptions).
omega::CountOptions optionsFor(const Query &Q);
/// countSolutions, or sumPolynomial for a flop sum.
omega::CountResult countParsed(const Query &Q, const omega::Formula &F,
                               const omega::CountOptions &Opts);
/// Parse plus count: the call a user of the text interface makes.
omega::CountResult countText(const Query &Q, const omega::CountOptions &Opts);

/// What makes two queries the same question: the text, and the summand
/// or backend it is sent with.
std::string queryKey(const Query &Q);

/// Oracle-checks the answered queries of a run, one per distinct
/// question, within a time budget.  A wrong answer clears Out.Correct and
/// returns false.  Answers[I] holds Qs[I]'s values at the check bindings
/// (empty when the query failed).
bool checkSample(const std::vector<Query> &Qs,
                 const std::vector<std::vector<omega::Rational>> &Answers,
                 double BudgetSeconds, RunResult &Out);

/// Per-layer tallies the traced run accumulates query by query.
struct LayerTotals {
  uint64_t Queries = 0, Failed = 0;
  uint64_t QueryAllocs = 0, QueryBytes = 0;
  uint64_t FeasibilityTests = 0, ProjectionCalls = 0;
  uint64_t CacheHits = 0, CacheMisses = 0;
  uint64_t BigIntSpills = 0, ExprSpills = 0, BackendFallbacks = 0;
  uint64_t AutomatonQueries = 0, AutomatonProductStates = 0;
  uint64_t AnswerPieces = 0, Evaluations = 0, DnfClauses = 0;
  double CountSelfUs = 0, AutomatonUs = 0;
};

/// One traced query: spans around parse, count, evaluate, and the Omega
/// layer's simplify and feasible on the same formula.
void traceQuery(const Query &Q, uint64_t Id, SpanLog &Log, LayerTotals &T);

void addLayerMetrics(const SpanLog &Log, const LayerTotals &T,
                     RunResult &Out);
void addCacheMetrics(uint64_t Hits, uint64_t Misses, RunResult &Out);
/// Zeros for the server and load-generator layers on library workloads.
void addServerlessMetrics(RunResult &Out);

} // namespace perfbench

#endif // PERFBENCH_LIBRARY_H
