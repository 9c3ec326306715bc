//===- counting/Query.cpp - Unified options-taking query entry point -----===//
//
// Implements omega::sumPolynomial / omega::countSolutions / countBatch:
// re-entrant entry points that translate a CountOptions into a
// QueryContext installed for the query's duration (support/QueryContext.h)
// instead of mutating process globals.  Concurrent queries on different
// threads — omegad sessions, batch hosts — therefore run with independent
// knobs and independent stats.  A traced query opens a trace session of
// its own on its thread (support/Trace.h), so concurrent traced queries
// neither serialize nor see each other's spans.
//
//===----------------------------------------------------------------------===//

#include "counting/Backend.h"

#include "presburger/Var.h"
#include "support/BigInt.h"
#include "support/QueryContext.h"
#include "support/Trace.h"

#include <optional>

using namespace omega;

CountResult omega::sumPolynomial(const Formula &F, const VarSet &Vars,
                                 const QuasiPolynomial &X,
                                 const CountOptions &Opts) {
  // The cache storage is shared and grow-only from here: a query may ask
  // for more capacity than the host configured, never less, so one
  // small-cache query cannot evict a server's warm entries.  Opting out of
  // the cache entirely is per-query (QueryContext::CacheEnabled).
  if (Opts.CacheEnabled && Opts.CacheCapacity > conjunctCacheCapacity())
    configureConjunctCache(Opts.CacheCapacity);

  QueryStatsBlock Block;
  const bool WantStats = Opts.CollectStats || Opts.CountArithOps;
  Block.Arith.CountOps.store(Opts.CountArithOps, std::memory_order_relaxed);

  QueryContext Ctx;
  Ctx.CacheEnabled = Opts.CacheEnabled;
  Ctx.Stats = WantStats ? &Block : nullptr;

  CountResult Out;
  try {
    QueryContextScope Scope(Ctx);
    // A traced query records into a session of its own; an untraced one
    // records into whatever session this thread already has open (a
    // tool-level --trace), if any.
    std::optional<TraceSession> Trace;
    if (Opts.CollectTrace)
      Trace.emplace();
    // Backend selection and the per-backend algorithms live in
    // counting/Backend.cpp; the default (Pugh) reproduces the pre-PR-7
    // pipeline bit for bit.
    Out = dispatchCount(F, Vars, X, Opts);
    if (Trace)
      Out.Trace = Trace->data();
  } catch (...) {
    // The scope has unwound, so the fold lands in the enclosing targets —
    // work done before the throw stays visible to aggregate stats.
    if (WantStats)
      foldQueryStats(Block);
    throw;
  }
  if (WantStats) {
    Out.Stats = snapshotQueryStats(Block);
    // Fold the block into whatever this thread resolves to now that the
    // scope popped — an enclosing query's block, a tool-level collector,
    // or the process-wide counters — so aggregate observability (--stats
    // at tool exit, omegad's stats endpoint) still sees all work.
    foldQueryStats(Block);
  }
  return Out;
}

CountResult omega::countSolutions(const Formula &F, const VarSet &Vars,
                                  const CountOptions &Opts) {
  return sumPolynomial(F, Vars, QuasiPolynomial(Rational(1)), Opts);
}

std::vector<CountResult> omega::countBatch(std::span<const CountQuery> Queries) {
  std::vector<CountResult> Out;
  Out.reserve(Queries.size());
  // Sequential by design: each element gets its own context and stats
  // delta (isolation is the contract QueryApiTest pins), and concurrency
  // belongs above the batch (callers on threads of their own, omegad
  // sessions).
  for (const CountQuery &Q : Queries)
    Out.push_back(sumPolynomial(Q.F, Q.Vars, Q.X, Q.Opts));
  return Out;
}
