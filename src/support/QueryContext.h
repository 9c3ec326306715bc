//===- support/QueryContext.h - Per-query execution context ----*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-query execution context: the re-entrant replacement for the
/// retired process-global knobs (cache capacity, arithmetic op counting).
/// A query installs a QueryContext for its duration via QueryContextScope;
/// every layer that used to read a process global — the conjunct cache,
/// the counter accessors — resolves through the active context instead.  A query runs entirely on its caller's thread, so
/// concurrent queries on different threads (omegad sessions, countBatch
/// callers on their own threads) run with independent knobs and
/// independent stats, sharing only the deliberately process-wide pieces:
/// the conjunct cache storage and the global counters that per-query
/// blocks fold into on completion.
///
/// Contexts are borrowed, never owned: the installer guarantees the
/// context (and its stats block) outlives the scope.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_SUPPORT_QUERYCONTEXT_H
#define OMEGA_SUPPORT_QUERYCONTEXT_H

#include "support/BigInt.h"
#include "support/Stats.h"

namespace omega {

/// One query's private counter set.  When a context carries a block, the
/// thread-local accessors (pipelineStats(), arithCounters(),
/// exprCounters()) resolve to these members, so everything the query does
/// tallies here and nowhere else until the
/// query folds the block into its enclosing targets.
struct QueryStatsBlock {
  PipelineCounters Pipeline;
  ArithCounters Arith;
  ExprCounters Expr;
};

/// The knobs one query runs under.  Plain data; CountOptions
/// (omega/Omega.h) translates into one of these at query entry.
struct QueryContext {
  /// Whether this query participates in conjunct memoization.  The cache
  /// storage itself is process-wide (configureConjunctCache); this gates
  /// only whether the query reads and populates it.
  bool CacheEnabled = true;
  /// Per-query counter redirection; null leaves counters flowing to the
  /// enclosing targets (an outer context's block, or the globals).
  QueryStatsBlock *Stats = nullptr;
};

/// The context installed on this thread, or null outside any query.
const QueryContext *activeQueryContext();

/// RAII: installs \p Ctx as this thread's active context.  If Ctx.Stats is
/// set, also redirects the counter accessors at the block; otherwise the
/// previous redirect (if any) stays in effect, so a stats-less nested
/// query still attributes to its enclosing collector.  Restores everything
/// on destruction.  \p Ctx is borrowed and must outlive the scope.
class QueryContextScope {
public:
  explicit QueryContextScope(const QueryContext &Ctx);
  ~QueryContextScope();

  QueryContextScope(const QueryContextScope &) = delete;
  QueryContextScope &operator=(const QueryContextScope &) = delete;

private:
  const QueryContext *PrevCtx;
  PipelineCounters *PrevPipeline;
  ArithCounters *PrevArith;
  ExprCounters *PrevExpr;
};

/// Adds every counter of \p Block into the targets this thread currently
/// resolves to.  Called after the query's scope pops, so a nested query
/// folds into its enclosing collector and a top-level query folds into the
/// process-wide counters — process-wide observability (--stats at tool
/// exit) keeps seeing all work.  The CountOps flag is configuration, not a
/// tally, and is not folded.
void foldQueryStats(const QueryStatsBlock &Block);

/// Snapshot of one block's counters (CountResult::Stats).
inline PipelineStatsSnapshot snapshotQueryStats(const QueryStatsBlock &B) {
  return snapshotStats(B.Pipeline, B.Arith, B.Expr);
}

} // namespace omega

#endif // OMEGA_SUPPORT_QUERYCONTEXT_H
