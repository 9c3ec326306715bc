//===- support/Stats.h - Pipeline observability counters -------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-wide observability for the counting pipeline: cache hit/miss
/// rates, clause and splinter volumes, and cumulative wall time per
/// pipeline phase.  Counters are atomics so concurrent queries (omegad
/// sessions) can bump the shared block without coordination; timers are
/// cumulative across nested and concurrent invocations (a phase entered by
/// four sessions at once accrues roughly 4x wall time — read them as cost
/// attribution, not elapsed time).
///
/// `omegacount --stats` / `omegalint --stats` print the human-readable
/// form; bench_pipeline emits the JSON form for BENCH_*.json trajectories.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_SUPPORT_STATS_H
#define OMEGA_SUPPORT_STATS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace omega {

/// The live (atomic) counter set.  Use snapshotPipelineStats() to read.
///
/// Every field is a std::atomic, so this struct carries no mutex and is
/// exempt from OMEGA_GUARDED_BY annotations (DESIGN.md §13): concurrent
/// increments from omegad sessions are safe by construction, and the snapshot
/// reader tolerates tearing *across* counters (it reports a monotonic
/// point-in-time view, not a consistent cut).
struct PipelineCounters {
  // Work volume.
  std::atomic<uint64_t> FeasibilityTests{0};
  std::atomic<uint64_t> ProjectionCalls{0};
  std::atomic<uint64_t> ClausesSimplified{0};
  std::atomic<uint64_t> SplintersGenerated{0};
  // Conjunct cache.
  std::atomic<uint64_t> CacheHits{0};
  std::atomic<uint64_t> CacheMisses{0};
  std::atomic<uint64_t> CacheEvictions{0};
  // Clause coalescing (omega/Simplify.cpp).  Pairs counts full
  // (Omega-backed) pair evaluations; Prefiltered counts candidate pairs
  // the clause index rejected with no feasible()/implies() call at all;
  // Merges counts pair merges actually applied to a clause list.
  std::atomic<uint64_t> CoalescePairs{0};
  std::atomic<uint64_t> CoalescePrefiltered{0};
  std::atomic<uint64_t> CoalesceMerges{0};
  // Budgets (support/Budget.h): limits tripped, and whole queries that
  // fell back to certified bounds instead of an exact answer.
  std::atomic<uint64_t> BudgetTrips{0};
  std::atomic<uint64_t> DegradedQueries{0};
  // Backend dispatch (counting/Backend.h): work volume of the automaton
  // and enumerate backends, and Auto dispatches that fell back to pugh
  // after a refusal.
  std::atomic<uint64_t> AutomatonDfaStates{0};
  std::atomic<uint64_t> AutomatonProductStates{0};
  std::atomic<uint64_t> AutomatonTransitions{0};
  std::atomic<uint64_t> EnumeratedPoints{0};
  std::atomic<uint64_t> BackendFallbacks{0};
  // The BigInt small-value optimization (DESIGN.md §10) keeps its own
  // counters in omega::arithCounters() so the header fast paths need not
  // see this file; snapshots fold them in here.
  // Cumulative wall time per phase, in nanoseconds.
  std::atomic<uint64_t> SimplifyNanos{0};
  std::atomic<uint64_t> DisjointNanos{0};
  std::atomic<uint64_t> CoalesceNanos{0};
  std::atomic<uint64_t> SummationNanos{0};
};

/// IR-layer observability counters (the flat term storage of
/// presburger/AffineExpr.h; surfaced through snapshotPipelineStats()).
/// Spills — heap term arrays materialized for expressions wider than the
/// inline capacity — are always counted.  Per-operation inline tallies are
/// gated behind the same CountOps flag as the BigInt fast/slow counters.
/// Defined here rather than next to AffineExpr so QueryStatsBlock
/// (support/QueryContext.h) can hold one per query.
struct ExprCounters {
  std::atomic<uint64_t> Spills{0};    ///< Heap term arrays allocated.
  std::atomic<uint64_t> InlineOps{0}; ///< Term mutations completed inline.
};

struct ArithCounters; // support/BigInt.h

namespace detail {
inline ExprCounters ExprStats;
/// Per-thread redirect targets installed by QueryContextScope
/// (support/QueryContext.h): when non-null, counter traffic on this thread
/// lands in the active query's block instead of the process-wide globals.
inline thread_local PipelineCounters *ActivePipelineStats = nullptr;
inline thread_local ExprCounters *ActiveExprStats = nullptr;
} // namespace detail

/// The expression counters ops on this thread tally into: the active
/// query's block under a stats-collecting QueryContextScope, else the
/// process-wide instance.
inline ExprCounters &exprCounters() {
  return detail::ActiveExprStats ? *detail::ActiveExprStats
                                 : detail::ExprStats;
}

/// The counter instance work on this thread attributes to: the active
/// query's block under a stats-collecting QueryContextScope, else the
/// process-wide instance.
PipelineCounters &pipelineStats();

/// A plain copy of the counters at one instant.
struct PipelineStatsSnapshot {
  uint64_t FeasibilityTests, ProjectionCalls, ClausesSimplified,
      SplintersGenerated;
  uint64_t CacheHits, CacheMisses, CacheEvictions;
  uint64_t CoalescePairs, CoalescePrefiltered, CoalesceMerges;
  uint64_t BudgetTrips, DegradedQueries;
  uint64_t AutomatonDfaStates, AutomatonProductStates, AutomatonTransitions,
      EnumeratedPoints, BackendFallbacks;
  // Arithmetic layer: limb (heap) representations produced, and the
  // fast/slow per-op tallies (nonzero only under
  // CountOptions::CountArithOps).
  uint64_t BigIntSpills, BigIntFastOps, BigIntSlowOps;
  // IR term storage (presburger/AffineExpr.h): mutations completed in the
  // inline term buffer (gated by CountOptions::CountArithOps, like the
  // per-op BigInt tallies) and heap term arrays materialized past
  // InlineCapacity.
  uint64_t ExprTermsInline, ExprTermsSpilled;
  uint64_t SimplifyNanos, DisjointNanos, CoalesceNanos, SummationNanos;

  /// One-line-per-counter human form (for --stats).
  std::string toPretty() const;
  /// Single JSON object (for bench_pipeline / BENCH_*.json).
  std::string toJson() const;
};

/// A snapshot of an explicit counter triple (a per-query block, or the
/// globals via snapshotPipelineStats()).
PipelineStatsSnapshot snapshotStats(const PipelineCounters &P,
                                    const ArithCounters &A,
                                    const ExprCounters &E);

/// Snapshot of the counters this thread currently resolves to.
PipelineStatsSnapshot snapshotPipelineStats();

/// RAII: adds the elapsed wall time to one of the phase counters.
class PhaseTimer {
public:
  explicit PhaseTimer(std::atomic<uint64_t> &Target)
      : Target(Target), Start(std::chrono::steady_clock::now()) {}
  ~PhaseTimer() {
    auto End = std::chrono::steady_clock::now();
    Target += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(End - Start)
            .count());
  }
  PhaseTimer(const PhaseTimer &) = delete;
  PhaseTimer &operator=(const PhaseTimer &) = delete;

private:
  std::atomic<uint64_t> &Target;
  std::chrono::steady_clock::time_point Start;
};

} // namespace omega

#endif // OMEGA_SUPPORT_STATS_H
