//===- omega/Cache.cpp - Memoized feasibility and projection -------------===//
//
// The public omega::feasible / omega::projectVars wrap the Projector-based
// implementations (Project.cpp) with a process-wide LRU cache keyed by the
// clause's canonical form.  Cache misses are computed on the *canonical*
// clause, which makes the stored value a pure function of the key:
// canonicalConjunct sorts and normalizes constraints, so every clause with
// the same key presents the Projector with an identical problem, and the
// wildcards the Projector mints are named from the clause it works on
// (Conjunct::freshWildcard), not from any thread or query state.
//
// So it is safe for racing threads to populate the same key: whichever
// insert lands first, the value is the same.  See DESIGN.md §8.
//
//===----------------------------------------------------------------------===//

#include "omega/Omega.h"

#include "support/Cache.h"
#include "support/QueryContext.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <atomic>
#include <string>

using namespace omega;

namespace {

/// Default capacity per cache (feasibility and projection are separate
/// caches so cheap feasibility entries cannot evict expensive projections).
constexpr size_t DefaultCapacity = 1 << 14;

/// Lock-free mirror of the caches' capacity, read on every feasible() /
/// projectVars() call.  Going through LruCache::capacity() would take the
/// cache mutex even when memoization is disabled, serializing concurrent
/// queries.
std::atomic<size_t> CapacityKnob{DefaultCapacity};

LruCache<bool> &feasCache() {
  static LruCache<bool> C(DefaultCapacity);
  return C;
}

LruCache<std::vector<Conjunct>> &projCache() {
  static LruCache<std::vector<Conjunct>> C(DefaultCapacity);
  return C;
}

/// Whether the *current query* participates in memoization: the storage
/// must have capacity, and the active QueryContext (if any) must not have
/// opted out.  Queries outside any context (direct API probes in tests)
/// default to participating.
bool cacheEnabled() {
  if (CapacityKnob.load(std::memory_order_relaxed) == 0)
    return false;
  const QueryContext *Ctx = activeQueryContext();
  return !Ctx || Ctx->CacheEnabled;
}

std::string projectionKey(const CanonicalConjunct &Canon, const VarSet &Vars,
                          ShadowMode Mode) {
  std::string Key = Canon.Key;
  Key += "|P:";
  for (VarId V : Vars) {
    Key += std::to_string(V.raw());
    Key += ',';
  }
  Key += "|M:";
  Key += std::to_string(static_cast<int>(Mode));
  return Key;
}

} // namespace

bool omega::feasible(const Conjunct &C) {
  pipelineStats().FeasibilityTests += 1;
  // The unconstrained clause is Z^n: feasible with no Projector run and no
  // cache traffic.  Negation-driven callers (coalescing, gist) produce a
  // steady trickle of these, and canonicalizing an empty clause just to
  // hit the cache costs more than answering it.
  if (C.constraints().empty())
    return true;
  if (!cacheEnabled())
    return detail::feasibleImpl(C);

  CanonicalConjunct Canon = canonicalConjunct(C);
  if (Canon.Key == "UNSAT")
    return false;
  if (std::optional<bool> Hit = feasCache().lookup(Canon.Key)) {
    pipelineStats().CacheHits += 1;
    traceCount(TraceCounter::CacheHits);
    return *Hit;
  }
  pipelineStats().CacheMisses += 1;
  traceCount(TraceCounter::CacheMisses);
  bool Result = detail::feasibleImpl(Canon.C);
  pipelineStats().CacheEvictions += feasCache().insert(Canon.Key, Result);
  return Result;
}

std::vector<Conjunct> omega::projectVars(const Conjunct &C, const VarSet &Vars,
                                         ShadowMode Mode) {
  pipelineStats().ProjectionCalls += 1;
  TraceSpan Span("projectVars");
  Span.count(TraceCounter::ConstraintsIn, C.constraints().size());
  // Projection always runs on the canonical clause — even with the cache
  // disabled — so its result (including constraint order within returned
  // clauses) is a function of the clause alone, not of the cache knob.
  // feasible() skips the canonicalization on the uncached path because a
  // bool cannot carry ordering.
  CanonicalConjunct Canon = canonicalConjunct(C);
  if (!cacheEnabled()) {
    std::vector<Conjunct> Result = detail::projectVarsImpl(Canon.C, Vars, Mode);
    Span.count(TraceCounter::ClausesOut, Result.size());
    return Result;
  }

  std::string Key = projectionKey(Canon, Vars, Mode);
  if (std::optional<std::vector<Conjunct>> Hit = projCache().lookup(Key)) {
    pipelineStats().CacheHits += 1;
    Span.count(TraceCounter::CacheHits);
    Span.count(TraceCounter::ClausesOut, Hit->size());
    return std::move(*Hit);
  }
  pipelineStats().CacheMisses += 1;
  Span.count(TraceCounter::CacheMisses);
  std::vector<Conjunct> Result =
      detail::projectVarsImpl(Canon.C, Vars, Mode);
  pipelineStats().CacheEvictions += projCache().insert(Key, Result);
  Span.count(TraceCounter::ClausesOut, Result.size());
  return Result;
}

void omega::configureConjunctCache(size_t Capacity) {
  CapacityKnob.store(Capacity, std::memory_order_relaxed);
  feasCache().setCapacity(Capacity);
  projCache().setCapacity(Capacity);
}

size_t omega::conjunctCacheCapacity() {
  return CapacityKnob.load(std::memory_order_relaxed);
}

void omega::clearConjunctCache() {
  feasCache().clear();
  projCache().clear();
}

size_t omega::conjunctCacheSize() {
  return feasCache().size() + projCache().size();
}
