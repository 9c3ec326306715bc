//===- tests/CacheTest.cpp - LruCache + conjunct memoization tests -------===//
//
// Three layers of coverage: the generic bounded LRU map (support/Cache.h),
// the canonical conjunct key (presburger/Conjunct.h) — specifically that
// semantics-preserving rewrites (permutation, scaling, duplication,
// trivially-true constraints) collide onto one key — and the memoized
// omega entry points (omega/Cache.cpp): cached and uncached answers agree,
// and the per-query hit/miss/eviction counters add up.
//
//===----------------------------------------------------------------------===//

#include "omega/Omega.h"
#include "support/Cache.h"
#include "support/QueryContext.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>

using namespace omega;

namespace {

AffineExpr var(const std::string &N) { return AffineExpr::variable(N); }

//===----------------------------------------------------------------------===//
// LruCache
//===----------------------------------------------------------------------===//

TEST(LruCache, HitAndMiss) {
  LruCache<int> C(4);
  EXPECT_FALSE(C.lookup("a").has_value());
  EXPECT_EQ(C.insert("a", 1), 0u);
  auto Hit = C.lookup("a");
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(*Hit, 1);
  EXPECT_EQ(C.size(), 1u);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache<int> C(2);
  C.insert("a", 1);
  C.insert("b", 2);
  // Touch "a" so "b" becomes the LRU entry.
  EXPECT_TRUE(C.lookup("a").has_value());
  EXPECT_EQ(C.insert("c", 3), 1u);
  EXPECT_TRUE(C.lookup("a").has_value());
  EXPECT_FALSE(C.lookup("b").has_value()) << "LRU entry should be evicted";
  EXPECT_TRUE(C.lookup("c").has_value());
}

TEST(LruCache, InsertExistingRefreshesRecency) {
  LruCache<int> C(2);
  C.insert("a", 1);
  C.insert("b", 2);
  // Re-inserting "a" keeps the first value and refreshes recency, so the
  // next eviction takes "b".
  EXPECT_EQ(C.insert("a", 99), 0u);
  C.insert("c", 3);
  auto A = C.lookup("a");
  ASSERT_TRUE(A.has_value());
  EXPECT_EQ(*A, 1) << "racing re-insert must keep the original value";
  EXPECT_FALSE(C.lookup("b").has_value());
}

TEST(LruCache, CapacityZeroDisables) {
  LruCache<int> C(0);
  EXPECT_EQ(C.insert("a", 1), 0u);
  EXPECT_FALSE(C.lookup("a").has_value());
  EXPECT_EQ(C.size(), 0u);
}

TEST(LruCache, ShrinkEvictsAndClearEmpties) {
  LruCache<int> C(4);
  for (int I = 0; I < 4; ++I)
    C.insert(std::string(1, char('a' + I)), I);
  C.setCapacity(1);
  EXPECT_EQ(C.size(), 1u);
  EXPECT_TRUE(C.lookup("d").has_value()) << "shrinking keeps the newest";
  EXPECT_FALSE(C.lookup("a").has_value());
  C.clear();
  EXPECT_EQ(C.size(), 0u);
  EXPECT_FALSE(C.lookup("d").has_value());
}

//===----------------------------------------------------------------------===//
// Canonical conjunct keys
//===----------------------------------------------------------------------===//

TEST(CanonicalKey, PermutedConstraintsCollide) {
  Conjunct A, B;
  A.add(Constraint::ge(var("x") - AffineExpr(1)));
  A.add(Constraint::ge(AffineExpr(10) - var("y")));
  A.add(Constraint::stride(3, var("x") + var("y")));
  B.add(Constraint::stride(3, var("x") + var("y")));
  B.add(Constraint::ge(AffineExpr(10) - var("y")));
  B.add(Constraint::ge(var("x") - AffineExpr(1)));
  EXPECT_EQ(canonicalConjunct(A).Key, canonicalConjunct(B).Key);
}

TEST(CanonicalKey, ScaledConstraintsCollide) {
  // 2x + 2y - 4 >= 0 normalizes (GCD division) to x + y - 2 >= 0.
  Conjunct A, B;
  A.add(Constraint::ge(BigInt(2) * var("x") + BigInt(2) * var("y") -
                       AffineExpr(4)));
  B.add(Constraint::ge(var("x") + var("y") - AffineExpr(2)));
  EXPECT_EQ(canonicalConjunct(A).Key, canonicalConjunct(B).Key);
}

TEST(CanonicalKey, DuplicatesAndTautologiesDropOut) {
  Conjunct A, B;
  A.add(Constraint::ge(var("x")));
  A.add(Constraint::ge(var("x")));          // duplicate
  A.add(Constraint::ge(AffineExpr(5)));     // trivially true
  B.add(Constraint::ge(var("x")));
  EXPECT_EQ(canonicalConjunct(A).Key, canonicalConjunct(B).Key);
}

TEST(CanonicalKey, InfeasibleCollapsesToUnsat) {
  Conjunct A;
  A.add(Constraint::ge(var("x")));
  A.add(Constraint::ge(AffineExpr(-3))); // -3 >= 0: trivially false
  CanonicalConjunct Canon = canonicalConjunct(A);
  EXPECT_EQ(Canon.Key, "UNSAT");
  EXPECT_FALSE(feasible(Canon.C));
}

TEST(CanonicalKey, UnusedWildcardsDropOut) {
  Conjunct A, B;
  A.add(Constraint::ge(var("x") - var("'w0")));
  A.addWildcard(internVar("'w0"));
  A.addWildcard(internVar("'w1")); // mentioned nowhere
  B.add(Constraint::ge(var("x") - var("'w0")));
  B.addWildcard(internVar("'w0"));
  EXPECT_EQ(canonicalConjunct(A).Key, canonicalConjunct(B).Key);
  // But a *used* wildcard is part of the key: dropping it changes meaning.
  Conjunct C;
  C.add(Constraint::ge(var("x") - var("'w0")));
  EXPECT_NE(canonicalConjunct(A).Key, canonicalConjunct(C).Key);
}

TEST(CanonicalKey, DifferentConstantsDiffer) {
  Conjunct A, B;
  A.add(Constraint::ge(var("x") - AffineExpr(1)));
  B.add(Constraint::ge(var("x") - AffineExpr(2)));
  EXPECT_NE(canonicalConjunct(A).Key, canonicalConjunct(B).Key);
}

//===----------------------------------------------------------------------===//
// Memoized omega entry points
//===----------------------------------------------------------------------===//

/// A deterministic little pool of random conjuncts over x, y.
std::vector<Conjunct> randomConjuncts(unsigned Seed, int Count) {
  std::mt19937_64 Rng(Seed);
  auto RC = [&] { return BigInt(int64_t(Rng() % 9) - 4); };
  std::vector<Conjunct> Out;
  for (int I = 0; I < Count; ++I) {
    Conjunct C;
    unsigned N = 2 + Rng() % 3;
    for (unsigned K = 0; K < N; ++K)
      C.add(Constraint::ge(RC() * var("x") + RC() * var("y") +
                           AffineExpr(RC() * 3)));
    C.add(Constraint::ge(var("x") + AffineExpr(6)));
    C.add(Constraint::ge(AffineExpr(6) - var("x")));
    Out.push_back(std::move(C));
  }
  return Out;
}

/// Redirects this thread's pipeline counters into Block for its lifetime,
/// the way a query does, so a test reads the cache traffic it caused.
struct CountedScope {
  QueryStatsBlock Block;
  QueryContext Ctx{.Stats = &Block};
  QueryContextScope Scope{Ctx};

  uint64_t hits() const { return Block.Pipeline.CacheHits.load(); }
  uint64_t misses() const { return Block.Pipeline.CacheMisses.load(); }
  uint64_t evictions() const { return Block.Pipeline.CacheEvictions.load(); }
};

/// RAII: restores the default cache capacity and a clean cache.
struct CacheGuard {
  ~CacheGuard() {
    configureConjunctCache(size_t(1) << 14);
    clearConjunctCache();
  }
};

TEST(ConjunctCache, CachedMatchesUncached) {
  CacheGuard Guard;
  std::vector<Conjunct> Pool = randomConjuncts(123, 24);

  std::vector<bool> Uncached;
  configureConjunctCache(0);
  for (const Conjunct &C : Pool)
    Uncached.push_back(feasible(C));

  configureConjunctCache(size_t(1) << 14);
  clearConjunctCache();
  CountedScope Counted;
  for (size_t Round = 0; Round < 2; ++Round)
    for (size_t I = 0; I < Pool.size(); ++I)
      EXPECT_EQ(feasible(Pool[I]), Uncached[I])
          << "conjunct " << I << " round " << Round;

  EXPECT_GT(Counted.hits(), 0u) << "second round must hit";
  EXPECT_GT(Counted.misses(), 0u);
  EXPECT_GT(conjunctCacheSize(), 0u);
}

TEST(ConjunctCache, ProjectionCachedMatchesUncached) {
  CacheGuard Guard;
  std::vector<Conjunct> Pool = randomConjuncts(456, 12);

  std::vector<std::string> Uncached;
  configureConjunctCache(0);
  for (const Conjunct &C : Pool) {
    std::string S;
    for (const Conjunct &R : projectVars(C, {"y"}, ShadowMode::Exact))
      S += R.toString() + ";";
    Uncached.push_back(S);
  }

  configureConjunctCache(size_t(1) << 14);
  clearConjunctCache();
  CountedScope Counted;
  for (size_t Round = 0; Round < 2; ++Round)
    for (size_t I = 0; I < Pool.size(); ++I) {
      std::string S;
      for (const Conjunct &R : projectVars(Pool[I], {"y"}, ShadowMode::Exact))
        S += R.toString() + ";";
      EXPECT_EQ(S, Uncached[I]) << "conjunct " << I << " round " << Round;
    }
  EXPECT_GT(Counted.hits(), 0u);
}

TEST(ConjunctCache, BoundedSizeEvicts) {
  CacheGuard Guard;
  configureConjunctCache(4);
  clearConjunctCache();
  std::vector<Conjunct> Pool = randomConjuncts(789, 16);
  CountedScope Counted;
  for (const Conjunct &C : Pool)
    (void)feasible(C);
  // Two caches (feasibility + projection) of capacity 4; only feasibility
  // was exercised, so at most 4 entries may remain.
  EXPECT_LE(conjunctCacheSize(), 4u);
  EXPECT_GT(Counted.evictions(), 0u) << "16 distinct keys through capacity 4";
}

TEST(ConjunctCache, ClearResetsEntries) {
  CacheGuard Guard;
  configureConjunctCache(size_t(1) << 14);
  clearConjunctCache();
  std::vector<Conjunct> Pool = randomConjuncts(321, 8);
  auto RunPool = [&Pool] {
    CountedScope Counted;
    for (const Conjunct &C : Pool)
      (void)feasible(C);
    return std::make_pair(Counted.hits(), Counted.misses());
  };
  auto Cold = RunPool();
  EXPECT_GT(conjunctCacheSize(), 0u);
  EXPECT_GT(Cold.second, 0u);
  clearConjunctCache();
  EXPECT_EQ(conjunctCacheSize(), 0u);
  // A cleared cache serves the pool exactly as the empty one did.
  EXPECT_EQ(RunPool(), Cold);
}

} // namespace
