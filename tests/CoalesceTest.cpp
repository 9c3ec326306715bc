//===- tests/CoalesceTest.cpp - Clause coalescing contracts --------------===//
//
// The coalesce worklist (DESIGN.md §15) must be a pure speedup: the
// indexed prefilter and memoized worklist may only skip work the full
// pair test would reject, and the merge order must reproduce the seed
// algorithm's restart scan exactly.  These tests pin that down:
//
//   * a local reimplementation of the seed restart loop (public
//     coalescePair in a while-changed scan) must agree textually with
//     coalesceClauses on hundreds of generated unions,
//   * coalesceClauses is idempotent,
//   * the union's solution count is invariant under coalescing and under
//     clause-order shuffles, across every counting backend,
//   * coalescing makeDisjoint output preserves pairwise disjointness,
//   * wildcarded clauses are excluded from merging and survive untouched.
//
//===----------------------------------------------------------------------===//

#include "counting/Summation.h"
#include "omega/Omega.h"
#include "presburger/Formula.h"
#include "presburger/Var.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

using namespace omega;

namespace {

AffineExpr var(const std::string &Name) { return AffineExpr::variable(Name); }

/// lo <= v <= hi as two inequalities.
void addRange(Conjunct &C, const std::string &V, int Lo, int Hi) {
  C.add(Constraint::ge(var(V) - AffineExpr(Lo)));
  C.add(Constraint::ge(AffineExpr(Hi) - var(V)));
}

/// A random clause over {x, y}: a bounded box, sometimes a stride on x,
/// sometimes a diagonal coupling.  Boxes are small and close together so
/// unions frequently abut or overlap — the interesting inputs for
/// coalescing — and every variable is bounded, so the enumerate backend
/// can always check the count.
Conjunct randomClause(std::mt19937 &Rng) {
  std::uniform_int_distribution<int> LoD(-6, 18), WidthD(0, 9), CoinD(0, 5);
  Conjunct C;
  addRange(C, "x", LoD(Rng), LoD(Rng) + WidthD(Rng) + 1);
  addRange(C, "y", LoD(Rng), LoD(Rng) + WidthD(Rng) + 1);
  if (CoinD(Rng) == 0)
    C.add(Constraint::stride(BigInt(2 + CoinD(Rng) % 2), var("x")));
  if (CoinD(Rng) == 1)
    C.add(Constraint::ge(AffineExpr(30) - var("x") - var("y")));
  return C;
}

std::vector<Conjunct> randomUnion(std::mt19937 &Rng, size_t MinClauses = 2,
                                  size_t MaxClauses = 8) {
  std::uniform_int_distribution<size_t> ND(MinClauses, MaxClauses);
  std::vector<Conjunct> Clauses;
  size_t N = ND(Rng);
  for (size_t I = 0; I < N; ++I)
    Clauses.push_back(randomClause(Rng));
  return Clauses;
}

/// The seed algorithm, reimplemented on the public pair primitive: scan
/// for the first mergeable pair in position order, apply it, restart.
/// coalesceClauses replaced this loop with the indexed worklist; the
/// fuzz test below holds the two to textual equality.
std::vector<Conjunct> seedCoalesce(std::vector<Conjunct> Clauses) {
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 0; I < Clauses.size() && !Changed; ++I)
      for (size_t J = I + 1; J < Clauses.size() && !Changed; ++J) {
        if (!Clauses[I].wildcards().empty() ||
            !Clauses[J].wildcards().empty())
          continue;
        if (std::optional<Conjunct> M =
                coalescePair(Clauses[I], Clauses[J])) {
          Clauses[I] = std::move(*M);
          Clauses.erase(Clauses.begin() + J);
          Changed = true;
        }
      }
  }
  return Clauses;
}

std::vector<std::string> strings(const std::vector<Conjunct> &Clauses) {
  std::vector<std::string> Out;
  for (const Conjunct &C : Clauses)
    Out.push_back(C.toString());
  return Out;
}

Formula unionFormula(const std::vector<Conjunct> &Clauses) {
  std::vector<Formula> Parts;
  for (const Conjunct &C : Clauses) {
    std::vector<Formula> Atoms;
    for (const Constraint &K : C.constraints())
      Atoms.push_back(Formula::atom(K));
    Parts.push_back(Formula::conj(std::move(Atoms)));
  }
  return Formula::disj(std::move(Parts));
}

/// Counts the union with the given backend from a cold cache.
/// Returns the exact value's string, or nullopt if the backend refused.
std::optional<std::string> countWith(const std::vector<Conjunct> &Clauses,
                                     BackendKind Backend) {
  clearConjunctCache();
  CountOptions CO;
  CO.Backend = Backend;
  CountResult CR = countSolutions(unionFormula(Clauses), VarSet{"x", "y"}, CO);
  if (!CR.exact())
    return std::nullopt;
  // Backends print constants with different parenthesization ("(0)" vs
  // "0"); strip the wrapper so the comparison is about the value.
  std::string S = CR.Value.toString();
  while (S.size() >= 2 && S.front() == '(' && S.back() == ')')
    S = S.substr(1, S.size() - 2);
  return S;
}

//===----------------------------------------------------------------------===//
// Tests
//===----------------------------------------------------------------------===//

TEST(Coalesce, MergesAdjacentIntervals) {
  Conjunct A, B;
  addRange(A, "x", 1, 4);
  addRange(A, "y", 0, 5);
  addRange(B, "x", 5, 9);
  addRange(B, "y", 0, 5);
  std::vector<Conjunct> Clauses{A, B};
  coalesceClauses(Clauses);
  ASSERT_EQ(Clauses.size(), 1u) << "[1,4] and [5,9] must merge into [1,9]";

  // A gap blocks the merge: [1,4] vs [6,9] misses x=5.
  Conjunct Gap;
  addRange(Gap, "x", 6, 9);
  addRange(Gap, "y", 0, 5);
  std::vector<Conjunct> NoMerge{A, Gap};
  coalesceClauses(NoMerge);
  EXPECT_EQ(NoMerge.size(), 2u);
}

TEST(Coalesce, WorklistMatchesSeedOnFuzz) {
  for (unsigned Case = 0; Case < 220; ++Case) {
    std::mt19937 Rng(1000 + Case);
    std::vector<Conjunct> Clauses = randomUnion(Rng);

    clearConjunctCache();
    std::vector<Conjunct> Seed = seedCoalesce(Clauses);

    clearConjunctCache();
    std::vector<Conjunct> Fast = Clauses;
    coalesceClauses(Fast);

    ASSERT_EQ(strings(Fast), strings(Seed))
        << "worklist diverged from the seed restart scan on case " << Case;
  }
}

TEST(Coalesce, Idempotent) {
  for (unsigned Case = 0; Case < 60; ++Case) {
    std::mt19937 Rng(7000 + Case);
    std::vector<Conjunct> Clauses = randomUnion(Rng);
    coalesceClauses(Clauses);
    std::vector<std::string> Once = strings(Clauses);
    coalesceClauses(Clauses);
    EXPECT_EQ(strings(Clauses), Once)
        << "second coalesce pass changed the union on case " << Case;
  }
}

TEST(Coalesce, CountInvariantAcrossBackendsAndOrders) {
  for (unsigned Case = 0; Case < 50; ++Case) {
    std::mt19937 Rng(3000 + Case);
    std::vector<Conjunct> Clauses = randomUnion(Rng, 2, 5);

    std::optional<std::string> Reference =
        countWith(Clauses, BackendKind::Pugh);
    ASSERT_TRUE(Reference) << "Pugh backend refused case " << Case;

    // Coalescing must not change the set.
    std::vector<Conjunct> Coalesced = Clauses;
    coalesceClauses(Coalesced);
    EXPECT_EQ(countWith(Coalesced, BackendKind::Pugh), Reference)
        << "coalescing changed the count on case " << Case;

    // Nor may the input order change it (merges may differ; the set may
    // not).  Every backend that answers must agree.
    std::vector<Conjunct> Shuffled = Clauses;
    std::shuffle(Shuffled.begin(), Shuffled.end(), Rng);
    coalesceClauses(Shuffled);
    EXPECT_EQ(countWith(Shuffled, BackendKind::Pugh), Reference)
        << "clause order changed the coalesced count on case " << Case;

    for (BackendKind BK : {BackendKind::Automaton, BackendKind::Enumerate}) {
      std::optional<std::string> Got = countWith(Coalesced, BK);
      if (Got)
        EXPECT_EQ(*Got, *Reference)
            << backendKindName(BK) << " disagreed on case " << Case;
    }
  }
}

TEST(Coalesce, PreservesPairwiseDisjointness) {
  for (unsigned Case = 0; Case < 40; ++Case) {
    std::mt19937 Rng(5000 + Case);
    std::vector<Conjunct> Disjoint = makeDisjoint(randomUnion(Rng, 2, 5));
    // makeDisjoint may introduce wildcarded splinter clauses, which the
    // pairwise check (and coalescing) excludes.
    std::vector<Conjunct> Plain;
    for (const Conjunct &C : Disjoint)
      if (C.wildcards().empty())
        Plain.push_back(C);
    ASSERT_TRUE(pairwiseDisjoint(Plain)) << "makeDisjoint broke on " << Case;
    coalesceClauses(Plain);
    EXPECT_TRUE(pairwiseDisjoint(Plain))
        << "coalescing reintroduced overlap on case " << Case;
  }
}

TEST(Coalesce, WildcardedClausesAreExcluded) {
  // Two mergeable plain clauses plus one wildcarded clause: the plain
  // pair must still merge, and the wildcarded clause must pass through
  // byte for byte — the worklist may never sample, negate, or merge it.
  Conjunct A, B, W;
  addRange(A, "x", 1, 4);
  addRange(B, "x", 5, 9);
  W.addWildcard(internVar("w"));
  W.add(Constraint::eq(var("x") - BigInt(2) * var("w")));
  addRange(W, "x", 40, 60);
  std::string WText = W.toString();

  std::vector<Conjunct> Clauses{A, W, B};
  coalesceClauses(Clauses);
  ASSERT_EQ(Clauses.size(), 2u);
  bool SawWildcard = false;
  for (const Conjunct &C : Clauses)
    SawWildcard |= C.toString() == WText;
  EXPECT_TRUE(SawWildcard) << "wildcarded clause was modified or merged";
}

} // namespace
