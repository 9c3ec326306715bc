//===- tests/TermStorageTest.cpp - Flat term storage vs map model --------===//
//
// Property tests for the flat id-sorted term array behind AffineExpr
// (DESIGN.md §16).  Every mutating operation — add, subtract, scale,
// exact-divide, substitute, setCoeff — is applied in lockstep to a
// string-keyed std::map reference model (the representation the flat
// array replaced), and the full term lists are compared after each step.
// The fixed-seed workload deliberately straddles the InlineCapacity
// boundary so both the inline buffer and the spilled heap array are
// exercised, along with the 4->5-term crossing itself.
//
// Also covered here: operator< agreeing with the documented name-ordered
// lexicographic contract, re-inlining on copy after a shrink, and the
// wildcard role bit on VarId.
//
//===----------------------------------------------------------------------===//

#include "presburger/AffineExpr.h"
#include "presburger/Var.h"
#include "presburger/VarTable.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <vector>

using omega::AffineExpr;
using omega::BigInt;
using omega::internVar;
using omega::VarId;

namespace {

/// The representation AffineExpr used before interning: constant plus
/// name-keyed coefficient map with the same zero-elision invariant.
struct RefExpr {
  BigInt Const;
  std::map<std::string, BigInt> Terms;

  void setCoeff(const std::string &Name, BigInt C) {
    if (C.isZero())
      Terms.erase(Name);
    else
      Terms[Name] = std::move(C);
  }

  void addScaled(const RefExpr &R, const BigInt &Scale) {
    Const += R.Const * Scale;
    for (const auto &[Name, C] : R.Terms) {
      BigInt Sum = Terms.count(Name) ? Terms[Name] + C * Scale : C * Scale;
      setCoeff(Name, std::move(Sum));
    }
  }

  void scale(const BigInt &F) {
    if (F.isZero()) {
      Const = BigInt(0);
      Terms.clear();
      return;
    }
    Const *= F;
    for (auto &[Name, C] : Terms)
      C *= F;
  }

  // Matches AffineExpr::divCoeffsExact: variable coefficients only — the
  // stride-normalization shape, where the caller owns the constant.
  void divExact(const BigInt &G) {
    for (auto &[Name, C] : Terms)
      C /= G;
  }

  void substitute(const std::string &Name, const RefExpr &Replacement) {
    auto It = Terms.find(Name);
    if (It == Terms.end())
      return;
    BigInt C = It->second;
    Terms.erase(It);
    addScaled(Replacement, C);
  }

  BigInt coeffGcd() const {
    BigInt G(0);
    for (const auto &[Name, C] : Terms)
      G = BigInt::gcd(G, C);
    return G;
  }
};

/// Canonical comparison key per the documented operator< contract:
/// constant first, then (name, coeff) pairs in name order, shorter list
/// comparing less on a shared prefix.
std::vector<std::pair<std::string, BigInt>> refKey(const RefExpr &E) {
  return {E.Terms.begin(), E.Terms.end()};
}

bool refLess(const RefExpr &L, const RefExpr &R) {
  if (L.Const != R.Const)
    return L.Const < R.Const;
  return refKey(L) < refKey(R);
}

/// Full structural comparison: constant, term count, and every (name,
/// coeff) pair, walking the flat expression in name order so the two
/// iteration orders line up.
void expectSame(const AffineExpr &Flat, const RefExpr &Ref,
                const std::string &Context) {
  EXPECT_EQ(Flat.constant().toString(), Ref.Const.toString()) << Context;
  ASSERT_EQ(Flat.numVars(), Ref.Terms.size()) << Context;
  auto It = Ref.Terms.begin();
  Flat.forEachTermByName([&](VarId V, const BigInt &C) {
    ASSERT_NE(It, Ref.Terms.end()) << Context;
    EXPECT_EQ(omega::varName(V), It->first) << Context;
    EXPECT_EQ(C.toString(), It->second.toString()) << Context;
    ++It;
  });
  EXPECT_EQ(It, Ref.Terms.end()) << Context;
}

/// Six names: wider than InlineCapacity (4) so random expressions cross
/// the inline->spill boundary, single-letter so name order is obvious.
const std::vector<std::string> &roster() {
  static const std::vector<std::string> Names = {"a", "b", "i", "j", "k",
                                                 "n"};
  return Names;
}

struct Pair {
  AffineExpr Flat;
  RefExpr Ref;
};

Pair randomPair(std::mt19937 &Rng) {
  std::uniform_int_distribution<int> CoefDist(-50, 50);
  std::uniform_int_distribution<size_t> CountDist(0, roster().size());
  Pair P;
  BigInt K(CoefDist(Rng));
  P.Flat.setConstant(K);
  P.Ref.Const = K;
  size_t Count = CountDist(Rng);
  for (size_t I = 0; I < Count; ++I) {
    const std::string &Name = roster()[I];
    BigInt C(CoefDist(Rng));
    P.Flat.setCoeff(internVar(Name), C);
    P.Ref.setCoeff(Name, C);
  }
  return P;
}

} // namespace

TEST(TermStorageTest, DifferentialRandomOps) {
  std::mt19937 Rng(20260808);
  std::uniform_int_distribution<int> OpDist(0, 5);
  std::uniform_int_distribution<int> CoefDist(-50, 50);
  std::uniform_int_distribution<size_t> VarDist(0, roster().size() - 1);

  std::vector<Pair> Pool;
  for (int I = 0; I < 16; ++I)
    Pool.push_back(randomPair(Rng));

  for (int Step = 0; Step < 4000; ++Step) {
    Pair &P = Pool[Step % Pool.size()];
    const Pair &Q = Pool[VarDist(Rng) % Pool.size()];
    std::string Ctx = "step " + std::to_string(Step);
    switch (OpDist(Rng)) {
    case 0: { // add
      if (&P == &Q)
        break;
      P.Flat += Q.Flat;
      P.Ref.addScaled(Q.Ref, BigInt(1));
      break;
    }
    case 1: { // subtract
      if (&P == &Q)
        break;
      P.Flat -= Q.Flat;
      P.Ref.addScaled(Q.Ref, BigInt(-1));
      break;
    }
    case 2: { // scale
      BigInt F(CoefDist(Rng));
      P.Flat *= F;
      P.Ref.scale(F);
      break;
    }
    case 3: { // gcd-normalize, the canonicalization shape
      BigInt G = P.Flat.coeffGcd();
      EXPECT_EQ(G.toString(), P.Ref.coeffGcd().toString()) << Ctx;
      if (!G.isZero()) {
        P.Flat.divCoeffsExact(G);
        P.Ref.divExact(G);
      }
      break;
    }
    case 4: { // substitute a roster var with a small expression
      const std::string &Target = roster()[VarDist(Rng)];
      Pair Rep;
      BigInt K(CoefDist(Rng));
      Rep.Flat.setConstant(K);
      Rep.Ref.Const = K;
      const std::string &Other =
          roster()[(VarDist(Rng) + 1) % roster().size()];
      if (Other != Target) {
        BigInt C(CoefDist(Rng));
        Rep.Flat.setCoeff(internVar(Other), C);
        Rep.Ref.setCoeff(Other, C);
      }
      P.Flat.substitute(internVar(Target), Rep.Flat);
      P.Ref.substitute(Target, Rep.Ref);
      break;
    }
    default: { // point coefficient write (including zero = erase)
      const std::string &Name = roster()[VarDist(Rng)];
      BigInt C(CoefDist(Rng));
      P.Flat.setCoeff(internVar(Name), C);
      P.Ref.setCoeff(Name, C);
      break;
    }
    }
    expectSame(P.Flat, P.Ref, Ctx);
  }
}

TEST(TermStorageTest, CompareMatchesReferenceModel) {
  std::mt19937 Rng(4257);
  std::vector<Pair> Pool;
  for (int I = 0; I < 48; ++I)
    Pool.push_back(randomPair(Rng));
  for (size_t I = 0; I < Pool.size(); ++I)
    for (size_t J = 0; J < Pool.size(); ++J) {
      bool FlatLess = Pool[I].Flat < Pool[J].Flat;
      bool RefLess = refLess(Pool[I].Ref, Pool[J].Ref);
      EXPECT_EQ(FlatLess, RefLess) << Pool[I].Flat.toString() << " vs "
                                   << Pool[J].Flat.toString();
      bool FlatEq = Pool[I].Flat == Pool[J].Flat;
      EXPECT_EQ(FlatEq, !RefLess && !refLess(Pool[J].Ref, Pool[I].Ref));
      if (FlatEq)
        EXPECT_EQ(Pool[I].Flat.hash(), Pool[J].Flat.hash());
    }
}

TEST(TermStorageTest, InlineSpillBoundary) {
  AffineExpr E;
  EXPECT_TRUE(E.isInlineRep());
  // Terms 1..InlineCapacity stay in the inline buffer.
  for (uint32_t I = 0; I < AffineExpr::InlineCapacity; ++I) {
    E.setCoeff(internVar(roster()[I]), BigInt(int(I) + 1));
    EXPECT_TRUE(E.isInlineRep()) << "term " << I + 1;
  }
  uint64_t SpillsBefore = omega::exprCounters().Spills.load();
  // Term InlineCapacity+1 spills to the heap, exactly once.
  E.setCoeff(internVar(roster()[AffineExpr::InlineCapacity]), BigInt(99));
  EXPECT_FALSE(E.isInlineRep());
  EXPECT_EQ(omega::exprCounters().Spills.load(), SpillsBefore + 1);
  EXPECT_EQ(E.numVars(), AffineExpr::InlineCapacity + 1);

  // Shrinking back to InlineCapacity keeps the heap array (no shuffle on
  // the hot path), but a copy re-inlines: the copy constructor sizes to
  // the live term count, not the source capacity.
  E.setCoeff(internVar(roster()[AffineExpr::InlineCapacity]), BigInt(0));
  EXPECT_FALSE(E.isInlineRep());
  EXPECT_EQ(E.numVars(), AffineExpr::InlineCapacity);
  AffineExpr Copy(E);
  EXPECT_TRUE(Copy.isInlineRep());
  EXPECT_TRUE(Copy == E);
  EXPECT_EQ(Copy.hash(), E.hash());
  EXPECT_EQ(Copy.toString(), E.toString());

  // Move of a spilled expression steals the heap array wholesale.
  AffineExpr Moved(std::move(E));
  EXPECT_FALSE(Moved.isInlineRep());
  EXPECT_TRUE(Moved == Copy);
}

TEST(TermStorageTest, WildcardRoleBits) {
  VarId Named = omega::internVar("storage_test_named");
  EXPECT_FALSE(Named.isWildcard());
  EXPECT_EQ(omega::lookupVar("storage_test_named"), Named);
  EXPECT_EQ(omega::internVar("storage_test_named"), Named);

  // A wildcard's id is its name: "$<n>" is the role bit plus n, and it
  // round-trips through lookup without a table entry.
  const uint32_t Size = omega::varTableSize();
  VarId Wild = omega::wildcardVar(9);
  EXPECT_TRUE(Wild.isWildcard());
  EXPECT_EQ(omega::varName(Wild), "$9");
  EXPECT_EQ(omega::lookupVar("$9"), Wild);
  EXPECT_EQ(omega::internVar("$9"), Wild);
  EXPECT_EQ(omega::varTableSize(), Size);
  EXPECT_NE(Wild, Named);
  // Only the canonical spelling is a wildcard: "$09" is not "$9", and an
  // index past the id space is no wildcard at all.
  EXPECT_FALSE(omega::lookupVar("$09").valid());
  EXPECT_FALSE(omega::lookupVar("$99999999999").valid());

  // Wildcards participate in expressions like any other variable, and
  // observable orderings go through names, not raw ids.
  AffineExpr E = AffineExpr::variable(Wild) * BigInt(3);
  EXPECT_TRUE(E.mentions(Wild));
  EXPECT_EQ(E.coeff(Wild).toString(), "3");
  EXPECT_EQ(E.toString(), "3*" + omega::varName(Wild));

  VarId Wild2 = omega::wildcardVar(10);
  EXPECT_TRUE(Wild2.isWildcard());
  EXPECT_NE(Wild2, Wild);
  int BySlot = omega::compareVarNames(Wild, Wild2);
  int ByName = omega::varName(Wild).compare(omega::varName(Wild2));
  EXPECT_EQ(BySlot < 0, ByName < 0);
  EXPECT_EQ(BySlot > 0, ByName > 0);
}
