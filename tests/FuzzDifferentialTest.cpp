//===- tests/FuzzDifferentialTest.cpp - Random formulas vs the oracle ----===//
//
// Generates ~200 random bounded formulas per seed (tests/FuzzGen.h) and
// cross-checks the symbolic count from the full pipeline against the
// brute-force enumeration oracle at sampled symbol values.  On failure the
// seed, case index, formula text, and symbol assignment are all printed,
// so any counterexample reproduces with a one-line test filter.
//
//===----------------------------------------------------------------------===//

#include "FuzzGen.h"

#include "baselines/Enumerator.h"
#include "counting/Relation.h"
#include "counting/Summation.h"
#include "omega/Omega.h"
#include "presburger/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

using namespace omega;

namespace {

constexpr int kCasesPerSeed = 200;

/// Symbol values to sample; chosen to straddle the enumeration box (some
/// guards are vacuous or saturated at the extremes, some split inside).
const int64_t kSymbolSamples[] = {-3, 2, 9};

/// Name-sorted (name, value) view of an assignment; Assignment iterates in
/// id order, but everything here that prints or pins symbols wants the
/// stable name order.
std::vector<std::pair<std::string, BigInt>> byName(const Assignment &A) {
  std::vector<std::pair<std::string, BigInt>> Out;
  Out.reserve(A.size());
  for (const auto &[V, Value] : A)
    Out.emplace_back(varName(V), Value);
  std::sort(Out.begin(), Out.end(),
            [](const auto &L, const auto &R) { return L.first < R.first; });
  return Out;
}

std::string describe(const Assignment &A) {
  std::string S;
  for (const auto &KV : byName(A))
    S += KV.first + "=" + KV.second.toString() + " ";
  return S.empty() ? "(no symbols)" : S;
}

class FuzzDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzDifferential, CountMatchesEnumerator) {
  uint64_t Seed = GetParam();
  fuzz::Generator Gen(Seed);
  for (int Case = 0; Case < kCasesPerSeed; ++Case) {
    fuzz::FuzzCase FC = Gen.next();
    SCOPED_TRACE("seed=" + std::to_string(Seed) +
                 " case=" + std::to_string(Case) + " formula: " + FC.Text);

    ParseResult R = parseFormula(FC.Text);
    ASSERT_TRUE(R) << R.Error;

    VarSet Vars(FC.Vars.begin(), FC.Vars.end());
    PiecewiseValue V = countSolutions(*R.Value, Vars).Value;
    ASSERT_FALSE(V.isUnbounded())
        << "box-bounded formula reported as unbounded";

    // Build the symbol assignments to sample: one per sample value, with
    // every symbol set to that value, plus one mixed assignment when two
    // symbols are present.
    std::vector<Assignment> Samples;
    if (FC.Symbols.empty()) {
      Samples.push_back({});
    } else {
      for (int64_t S : kSymbolSamples) {
        Assignment A;
        for (const std::string &Sym : FC.Symbols)
          A[Sym] = BigInt(S);
        Samples.push_back(std::move(A));
      }
      if (FC.Symbols.size() == 2)
        Samples.push_back({{FC.Symbols[0], BigInt(7)},
                           {FC.Symbols[1], BigInt(-2)}});
    }

    for (const Assignment &A : Samples) {
      BigInt Expect =
          enumerateCount(*R.Value, FC.Vars, A, FC.BoxLo, FC.BoxHi,
                         FC.WitnessLo, FC.WitnessHi);
      BigInt Got = V.evaluateInt(A);
      EXPECT_EQ(Got, Expect)
          << "at " << describe(A) << "\nsymbolic answer: " << V.toString();
      if (Got != Expect)
        return; // one counterexample per case is enough to debug
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential,
                         ::testing::Values(uint64_t(17), uint64_t(42)));

//===----------------------------------------------------------------------===//
// Cross-backend differential: every registered backend on every case.
//===----------------------------------------------------------------------===//
//
// The DESIGN.md §14 contract under fuzz: pin each sampled symbol assignment
// into the formula (F ∧ n=v, counting n as one more variable) so the
// concrete backends apply, then demand that automaton, enumerate, and auto
// all return *bit-identical* counts to the enumeration oracle.  A backend
// may refuse (Status::Error with ErrorKind::Unsupported) — that is a skip,
// and every skip is tallied with its reason; any other error, any
// degradation, or any disagreement fails.  Zero silent skips: every
// (case, sample, backend) attempt lands in exactly one of the two tallies.

class CrossBackendDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrossBackendDifferential, AllBackendsAgreeExactly) {
  uint64_t Seed = GetParam();
  fuzz::Generator Gen(Seed);

  const BackendKind kBackends[] = {BackendKind::Automaton,
                                   BackendKind::Enumerate, BackendKind::Auto};
  std::map<std::string, uint64_t> Answered, Skipped;
  std::map<std::string, uint64_t> SkipReasons;
  uint64_t Attempts = 0;

  for (int Case = 0; Case < kCasesPerSeed; ++Case) {
    fuzz::FuzzCase FC = Gen.next();
    SCOPED_TRACE("seed=" + std::to_string(Seed) +
                 " case=" + std::to_string(Case) + " formula: " + FC.Text);

    ParseResult R = parseFormula(FC.Text);
    ASSERT_TRUE(R) << R.Error;

    std::vector<Assignment> Samples;
    if (FC.Symbols.empty()) {
      Samples.push_back({});
    } else {
      for (int64_t S : kSymbolSamples) {
        Assignment A;
        for (const std::string &Sym : FC.Symbols)
          A[Sym] = BigInt(S);
        Samples.push_back(std::move(A));
      }
      if (FC.Symbols.size() == 2)
        Samples.push_back({{FC.Symbols[0], BigInt(7)},
                           {FC.Symbols[1], BigInt(-2)}});
    }

    for (const Assignment &A : Samples) {
      // Independent ground truth: the brute-force sweep at A.
      BigInt Expect =
          enumerateCount(*R.Value, FC.Vars, A, FC.BoxLo, FC.BoxHi,
                         FC.WitnessLo, FC.WitnessHi);

      // Pin the symbols into the formula so the concrete backends apply.
      std::string Pinned = "(" + FC.Text + ")";
      std::vector<std::string> AllVars = FC.Vars;
      for (const auto &KV : byName(A)) {
        Pinned += " && " + KV.first + " = " + KV.second.toString();
        AllVars.push_back(KV.first);
      }
      ParseResult RP = parseFormula(Pinned);
      ASSERT_TRUE(RP) << RP.Error << " in pinned: " << Pinned;
      VarSet Vars(AllVars.begin(), AllVars.end());

      for (BackendKind K : kBackends) {
        CountOptions Opts;
        Opts.Backend = K;
        const char *Name = backendKindName(K);
        SCOPED_TRACE(std::string("backend=") + Name +
                     " at " + describe(A));
        ++Attempts;

        CountResult CR = countSolutions(*RP.Value, Vars, Opts);
        if (CR.Status == CountStatus::Error) {
          // Refusals are the only sanctioned skip, and always carry a
          // reason; anything else is a real failure.
          ASSERT_EQ(CR.Err.Kind, ErrorKind::Unsupported)
              << "non-refusal error: " << CR.Err.toString();
          ASSERT_FALSE(CR.Err.Message.empty()) << "silent refusal";
          ++Skipped[Name];
          ++SkipReasons[std::string(Name) + ": " + CR.Err.Message];
          continue;
        }
        ASSERT_EQ(CR.Status, CountStatus::Exact)
            << "backend degraded on a bounded concrete case";
        BigInt Got = CR.Value.evaluateInt(Assignment{});
        ASSERT_EQ(Got, Expect)
            << "backend " << Name << " (" << CR.Backend
            << ") disagrees with the oracle";
        ++Answered[Name];
      }
    }
  }

  // Full accounting: every attempt is either answered or skipped with a
  // reason, and each backend answered a substantial share (a backend that
  // refuses everything would vacuously "agree").
  uint64_t Total = 0;
  for (BackendKind K : kBackends) {
    const char *Name = backendKindName(K);
    uint64_t Ans = Answered[Name], Skip = Skipped[Name];
    Total += Ans + Skip;
    EXPECT_GE(Ans, (Ans + Skip) / 2)
        << Name << " skipped the majority of cases";
    std::cout << "[cross-backend] seed " << Seed << " " << Name << ": "
              << Ans << " answered, " << Skip << " skipped\n";
  }
  EXPECT_EQ(Total, Attempts) << "attempts leaked from the tally";
  EXPECT_EQ(Skipped["auto"], 0u)
      << "auto must inherit pugh's totality on concrete cases";
  for (const auto &KV : SkipReasons)
    std::cout << "[cross-backend]   skip x" << KV.second << ": " << KV.first
              << "\n";
}

// Three seeds x kCasesPerSeed = 600 generated formulas (>= the 500-case
// floor), disjoint from the FuzzDifferential seeds above.
INSTANTIATE_TEST_SUITE_P(Seeds, CrossBackendDifferential,
                         ::testing::Values(uint64_t(5), uint64_t(23),
                                           uint64_t(91)));

//===----------------------------------------------------------------------===//
// Tuple algebra: set and relation operations on operands whose names collide.
//===----------------------------------------------------------------------===//
//
// Each operand's body is placed over shared coordinates without renaming:
// its labels are bound under ∃ and tied to the coordinates by equalities.
// The enumerator counts those formulas, so the oracle shares nothing with
// the alignment code under test.

constexpr int kTupleCasesPerSeed = 60;
constexpr int64_t kTupleLo = -4, kTupleHi = 8;

/// \p S's body over the coordinates \p Coords.
Formula onCoords(const PresburgerSet &S,
                 const std::vector<std::string> &Coords) {
  std::vector<Formula> Parts{S.body()};
  for (size_t I = 0; I < Coords.size(); ++I)
    Parts.push_back(Formula::atom(
        Constraint::eq(AffineExpr::variable(S.tuple()[I]),
                       AffineExpr::variable(Coords[I]))));
  return Formula::exists(VarSet(S.tuple().begin(), S.tuple().end()),
                         Formula::conj(std::move(Parts)));
}

/// One assignment per sample value, every symbol set to it, plus a mixed
/// one when there are two symbols.
std::vector<Assignment> symbolSamples(const std::vector<std::string> &Syms) {
  std::vector<Assignment> Out;
  for (int64_t V : kSymbolSamples) {
    Assignment A;
    for (const std::string &S : Syms)
      A[S] = BigInt(V);
    Out.push_back(std::move(A));
    if (Syms.empty())
      break;
  }
  if (Syms.size() == 2)
    Out.push_back({{Syms[0], BigInt(7)}, {Syms[1], BigInt(-2)}});
  return Out;
}

BigInt oracleCount(const Formula &F, const std::vector<std::string> &Coords,
                   const Assignment &At) {
  return enumerateCount(F, Coords, At, kTupleLo, kTupleHi, -9, 12);
}

class TupleAlgebraFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TupleAlgebraFuzz, SetOperationsMatchEnumerator) {
  uint64_t Seed = GetParam();
  fuzz::Generator Gen(Seed);
  for (int Case = 0; Case < kTupleCasesPerSeed; ++Case) {
    fuzz::TuplePair P = Gen.nextPair(1 + Case % 2);
    PresburgerSet A(P.TupleA, parseFormulaOrDie(P.TextA));
    PresburgerSet B(P.TupleB, parseFormulaOrDie(P.TextB));
    SCOPED_TRACE("seed=" + std::to_string(Seed) + " case=" +
                 std::to_string(Case) + "\nA = " + A.toString() +
                 "\nB = " + B.toString());
    std::vector<std::string> Coords = {"c0", "c1"};
    Coords.resize(P.TupleA.size());
    PresburgerSet Inter = A.intersect(B), Union = A.unionWith(B),
                  Diff = A.subtract(B);
    bool Subset = A.isSubsetOf(B);
    EXPECT_EQ(Subset, Diff.isEmpty());
    for (const Assignment &At : symbolSamples(P.Symbols)) {
      SCOPED_TRACE("at " + describe(At));
      BigInt CA = A.count().evaluateInt(At), CB = B.count().evaluateInt(At);
      BigInt CI = Inter.count().evaluateInt(At);
      EXPECT_EQ(CI + Union.count().evaluateInt(At), CA + CB);
      EXPECT_EQ(CI, oracleCount(onCoords(A, Coords) && onCoords(B, Coords),
                                Coords, At));
      BigInt Want = oracleCount(onCoords(A, Coords) && !onCoords(B, Coords),
                                Coords, At);
      EXPECT_EQ(Diff.count().evaluateInt(At), Want);
      // Symbol-free, the enumerator decides inclusion outright; with
      // symbols, inclusion must at least hold at every sample.
      if (Subset || P.Symbols.empty())
        EXPECT_EQ(Subset, Want.isZero());
    }
  }
}

TEST_P(TupleAlgebraFuzz, CompositionIsAssociative) {
  uint64_t Seed = GetParam();
  fuzz::Generator Gen(Seed);
  const std::vector<std::string> &Names = fuzz::Generator::TupleNames;
  for (int Case = 0; Case < kTupleCasesPerSeed; ++Case) {
    std::set<std::string> Symbols;
    auto Next = [&] {
      std::vector<std::string> Tuple = Gen.pick(Names, 2);
      std::string Text = Gen.nextBody(Tuple, Names, Symbols);
      return Relation({Tuple[0]}, {Tuple[1]}, parseFormulaOrDie(Text));
    };
    Relation R = Next(), S = Next(), T = Next();
    SCOPED_TRACE("seed=" + std::to_string(Seed) + " case=" +
                 std::to_string(Case) + "\nR = " + R.toString() +
                 "\nS = " + S.toString() + "\nT = " + T.toString());
    Relation Left = R.compose(S).compose(T), Right = R.compose(S.compose(T));
    // { c0 -> c1 : ∃d0, d1. T(c0, d0) ∧ S(d0, d1) ∧ R(d1, c1) }.
    Formula Chain = Formula::exists(
        {"d0", "d1"}, onCoords(T, {"c0", "d0"}) && onCoords(S, {"d0", "d1"}) &&
                          onCoords(R, {"d1", "c1"}));
    for (const Assignment &At :
         symbolSamples({Symbols.begin(), Symbols.end()})) {
      SCOPED_TRACE("at " + describe(At));
      BigInt Want = oracleCount(Chain, {"c0", "c1"}, At);
      EXPECT_EQ(Left.countPairs().evaluateInt(At), Want);
      EXPECT_EQ(Right.countPairs().evaluateInt(At), Want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TupleAlgebraFuzz,
                         ::testing::Values(uint64_t(7), uint64_t(61)));

} // namespace
