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
#include "counting/Summation.h"
#include "omega/Omega.h"
#include "presburger/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <map>
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

} // namespace
