//===- tests/DeterminismTest.cpp - Bit-identical answers ------------------===//
//
// The determinism contract (DESIGN.md §8): cache state is a performance
// knob only, and a query's answer is a function of the query alone — the
// piecewise answer must be *textually* identical with the cache on and
// off, and no matter what the process counted or which wildcard names it
// minted before.  This runs a fuzz corpus plus every
// examples/formulas/*.presburger file from a cold cache with the cache on
// and off, comparing the printed results character for character, and
// then recounts after unrelated wildcard mints and counts.
//
//===----------------------------------------------------------------------===//

#include "FuzzGen.h"
#include "tools/FormulaFile.h"

#include "counting/Summation.h"
#include "omega/Omega.h"
#include "presburger/Parser.h"
#include "presburger/Var.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

using namespace omega;

namespace {

/// Counts \p Text over \p Vars with the current cache contents and
/// returns the printed piecewise answer.
std::string countNow(const std::string &Text,
                     const std::vector<std::string> &Vars, bool CacheEnabled) {
  ParseResult R = parseFormula(Text);
  EXPECT_TRUE(R) << R.Error << " in: " << Text;
  if (!R)
    return "<parse error>";
  CountOptions Opts;
  Opts.CacheEnabled = CacheEnabled;
  CountResult CR =
      countSolutions(*R.Value, VarSet(Vars.begin(), Vars.end()), Opts);
  EXPECT_NE(CR.Status, CountStatus::Error) << CR.Err.toString();
  return CR.Value.toString();
}

/// Counts \p Text over \p Vars from a cold cache and returns the printed
/// piecewise answer.
std::string countToString(const std::string &Text,
                          const std::vector<std::string> &Vars,
                          bool CacheEnabled) {
  clearConjunctCache();
  return countNow(Text, Vars, CacheEnabled);
}

/// Asserts the answer for (Text, Vars) is identical with the cache on and
/// off.
void expectDeterministic(const std::string &Label, const std::string &Text,
                         const std::vector<std::string> &Vars) {
  SCOPED_TRACE(Label + ": " + Text);
  std::string Reference = countToString(Text, Vars, /*CacheEnabled=*/true);
  std::string NoCache = countToString(Text, Vars, /*CacheEnabled=*/false);
  EXPECT_EQ(NoCache, Reference) << "cache-off diverged";
}

struct Query {
  std::string Label, Text;
  std::vector<std::string> Vars;
};

/// Every examples/formulas/*.presburger file, sorted by path.
std::vector<Query> exampleQueries() {
  namespace fs = std::filesystem;
  std::vector<std::string> Paths;
  for (const fs::directory_entry &E : fs::directory_iterator(EXAMPLES_DIR))
    if (E.path().extension() == ".presburger")
      Paths.push_back(E.path().string());
  std::sort(Paths.begin(), Paths.end());
  EXPECT_FALSE(Paths.empty()) << "no .presburger files under " << EXAMPLES_DIR;
  std::vector<Query> Out;
  for (const std::string &Path : Paths) {
    FormulaFile FF;
    std::string Err;
    EXPECT_TRUE(readFormulaFile(Path, FF, Err)) << Path << ": " << Err;
    Out.push_back({Path, FF.FormulaText, FF.Vars});
  }
  return Out;
}

TEST(Determinism, FuzzCorpus) {
  fuzz::Generator Gen(/*Seed=*/7);
  for (int Case = 0; Case < 40; ++Case) {
    fuzz::FuzzCase FC = Gen.next();
    expectDeterministic("fuzz case " + std::to_string(Case), FC.Text,
                        FC.Vars);
  }
}

TEST(Determinism, ExampleFormulas) {
  for (const Query &Q : exampleQueries())
    expectDeterministic(Q.Label, Q.Text, Q.Vars);
}

/// The naming invariant (DESIGN.md §8): wildcard names, and with them the
/// name-based orderings that shape a printed answer, must not depend on
/// process history.  Each query is counted once, then the process mints
/// unrelated wildcards and runs unrelated counts, and the recount must
/// print the same answer.
TEST(Determinism, AnswersIndependentOfWildcardHistory) {
  std::vector<Query> Queries = exampleQueries();
  // An omegad-open query whose printed answer once moved after seven
  // unrelated freshWildcard() mints.
  Queries.push_back({"strided",
                     "2 <= i <= n + -1 && i <= j <= m + 3 && 3 | i + j + 0",
                     {"i", "j"}});
  const std::vector<Query> Unrelated = {
      {"triangle", "1 <= i <= j <= n", {"i", "j"}},
      {"exists", "exists(k: i = 2*k) && 0 <= i <= n", {"i"}},
      {"union", "(1 <= i <= n && 1 <= j <= 3) || (5 <= j <= i <= m)",
       {"i", "j"}},
  };
  for (bool Cache : {true, false}) {
    std::vector<std::string> Reference;
    for (const Query &Q : Queries)
      Reference.push_back(countToString(Q.Text, Q.Vars, Cache));
    for (unsigned Mints : {7u, 90u, 900u}) {
      for (unsigned I = 0; I < Mints; ++I)
        (void)freshWildcard();
      for (const Query &U : Unrelated)
        (void)countNow(U.Text, U.Vars, Cache);
      for (size_t I = 0; I < Queries.size(); ++I) {
        SCOPED_TRACE(Queries[I].Label + ": " + Queries[I].Text);
        clearConjunctCache();
        EXPECT_EQ(countNow(Queries[I].Text, Queries[I].Vars, Cache),
                  Reference[I])
            << "answer moved after " << Mints
            << " unrelated wildcard mints (cache " << (Cache ? "on" : "off")
            << ")";
      }
    }
  }
}

/// The symbol table is bounded per query shape (DESIGN.md §16): each query
/// mints its wildcards under one pinned scope, so its names are a function
/// of the query alone and repeat from query to query.  A stream of
/// distinct queries therefore grows the table only by the largest number
/// of names one query mints — far fewer names than queries — and
/// replaying the stream grows it by nothing.  Alternating the cache covers
/// both the cached path and the uncached one.
TEST(Determinism, SymbolTableFlatAcrossDistinctQueries) {
  std::vector<fuzz::FuzzCase> Stream;
  fuzz::Generator Gen(/*Seed=*/23);
  for (int Q = 0; Q < 1000; ++Q)
    Stream.push_back(Gen.next());
  auto RunStream = [&] {
    for (size_t Q = 0; Q < Stream.size(); ++Q) {
      SCOPED_TRACE("query " + std::to_string(Q) + ": " + Stream[Q].Text);
      (void)countNow(Stream[Q].Text, Stream[Q].Vars,
                     /*CacheEnabled=*/Q % 2 == 0);
    }
  };
  const uint32_t Before = varTableSize();
  RunStream();
  const uint32_t Warm = varTableSize();
  EXPECT_LT(Warm - Before, Stream.size() / 10)
      << "the table grew with the number of distinct queries";
  RunStream();
  EXPECT_EQ(varTableSize(), Warm)
      << "the second half of the run interned new names";
}

} // namespace
