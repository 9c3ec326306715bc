//===- tests/DeterminismTest.cpp - Bit-identical answers ------------------===//
//
// The determinism contract (DESIGN.md §8): cache state is a performance
// knob only, and a query's answer is a function of the query alone — the
// piecewise answer must be *textually* identical with the cache on and
// off, and no matter what the process counted or which names it interned
// before.  This runs a fuzz corpus plus every
// examples/formulas/*.presburger file from a cold cache with the cache on
// and off, comparing the printed results character for character, and
// then recounts after unrelated symbols and counts.
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
#include <set>
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

/// A clause's wildcards are its own (DESIGN.md §8): the names a query
/// mints, and with them the name-based orderings that shape a printed
/// answer, depend on its clauses alone, not on process history.  Each
/// query is counted once, then the process interns unrelated symbols (which
/// moves later ids) and runs unrelated counts, and the recount must print
/// the same answer.
TEST(Determinism, AnswersIndependentOfWildcardHistory) {
  std::vector<Query> Queries = exampleQueries();
  // An omegad-open query whose printed answer once moved with the history
  // of wildcard names minted before it.
  Queries.push_back({"strided",
                     "2 <= i <= n + -1 && i <= j <= m + 3 && 3 | i + j + 0",
                     {"i", "j"}});
  const std::vector<Query> Unrelated = {
      {"triangle", "1 <= i <= j <= n", {"i", "j"}},
      {"exists", "exists(k: i = 2*k) && 0 <= i <= n", {"i"}},
      {"union", "(1 <= i <= n && 1 <= j <= 3) || (5 <= j <= i <= m)",
       {"i", "j"}},
      {"floor", fuzz::nonLinearCase(3).Text, {"i"}},
  };
  unsigned Round = 0;
  for (bool Cache : {true, false}) {
    std::vector<std::string> Reference;
    for (const Query &Q : Queries)
      Reference.push_back(countToString(Q.Text, Q.Vars, Cache));
    for (unsigned Symbols : {7u, 90u, 900u}) {
      for (unsigned I = 0; I < Symbols; ++I)
        (void)internVar("history" + std::to_string(Round) + "_" +
                        std::to_string(I));
      ++Round;
      for (const Query &U : Unrelated)
        (void)countNow(U.Text, U.Vars, Cache);
      for (size_t I = 0; I < Queries.size(); ++I) {
        SCOPED_TRACE(Queries[I].Label + ": " + Queries[I].Text);
        clearConjunctCache();
        EXPECT_EQ(countNow(Queries[I].Text, Queries[I].Vars, Cache),
                  Reference[I])
            << "answer moved after " << Symbols
            << " unrelated symbols (cache " << (Cache ? "on" : "off")
            << ")";
      }
    }
  }
}

/// Atoms order by name, never by id (DESIGN.md §16): the atoms of a
/// monomial, and so the printed answer, must not follow the order in which
/// the symbols were interned.  Two fresh symbol pairs, one interned in
/// alphabetical order and one in reverse, count the same formula with a
/// two-symbol monomial and a mod atom; renamed onto each other, the answers
/// print the same.
TEST(Determinism, AtomOrderIndependentOfInterningOrder) {
  const std::string Fwd = "atomorder_fwd_", Rev = "atomorder_rev_";
  (void)internVar(Fwd + "m");
  (void)internVar(Fwd + "n");
  (void)internVar(Rev + "n");
  (void)internVar(Rev + "m");
  auto Printed = [](const std::string &Stem) {
    ParseResult R = parseFormula("1 <= i <= " + Stem + "n && 1 <= j <= " +
                                 Stem + "m && 2 | i");
    EXPECT_TRUE(R) << R.Error;
    CountOptions Opts;
    Opts.Strategy = BoundStrategy::SymbolicMod;
    std::string Out =
        countSolutions(*R.Value, {"i", "j"}, Opts).Value.toString();
    for (size_t At; (At = Out.find(Stem)) != std::string::npos;)
      Out.replace(At, Stem.size(), "s_");
    return Out;
  };
  const std::string Answer = Printed(Fwd);
  EXPECT_NE(Answer.find("s_m*s_n"), std::string::npos) << Answer;
  EXPECT_NE(Answer.find("mod 2"), std::string::npos) << Answer;
  EXPECT_EQ(Printed(Rev), Answer);
}

/// The symbol table holds user symbols only (DESIGN.md §16): a wildcard's
/// id is its name, so neither parsing a floor/ceil/mod nor counting
/// interns anything.  A stream of distinct queries therefore grows the
/// table by exactly the stream's user symbols it had not seen, and
/// replaying the stream grows it by nothing.  Alternating the cache covers
/// both the cached path and the uncached one.
TEST(Determinism, SymbolTableFlatAcrossDistinctQueries) {
  std::vector<fuzz::FuzzCase> Stream;
  fuzz::Generator Gen(/*Seed=*/23);
  for (unsigned Q = 0; Q < 1000; ++Q)
    Stream.push_back(Q % 20 == 0 ? fuzz::nonLinearCase(Q / 20) : Gen.next());
  std::set<std::string> Unseen;
  for (const fuzz::FuzzCase &FC : Stream)
    for (const std::string &Name : fuzz::userNames(FC.Text))
      if (!lookupVar(Name).valid())
        Unseen.insert(Name);
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
  EXPECT_EQ(Warm - Before, Unseen.size())
      << "the table grew by more than the stream's user symbols";
  RunStream();
  EXPECT_EQ(varTableSize(), Warm)
      << "the second half of the run interned new names";
}

} // namespace
