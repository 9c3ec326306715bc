//===- tests/BadInputCorpusTest.cpp - Malformed inputs never abort -------===//
//
// Sweeps tests/corpus/bad/*.presburger — truncated tokens, unbalanced
// quantifiers, overflow-size literals, empty clauses, broken directives —
// asserting every file yields a recoverable diagnostic (from the file
// reader or the parser) and never a process abort.
//
//===----------------------------------------------------------------------===//

#include "presburger/Parser.h"
#include "support/Budget.h"
#include "tools/FormulaFile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

using namespace omega;

namespace {

std::vector<std::string> corpusFiles() {
  std::vector<std::string> Out;
  for (const auto &Entry :
       std::filesystem::directory_iterator(CORPUS_BAD_DIR))
    if (Entry.path().extension() == ".presburger")
      Out.push_back(Entry.path().string());
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// Reads and parses one corpus file the way the tools do, under a
/// coefficient-width budget so oversized literals are rejected at parse
/// time.  Returns the diagnostic; empty means everything (wrongly)
/// succeeded.
std::string diagnoseFile(const std::string &Path) {
  FormulaFile In;
  std::string Err;
  if (!readFormulaFile(Path, In, Err))
    return Err;
  EffortBudget B;
  B.MaxCoefficientBits = 64;
  BudgetScope Scope(B);
  ParseResult R = parseFormula(In.FormulaText);
  if (!R)
    return R.Error;
  return "";
}

TEST(BadInputCorpusTest, CorpusIsNonEmpty) {
  EXPECT_GE(corpusFiles().size(), 8u);
}

TEST(BadInputCorpusTest, EveryFileYieldsRecoverableDiagnostic) {
  for (const std::string &Path : corpusFiles())
    EXPECT_FALSE(diagnoseFile(Path).empty())
        << Path << " produced no diagnostic";
}

TEST(BadInputCorpusTest, DirectiveDiagnosticsCarryLineNumbers) {
  FormulaFile In;
  std::string Err;
  ASSERT_FALSE(readFormulaFile(
      std::string(CORPUS_BAD_DIR) + "/bad_box.presburger", In, Err));
  EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
}

TEST(BadInputCorpusTest, ParseDiagnosticsCarryOffsets) {
  FormulaFile In;
  std::string Err;
  ASSERT_TRUE(readFormulaFile(
      std::string(CORPUS_BAD_DIR) + "/truncated_token.presburger", In, Err))
      << Err;
  ParseResult R = parseFormula(In.FormulaText);
  ASSERT_FALSE(R);
  EXPECT_NE(R.Error.find("offset"), std::string::npos) << R.Error;
}

} // namespace
