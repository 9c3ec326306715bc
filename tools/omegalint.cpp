//===- tools/omegalint.cpp - IR invariant linter -------------------------===//
//
// Runs every stage of the counting pipeline with the analysis Validator
// enabled, and cross-checks the symbolic count against the brute-force
// enumeration oracle at sampled symbolic-constant values:
//
//   omegalint examples/formulas            # every *.presburger underneath
//   omegalint formula.presburger ...
//
// File format (one formula per file):
//
//   # comment
//   vars: i, j            counted variables (required)
//   box: -8 24            enumeration box for the cross-check (optional)
//   1 <= i <= n           remaining lines are joined into the formula
//   && i <= j <= n
//
// Exit status is nonzero iff any file fails to parse, any stage reports an
// Error diagnostic, or a symbolic count disagrees with enumeration.
//
// Options:
//   --no-enumerate     skip the enumeration cross-check (structure only)
//   --verbose          print each symbol sample as it is checked
//   plus the shared pipeline flags of tools/Options.h:
//   --cache/--no-cache/--budget/--stats/--trace/--trace-summary
//
//===----------------------------------------------------------------------===//

#include "analysis/Validator.h"
#include "baselines/Enumerator.h"
#include "omega/Omega.h"
#include "presburger/Parser.h"
#include "support/Stats.h"

#include "FormulaFile.h"
#include "Options.h"

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace omega;

namespace {

struct LintStats {
  int Files = 0;
  int Problems = 0;
  int Samples = 0;
};

bool Verbose = false;
bool Enumerate = true;
ToolOptions TO;

void problem(LintStats &Stats, const std::string &Path,
             const std::string &Msg) {
  std::cerr << "omegalint: " << Path << ": " << Msg << "\n";
  ++Stats.Problems;
}

/// Reports diagnostics; returns the number of Errors (Warnings are printed
/// but do not fail the lint).
int reportDiags(LintStats &Stats, const std::string &Path,
                const char *Stage, const std::vector<Diagnostic> &Diags) {
  int Errors = 0;
  for (const Diagnostic &D : Diags) {
    std::cerr << "omegalint: " << Path << ": " << Stage << ": "
              << D.toString() << "\n";
    if (D.Sev == Severity::Error)
      ++Errors;
  }
  Stats.Problems += Errors;
  return Errors;
}

/// Sampled values for one symbolic constant.  Small nonnegative values keep
/// the solution sets inside the enumeration box; 0/1 exercise empty and
/// degenerate ranges.
const int64_t SymbolSamples[] = {0, 1, 2, 3, 5, 8};

/// Enumerates assignments of SymbolSamples to \p Symbols, capped to keep
/// the cross-check cost bounded for formulas with many symbols.
std::vector<Assignment> sampleAssignments(const VarSet &Symbols) {
  std::vector<Assignment> Out{Assignment{}};
  for (VarId S : Symbols) {
    std::vector<Assignment> Next;
    for (const Assignment &A : Out)
      for (int64_t V : SymbolSamples) {
        Assignment B = A;
        B[S] = BigInt(V);
        Next.push_back(std::move(B));
      }
    Out = std::move(Next);
    if (Out.size() > 36) { // Cap the cross product; keep a spread.
      std::vector<Assignment> Kept;
      for (size_t I = 0; I < Out.size(); I += Out.size() / 36 + 1)
        Kept.push_back(Out[I]);
      Out = std::move(Kept);
    }
  }
  return Out;
}

void lintFile(const std::string &Path, LintStats &Stats) {
  ++Stats.Files;
  FormulaFile In;
  std::string Err;
  if (!readFormulaFile(Path, In, Err)) {
    problem(Stats, Path, Err);
    return;
  }

  // Stage 1: parse.
  ParseResult R = parseFormula(In.FormulaText);
  if (!R) {
    problem(Stats, Path, "parse: " + R.Error);
    return;
  }
  Formula F = *R.Value;

  // Stage 2: source formula structure (no normalization requirement:
  // user-written atoms like "2i <= 4" are legal input).
  reportDiags(Stats, Path, "formula", validateFormula(F));

  // Stage 3: disjoint DNF with the full invariant set.
  SimplifyOptions SOpts;
  SOpts.Disjoint = true;
  std::vector<Conjunct> D = simplify(F, SOpts);
  ValidatorOptions DnfOpts;
  DnfOpts.RequireWildcardFree = true;
  DnfOpts.RequireNormalized = true;
  DnfOpts.RequireDisjoint = true;
  DnfOpts.Overlaps = [](const Conjunct &A, const Conjunct &B) {
    return feasible(Conjunct::merge(A, B));
  };
  int DnfErrors = reportDiags(Stats, Path, "disjoint-dnf",
                              validateDnf(D, std::move(DnfOpts)));

  // Stage 4: symbolic count.  A query's own options win over the
  // tool-level scope, so the shared flags (--no-cache, --budget,
  // --backend) reach the count only through TO.Count.
  VarSet Vars(In.Vars.begin(), In.Vars.end());
  CountResult CR = countSolutions(F, Vars, TO.Count);
  if (CR.Status == CountStatus::Error) {
    problem(Stats, Path, "count: " + CR.Err.toString());
    return;
  }
  if (CR.Status == CountStatus::Bounded) {
    problem(Stats, Path, "count: budget exhausted: " + CR.TrippedLimit);
    return;
  }
  const PiecewiseValue &V = CR.Value;
  reportDiags(Stats, Path, "count", validatePiecewise(V));

  std::cout << Path << ": " << D.size() << " clause"
            << (D.size() == 1 ? "" : "s") << ", count = " << V << "\n";

  if (V.isUnbounded()) {
    problem(Stats, Path, "count is unbounded; nothing to cross-check");
    return;
  }
  if (!Enumerate || DnfErrors > 0)
    return;

  // Stage 5: cross-check against enumeration at sampled symbol values.
  VarSet Symbols;
  for (VarId S : F.freeVars())
    if (!Vars.contains(S))
      Symbols.insert(S);
  int Agreed = 0, Checked = 0;
  for (const Assignment &At : sampleAssignments(Symbols)) {
    BigInt Exact = enumerateCount(F, In.Vars, At, In.BoxLo, In.BoxHi,
                                  In.BoxLo - 4, In.BoxHi + 4);
    Rational Symbolic = V.evaluate(At);
    ++Checked;
    ++Stats.Samples;
    std::ostringstream Where;
    {
      // Name order (Assignment iterates in id order).
      std::vector<std::pair<std::string, const BigInt *>> Rows;
      Rows.reserve(At.size());
      for (const auto &[V, Value] : At)
        Rows.emplace_back(varName(V), &Value);
      std::sort(Rows.begin(), Rows.end(),
                [](const auto &L, const auto &R) { return L.first < R.first; });
      for (const auto &[Name, Value] : Rows)
        Where << " " << Name << "=" << *Value;
    }
    if (!Symbolic.isInteger() || Symbolic.asInteger() != Exact) {
      problem(Stats, Path,
              "count mismatch at" + Where.str() + ": symbolic " +
                  Symbolic.toString() + " != enumerated " + Exact.toString());
      continue;
    }
    ++Agreed;
    if (Verbose)
      std::cout << "  at" << Where.str() << ": symbolic "
                << Symbolic.toString() << " == enumerated "
                << Exact.toString() << "\n";
  }
  std::cout << "  cross-check: " << Agreed << "/" << Checked
            << " symbol samples agree\n";
}

/// One file must never take down the whole lint run: any escape from the
/// pipeline — including a per-file budget trip under --budget — becomes a
/// problem report and the sweep continues.
void lintOne(const std::string &Path, LintStats &Stats) {
  try {
    BudgetScope Scope(TO.Count.Budget);
    lintFile(Path, Stats);
  } catch (const std::exception &E) {
    problem(Stats, Path, E.what());
  }
}

} // namespace

int runTool(int Argc, char **Argv) {
  std::vector<std::string> Paths;
  auto Fail = [](const std::string &Msg) {
    std::cerr << "omegalint: error: " << Msg << "\n";
    std::exit(1);
  };
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (parseSharedOption(Argc, Argv, I, TO, Fail))
      continue;
    if (Arg == "--verbose")
      Verbose = true;
    else if (Arg == "--no-enumerate")
      Enumerate = false;
    else if (Arg == "--help" || Arg == "-h") {
      std::cout << "usage: omegalint [--verbose] [--no-enumerate] "
                   "[shared options] <file-or-dir>...\n"
                << sharedOptionsHelp();
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::cerr << "omegalint: unknown option: " << Arg << "\n";
      return 1;
    } else
      Paths.push_back(Arg);
  }
  if (Paths.empty()) {
    std::cerr << "omegalint: no inputs (try --help)\n";
    return 1;
  }
  // Install the tool-level query environment (cache, stats
  // collection) for the whole sweep.
  ToolQueryScope QueryScope(TO);
  ToolTrace Trace(TO);

  LintStats Stats;
  for (const std::string &P : Paths) {
    std::error_code EC;
    if (std::filesystem::is_directory(P, EC)) {
      std::vector<std::string> Found;
      for (const auto &Entry :
           std::filesystem::recursive_directory_iterator(P, EC))
        if (Entry.is_regular_file() &&
            Entry.path().extension() == ".presburger")
          Found.push_back(Entry.path().string());
      std::sort(Found.begin(), Found.end());
      if (Found.empty())
        problem(Stats, P, "no .presburger files found");
      for (const std::string &F : Found)
        lintOne(F, Stats);
    } else {
      lintOne(P, Stats);
    }
  }

  std::cout << "omegalint: " << Stats.Files << " file"
            << (Stats.Files == 1 ? "" : "s") << ", " << Stats.Samples
            << " enumeration sample" << (Stats.Samples == 1 ? "" : "s")
            << ", " << Stats.Problems << " problem"
            << (Stats.Problems == 1 ? "" : "s") << "\n";
  if (!Trace.finish("omegalint"))
    ++Stats.Problems;
  if (TO.Stats)
    std::cerr << snapshotPipelineStats().toPretty();
  // Exit codes come from the shared QueryOutcome vocabulary: a problem in
  // any file is an input diagnostic for the sweep as a whole.
  return queryOutcomeExitCode(Stats.Problems == 0 ? QueryOutcome::Exact
                                                  : QueryOutcome::InvalidInput);
}

int main(int Argc, char **Argv) {
  try {
    return runTool(Argc, Argv);
  } catch (const std::exception &E) {
    std::cerr << "omegalint: error: " << E.what() << "\n";
  }
  return 1;
}
