//===- tests/BackendTest.cpp - The CountBackend layer ---------------------===//
//
// Unit tests for the pluggable backend seam (DESIGN.md §14): the automaton
// and enumerate backends on the paper's worked examples and on hand-picked
// degenerate shapes, bounding-box derivation, the Auto dispatcher heuristic
// and its refusal fallback, and the promoted brute-force oracle's
// refuse-don't-truncate contract.
//
//===----------------------------------------------------------------------===//

#include "baselines/Oracle.h"
#include "counting/Backend.h"
#include "counting/Summation.h"
#include "presburger/Parser.h"
#include "tools/FormulaFile.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

using namespace omega;

namespace {

/// Parses \p Text or fails the test.
Formula parse(const std::string &Text) {
  ParseResult R = parseFormula(Text);
  EXPECT_TRUE(R) << R.Error << " in: " << Text;
  return R ? *R.Value : Formula::disj({});
}

/// Counts \p Text over \p Vars on an explicitly requested backend.
CountResult countOn(BackendKind K, const std::string &Text,
                    const std::vector<std::string> &Vars) {
  CountOptions Opts;
  Opts.Backend = K;
  return countSolutions(parse(Text), VarSet(Vars.begin(), Vars.end()), Opts);
}

/// Extracts the exact integer answer or fails the test.
BigInt exact(const CountResult &R) {
  EXPECT_EQ(R.Status, CountStatus::Exact)
      << (R.Status == CountStatus::Error ? R.Err.toString() : "not exact");
  if (R.Status != CountStatus::Exact)
    return BigInt(-1);
  return R.Value.evaluateInt(Assignment{});
}

/// Asserts pugh, automaton, and enumerate all return the same exact count
/// for a concrete formula, and returns it.
BigInt expectAllAgree(const std::string &Text,
                      const std::vector<std::string> &Vars) {
  SCOPED_TRACE("formula: " + Text);
  BigInt Pugh = exact(countOn(BackendKind::Pugh, Text, Vars));
  BigInt Dfa = exact(countOn(BackendKind::Automaton, Text, Vars));
  BigInt Enum = exact(countOn(BackendKind::Enumerate, Text, Vars));
  EXPECT_EQ(Dfa, Pugh) << "automaton disagrees with pugh";
  EXPECT_EQ(Enum, Pugh) << "enumerate disagrees with pugh";
  return Pugh;
}

//===----------------------------------------------------------------------===//
// Worked examples: every committed golden formula, symbols pinned.
//===----------------------------------------------------------------------===//

TEST(BackendExamples, AllGoldenFormulasAgree) {
  // The committed examples are the paper's worked figures; the symbolic
  // ones (triangle, union, ...) use the single constant n, which we pin by
  // conjoining an equality and counting n as one more variable.
  const int64_t kPins[] = {0, 1, 7, 16};
  unsigned Checked = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".presburger")
      continue;
    FormulaFile FF;
    std::string Err;
    ASSERT_TRUE(readFormulaFile(Entry.path().string(), FF, Err))
        << Entry.path() << ": " << Err;
    SCOPED_TRACE("example: " + Entry.path().string());

    Formula F = parse(FF.FormulaText);
    VarSet Counted(FF.Vars.begin(), FF.Vars.end());
    bool Symbolic = false;
    for (VarId V : F.freeVars())
      Symbolic |= !Counted.contains(V);

    if (!Symbolic) {
      expectAllAgree(FF.FormulaText, FF.Vars);
      ++Checked;
      continue;
    }
    for (int64_t Pin : kPins) {
      std::vector<std::string> Vars = FF.Vars;
      Vars.push_back("n");
      expectAllAgree("(" + FF.FormulaText + ") && n = " +
                         std::to_string(Pin),
                     Vars);
    }
    ++Checked;
  }
  EXPECT_GE(Checked, 7u) << "example corpus went missing";
}

//===----------------------------------------------------------------------===//
// Automaton backend: degenerate and adversarial shapes.
//===----------------------------------------------------------------------===//

TEST(BackendAutomaton, EmptySet) {
  EXPECT_EQ(exact(countOn(BackendKind::Automaton,
                          "i >= 5 && i <= 3", {"i"})),
            BigInt(0));
  EXPECT_EQ(exact(countOn(BackendKind::Automaton,
                          "0 <= i <= 9 && 2*i = 5", {"i"})),
            BigInt(0));
}

TEST(BackendAutomaton, SinglePoint) {
  EXPECT_EQ(exact(countOn(BackendKind::Automaton,
                          "i = 7 && j = 0 - 3", {"i", "j"})),
            BigInt(1));
  EXPECT_EQ(exact(countOn(BackendKind::Automaton, "i = 0", {"i"})),
            BigInt(1));
}

TEST(BackendAutomaton, StrideConstraints) {
  // 0..100 with i ≡ 5 (mod 7): 5, 12, ..., 96 → 14 points.
  EXPECT_EQ(exact(countOn(BackendKind::Automaton,
                          "0 <= i <= 100 && 7 | i + 2", {"i"})),
            BigInt(14));
  // Two interacting strides over a negative-straddling range.
  expectAllAgree("0 - 20 <= i <= 20 && 3 | i && 4 | i + 2", {"i"});
  // Stride on a multi-variable expression.
  expectAllAgree("0 <= i <= 12 && 0 <= j <= 12 && 5 | 2*i + 3*j",
                 {"i", "j"});
}

TEST(BackendAutomaton, NegativeCoefficients) {
  expectAllAgree("0 - 6 <= i <= 9 && 0 - 6 <= j <= 9 && 0 - 3*i + 2*j <= 4",
                 {"i", "j"});
  expectAllAgree("0 - 10 <= i <= 10 && 0 - 2*i >= 0 - 7 && 0 - 3 <= i",
                 {"i"});
  // Equality with mixed-sign coefficients: 2i - 3j = 1 on a box.
  expectAllAgree("0 - 8 <= i <= 8 && 0 - 8 <= j <= 8 && 2*i - 3*j = 1",
                 {"i", "j"});
}

TEST(BackendAutomaton, BooleanStructure) {
  // Overlapping disjunction (must not double count) and negation.
  expectAllAgree("0 <= i <= 10 && (i <= 7 || i >= 4)", {"i"});
  expectAllAgree("0 <= i <= 10 && !(3 <= i <= 5)", {"i"});
  expectAllAgree("0 <= i <= 20 && !(2 | i) && (i <= 9 || 3 | i)", {"i"});
}

TEST(BackendAutomaton, QuantifiedInput) {
  // Quantifiers route through simplification to a wildcard-free DNF.
  expectAllAgree("1 <= i <= 30 && exists(k: i = 3*k + 1)", {"i"});
}

TEST(BackendAutomaton, UnboundedMatchesPugh) {
  CountResult R = countOn(BackendKind::Automaton, "i >= 0", {"i"});
  EXPECT_EQ(R.Status, CountStatus::Unbounded);
  EXPECT_TRUE(R.Value.isUnbounded());
}

TEST(BackendAutomaton, RefusesSymbolsAndWideCoefficients) {
  CountResult Sym = countOn(BackendKind::Automaton, "1 <= i <= n", {"i"});
  ASSERT_EQ(Sym.Status, CountStatus::Error);
  EXPECT_EQ(Sym.Err.Kind, ErrorKind::Unsupported);
  EXPECT_EQ(Sym.Err.Layer, "automaton");

  // 2^44 + 1 exceeds MaxMagnitudeBits (44).
  CountResult Wide = countOn(BackendKind::Automaton,
                             "17592186044417*i >= 0 && 0 <= i <= 1", {"i"});
  ASSERT_EQ(Wide.Status, CountStatus::Error);
  EXPECT_EQ(Wide.Err.Kind, ErrorKind::Unsupported);
}

//===----------------------------------------------------------------------===//
// Enumerate backend: summation and the volume cap.
//===----------------------------------------------------------------------===//

TEST(BackendEnumerate, SumsArbitraryPolynomials) {
  CountOptions Opts;
  Opts.Backend = BackendKind::Enumerate;
  Formula F = parse("1 <= i <= 10");
  QuasiPolynomial X = QuasiPolynomial::variable("i");
  CountResult R = sumPolynomial(F, {"i"}, X, Opts);
  EXPECT_EQ(exact(R), BigInt(55));

  Opts.Backend = BackendKind::Pugh;
  EXPECT_EQ(exact(sumPolynomial(F, {"i"}, X, Opts)), BigInt(55));
}

TEST(BackendEnumerate, RefusesOverCapVolume) {
  // 3,000,001 points > the 2^21 sweep cap: a typed refusal, not a stall.
  CountResult R =
      countOn(BackendKind::Enumerate, "0 <= i <= 3000000", {"i"});
  ASSERT_EQ(R.Status, CountStatus::Error);
  EXPECT_EQ(R.Err.Kind, ErrorKind::Unsupported);
  EXPECT_EQ(R.Err.Layer, "enumerate");
}

//===----------------------------------------------------------------------===//
// Bounding-box derivation.
//===----------------------------------------------------------------------===//

TEST(BackendBox, BoundedHull) {
  DerivedBox B =
      deriveCountingBox(parse("0 <= i <= 5 && 0 - 3 <= j <= 4 && i <= j"),
                        {"i", "j"});
  ASSERT_EQ(B.Outcome, BoxOutcome::Bounded);
  ASSERT_TRUE(B.Box.count("i") && B.Box.count("j"));
  // The hull may tighten via i <= j but must cover every solution.
  EXPECT_LE(B.Box.at("i").Lo, 0);
  EXPECT_GE(B.Box.at("i").Hi, 4);
  EXPECT_LE(B.Box.at("j").Lo, 0);
  EXPECT_GE(B.Box.at("j").Hi, 4);
}

TEST(BackendBox, UnionTakesTheWidestClause) {
  DerivedBox B = deriveCountingBox(
      parse("(0 <= i <= 2) || (10 <= i <= 12)"), {"i"});
  ASSERT_EQ(B.Outcome, BoxOutcome::Bounded);
  EXPECT_LE(B.Box.at("i").Lo, 0);
  EXPECT_GE(B.Box.at("i").Hi, 12);
}

TEST(BackendBox, EmptyAndUnbounded) {
  EXPECT_EQ(deriveCountingBox(parse("i >= 5 && i <= 3"), {"i"}).Outcome,
            BoxOutcome::Empty);
  EXPECT_EQ(deriveCountingBox(parse("i >= 0"), {"i"}).Outcome,
            BoxOutcome::Unbounded);
  // A lone stride is feasible and unbounded in both directions.
  EXPECT_EQ(deriveCountingBox(parse("3 | i"), {"i"}).Outcome,
            BoxOutcome::Unbounded);
  // An infeasible clause must not poison boundedness (its hull is empty).
  EXPECT_EQ(deriveCountingBox(
                parse("(0 <= i <= 4) || (i >= 9 && i <= 2)"), {"i"})
                .Outcome,
            BoxOutcome::Bounded);
}

//===----------------------------------------------------------------------===//
// The Auto dispatcher: heuristic picks and the refusal fallback.
//===----------------------------------------------------------------------===//

TEST(BackendDispatch, KindNamesRoundTrip) {
  BackendKind K;
  ASSERT_TRUE(backendKindFromName("pugh", K));
  EXPECT_EQ(K, BackendKind::Pugh);
  ASSERT_TRUE(backendKindFromName("automaton", K));
  EXPECT_EQ(K, BackendKind::Automaton);
  ASSERT_TRUE(backendKindFromName("enumerate", K));
  EXPECT_EQ(K, BackendKind::Enumerate);
  ASSERT_TRUE(backendKindFromName("auto", K));
  EXPECT_EQ(K, BackendKind::Auto);
  EXPECT_FALSE(backendKindFromName("barvinok", K));
  EXPECT_STREQ(countBackend(BackendKind::Automaton).name(), "automaton");
}

TEST(BackendDispatch, HeuristicPicks) {
  Formula Concrete = parse("0 <= i <= 9");
  Formula Symbolic = parse("0 <= i <= n");
  QuasiPolynomial One(1);
  CountOptions Opts;
  std::string Why;

  EXPECT_EQ(chooseBackend(Concrete, {"i"}, One, Opts, &Why),
            BackendKind::Automaton);
  EXPECT_NE(Why.find("constraint DFAs"), std::string::npos) << Why;

  EXPECT_EQ(chooseBackend(Symbolic, {"i"}, One, Opts, &Why),
            BackendKind::Pugh);
  EXPECT_NE(Why.find("symbolic"), std::string::npos) << Why;

  EXPECT_EQ(chooseBackend(Concrete, {"i"},
                          QuasiPolynomial::variable("i"), Opts, &Why),
            BackendKind::Pugh);
  EXPECT_NE(Why.find("non-constant summand"), std::string::npos) << Why;

  CountOptions Budgeted = Opts;
  Budgeted.Budget.MaxDnfClauses = 4;
  EXPECT_EQ(chooseBackend(Concrete, {"i"}, One, Budgeted, &Why),
            BackendKind::Pugh);
  EXPECT_NE(Why.find("budget"), std::string::npos) << Why;
}

TEST(BackendDispatch, AutoFallsBackOnRefusal) {
  // Auto picks the automaton (concrete, constant summand), the wide
  // coefficient forces a refusal, and the dispatcher must rerun pugh
  // rather than surface the error.
  CountResult R = countOn(BackendKind::Auto,
                          "17592186044417*i >= 0 && 0 <= i <= 1", {"i"});
  EXPECT_EQ(R.Backend, "pugh");
  EXPECT_NE(R.BackendReason.find("refused"), std::string::npos)
      << R.BackendReason;
  EXPECT_EQ(exact(R), BigInt(2));
}

TEST(BackendDispatch, ExplicitRequestNeverFallsBack) {
  CountResult R = countOn(BackendKind::Automaton, "1 <= i <= n", {"i"});
  EXPECT_EQ(R.Status, CountStatus::Error) << "explicit refusal must surface";
}

TEST(BackendDispatch, AutoTagsTheAnswer) {
  CountResult R = countOn(BackendKind::Auto, "0 <= i <= 9", {"i"});
  EXPECT_EQ(R.Backend, "automaton");
  EXPECT_FALSE(R.BackendReason.empty());
  EXPECT_EQ(exact(R), BigInt(10));

  CountResult S = countOn(BackendKind::Auto, "1 <= i <= n", {"i"});
  EXPECT_EQ(S.Backend, "pugh");
  EXPECT_EQ(S.Status, CountStatus::Exact);
}

//===----------------------------------------------------------------------===//
// The promoted oracle: refuse, never truncate.
//===----------------------------------------------------------------------===//

TEST(Oracle, ExactOnBoundedInput) {
  Result<BigInt> R = oracleCount(parse("1 <= i <= 10 && 2 | i"), {"i"});
  ASSERT_TRUE(R) << R.error().toString();
  EXPECT_EQ(*R, BigInt(5));
}

TEST(Oracle, RefusesUnboundedInput) {
  // The old silent-truncation bug: an unbounded set swept over a finite
  // window returns a plausible wrong count.  The contract is a typed
  // refusal instead.
  Result<BigInt> R = oracleCount(parse("i >= 0"), {"i"});
  ASSERT_FALSE(R);
  EXPECT_EQ(R.error().Kind, ErrorKind::Unsupported);
  EXPECT_NE(R.error().Message.find("unbounded"), std::string::npos);
}

TEST(Oracle, RefusesSymbolicInput) {
  Result<BigInt> R = oracleCount(parse("1 <= i <= n"), {"i"});
  ASSERT_FALSE(R);
  EXPECT_EQ(R.error().Kind, ErrorKind::Unsupported);
}

} // namespace
