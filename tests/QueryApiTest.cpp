//===- tests/QueryApiTest.cpp - CountOptions entry point contract --------===//
//
// The unified options-taking entry point (omega/Omega.h) is re-entrant:
// a query's CountOptions translate into a QueryContext installed for the
// query's duration, so knobs apply per query (never to process state) and
// stats are a per-query block (never a racy global delta).  These tests
// pin the contract: options-configured counts nested in a foreign context
// match a top-level default count textually, nested/sequential queries
// don't leak stats into each other, and countBatch is element-wise
// isolated.
//
//===----------------------------------------------------------------------===//

#include "FuzzGen.h"

#include "omega/Omega.h"
#include "presburger/Parser.h"
#include "presburger/Var.h"
#include "support/QueryContext.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace omega;

namespace {

/// Baseline: a top-level count with default options (no enclosing
/// context), from a cold cache.
std::string plainCount(const Formula &F, const VarSet &Vars) {
  clearConjunctCache();
  PiecewiseValue V = countSolutions(F, Vars).Value;
  return V.toString();
}

/// Options path under the given knobs, from a cold cache.  Runs inside a
/// deliberately *different* enclosing context to prove the query's own
/// options win over whatever environment it nests in.
std::string optionsCount(const Formula &F, const VarSet &Vars, bool Cache) {
  clearConjunctCache();
  QueryContext Enclosing;
  Enclosing.CacheEnabled = !Cache;
  QueryContextScope Scope(Enclosing);
  CountOptions CO;
  CO.CacheEnabled = Cache;
  CountResult CR = countSolutions(F, Vars, CO);
  EXPECT_TRUE(CR.Status == CountStatus::Exact ||
              CR.Status == CountStatus::Unbounded);
  EXPECT_EQ(CR.exact(), !CR.Value.isUnbounded());
  return CR.Value.toString();
}

TEST(QueryApi, DifferentialFuzzCorpus) {
  fuzz::Generator Gen(/*Seed=*/23);
  for (int Case = 0; Case < 30; ++Case) {
    fuzz::FuzzCase FC = Gen.next();
    SCOPED_TRACE("fuzz case " + std::to_string(Case) + ": " + FC.Text);
    ParseResult R = parseFormula(FC.Text);
    ASSERT_TRUE(R) << R.Error;
    VarSet Vars(FC.Vars.begin(), FC.Vars.end());
    std::string Plain = plainCount(*R.Value, Vars);
    for (bool Cache : {true, false}) {
      std::string New = optionsCount(*R.Value, Vars, Cache);
      EXPECT_EQ(New, Plain) << "cache=" << Cache << " diverged";
    }
  }
}

TEST(QueryApi, SumPolynomialDifferential) {
  // Pinned on the exact answer, so any change to the summation output
  // shows here.
  ParseResult R = parseFormula("1 <= i <= n && i <= j <= n");
  ASSERT_TRUE(R) << R.Error;
  VarSet Vars{"i", "j"};
  QuasiPolynomial X = QuasiPolynomial::variable("i");

  clearConjunctCache();
  CountResult CR = sumPolynomial(*R.Value, Vars, X);
  EXPECT_TRUE(CR.exact());
  EXPECT_EQ(CR.Value.toString(),
            "(if n - 1 >= 0 : 1/6*n^3 + 1/2*n^2 + 1/3*n)");
}

TEST(QueryApi, BudgetedDifferential) {
  // Two clauses against a one-clause budget: the count degrades to pinned
  // certified bounds, not just to the Bounded status.
  ParseResult R = parseFormula("1 <= i <= 10 || 20 <= i <= 24");
  ASSERT_TRUE(R) << R.Error;
  VarSet Vars{"i"};
  auto Budget = EffortBudget::parse("clauses=1");
  ASSERT_TRUE(Budget.ok());

  clearConjunctCache();
  CountOptions CO;
  CO.Budget = *Budget;
  CountResult CR = countSolutions(*R.Value, Vars, CO);

  ASSERT_EQ(CR.Status, CountStatus::Bounded);
  EXPECT_EQ(CR.TrippedLimit, "clauses=1");
  EXPECT_EQ(CR.Lower.toString(), "(15)");
  EXPECT_EQ(CR.Upper.toString(), "(15)");

  // A generous budget through the options path stays exact.
  auto Big = EffortBudget::parse("clauses=64");
  ASSERT_TRUE(Big.ok());
  clearConjunctCache();
  CountOptions CO2;
  CO2.Budget = *Big;
  CountResult Exact = countSolutions(*R.Value, Vars, CO2);
  EXPECT_TRUE(Exact.exact());
  EXPECT_EQ(Exact.Value.toString(), "(15)");
  EXPECT_TRUE(Exact.TrippedLimit.empty());
}

TEST(QueryApi, StatsAreAPerQueryDelta) {
  ParseResult R = parseFormula("1 <= i <= n && i <= j <= n");
  ASSERT_TRUE(R) << R.Error;
  VarSet Vars{"i", "j"};
  CountOptions CO;
  CO.CollectStats = true;

  // Two identical serial queries from a cold cache: each delta covers only
  // its own query, so the two snapshots agree even though the cumulative
  // process counters doubled.
  clearConjunctCache();
  CountResult First = countSolutions(*R.Value, Vars, CO);
  clearConjunctCache();
  CountResult Second = countSolutions(*R.Value, Vars, CO);

  EXPECT_GT(First.Stats.FeasibilityTests, 0u);
  EXPECT_EQ(First.Stats.FeasibilityTests, Second.Stats.FeasibilityTests);
  EXPECT_EQ(First.Stats.ProjectionCalls, Second.Stats.ProjectionCalls);
  EXPECT_EQ(First.Stats.CacheMisses, Second.Stats.CacheMisses);

  // Stats off: the snapshot stays zeroed rather than leaking totals.
  CountOptions Off;
  CountResult Plain = countSolutions(*R.Value, Vars, Off);
  EXPECT_EQ(Plain.Stats.FeasibilityTests, 0u);
}

TEST(QueryApi, StatsFoldIntoEnclosingCollector) {
  // A tool- or server-level context with a stats block sees the work of
  // queries nested beneath it — per-query isolation must not hide work
  // from aggregate observability.
  ParseResult R = parseFormula("1 <= i <= n && i <= j <= n");
  ASSERT_TRUE(R) << R.Error;
  VarSet Vars{"i", "j"};

  QueryStatsBlock Outer;
  QueryContext Ctx;
  Ctx.Stats = &Outer;
  QueryContextScope Scope(Ctx);

  clearConjunctCache();
  CountOptions CO;
  CO.CollectStats = true;
  CountResult CR = countSolutions(*R.Value, Vars, CO);
  EXPECT_GT(CR.Stats.FeasibilityTests, 0u);
  EXPECT_EQ(snapshotQueryStats(Outer).FeasibilityTests,
            CR.Stats.FeasibilityTests)
      << "per-query block did not fold into the enclosing collector";
}

TEST(QueryApi, CountBatchIsolatesStatsPerElement) {
  // Three queries of very different cost in one batch: each result's stats
  // delta must cover exactly its own query.  The two identical bookend
  // queries pin that: with the cache cleared between nothing, the third
  // query hits what the first populated, so equality of the *first* and a
  // solo rerun (plus first > third misses) proves isolation better than
  // any smoke check.
  ParseResult Small = parseFormula("1 <= i <= 4");
  ParseResult Big = parseFormula("1 <= i <= n && i <= j <= n && 2*i <= 3*j");
  ASSERT_TRUE(Small) << Small.Error;
  ASSERT_TRUE(Big) << Big.Error;

  std::vector<CountQuery> Queries(3);
  Queries[0].F = *Big.Value;
  Queries[0].Vars = {"i", "j"};
  Queries[0].Opts.CollectStats = true;
  Queries[1].F = *Small.Value;
  Queries[1].Vars = {"i"};
  Queries[1].Opts.CollectStats = true;
  Queries[2] = Queries[0];

  clearConjunctCache();
  std::vector<CountResult> Results = countBatch(Queries);
  ASSERT_EQ(Results.size(), 3u);
  for (const CountResult &CR : Results)
    EXPECT_TRUE(CR.exact()) << CR.Err.toString();

  // Element-wise answers match solo runs.
  clearConjunctCache();
  CountResult Solo = countSolutions(*Big.Value, {"i", "j"}, Queries[0].Opts);
  EXPECT_EQ(Results[0].Value.toString(), Solo.Value.toString());
  EXPECT_EQ(Results[2].Value.toString(), Solo.Value.toString());

  // Stats are per element: the big queries did strictly more work than the
  // tiny one, and the first big query's delta equals the solo run's (the
  // small query in between contributed nothing to it).
  EXPECT_EQ(Results[0].Stats.FeasibilityTests, Solo.Stats.FeasibilityTests);
  EXPECT_LT(Results[1].Stats.FeasibilityTests,
            Results[0].Stats.FeasibilityTests);
  // The third element re-ran the same formula against the batch-warm cache:
  // its misses cannot exceed the cold first element's.
  EXPECT_LE(Results[2].Stats.CacheMisses, Results[0].Stats.CacheMisses);
}

TEST(QueryApi, TraceHandleCapturesTheQuery) {
  ParseResult R = parseFormula(
      "exists(b: 0 <= 3*b - a <= 7 && 1 <= a - 2*b <= 5)");
  ASSERT_TRUE(R) << R.Error;
  CountOptions CO;
  CO.CollectTrace = true;
  clearConjunctCache();
  CountResult CR = countSolutions(*R.Value, VarSet{"a"}, CO);
  EXPECT_TRUE(CR.exact());
  ASSERT_TRUE(CR.Trace);
  EXPECT_FALSE(tracingEnabled()) << "query left the process tracing";
  EXPECT_FALSE(CR.Trace->Spans.empty());
  bool SawSimplify = false;
  for (const TraceSpanRecord &S : CR.Trace->Spans)
    SawSimplify |= std::string(S.Name) == "simplify";
  EXPECT_TRUE(SawSimplify);

  // Without the flag there is no handle and no session left behind.
  CountOptions Off;
  CountResult Plain = countSolutions(*R.Value, VarSet{"a"}, Off);
  EXPECT_FALSE(Plain.Trace);
  EXPECT_FALSE(tracingEnabled());
}

TEST(QueryApi, OutcomeMapsStatusAndErrors) {
  ParseResult R = parseFormula("1 <= i <= 4");
  ASSERT_TRUE(R) << R.Error;
  CountResult CR = countSolutions(*R.Value, VarSet{"i"}, CountOptions{});
  EXPECT_EQ(CR.outcome(), QueryOutcome::Exact);
  EXPECT_EQ(queryOutcomeExitCode(CR.outcome()), 0);

  // Budget exhaustion with bounds is an answer; the outcome says so.
  ParseResult Two = parseFormula("1 <= i <= 10 || 20 <= i <= 24");
  ASSERT_TRUE(Two) << Two.Error;
  CountOptions CO;
  auto Budget = EffortBudget::parse("clauses=1");
  ASSERT_TRUE(Budget.ok());
  CO.Budget = *Budget;
  CountResult Bounded = countSolutions(*Two.Value, VarSet{"i"}, CO);
  ASSERT_EQ(Bounded.Status, CountStatus::Bounded);
  EXPECT_EQ(Bounded.outcome(), QueryOutcome::Bounded);
  EXPECT_EQ(queryOutcomeExitCode(Bounded.outcome()), 0);

  // Transient service conditions sit in their own exit-code band.
  EXPECT_EQ(queryOutcomeExitCode(QueryOutcome::Overloaded), 75);
  EXPECT_EQ(queryOutcomeExitCode(QueryOutcome::ShuttingDown), 75);
  EXPECT_EQ(queryOutcomeExitCode(QueryOutcome::MalformedFrame), 1);
}

} // namespace
