//===- tests/TraceTest.cpp - Hierarchical tracing contract ---------------===//
//
// The tracing contract (DESIGN.md §12): spans form one tree per query, with
// every parent link resolvable, a session records only its own thread's
// spans, and the Chrome exporter must always produce a single JSON value
// that a strict parser accepts.
//
// The driver formula conjoins the paper's Figure 1 set (projection with
// splinters) with a disjunction, so one query exercises all nine traced
// phases: simplify, toDNF, crossConjoin, projectVars, splinter,
// makeDisjoint, coalesce, summation, snfReparam.
//
//===----------------------------------------------------------------------===//

#include "counting/Summation.h"
#include "omega/Omega.h"
#include "presburger/Parser.h"
#include "presburger/Var.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace omega;

namespace {

/// Hits every traced phase: the existential projects with six splinters
/// (Figure 1), the disjunction forces toDNF + crossConjoin + makeDisjoint,
/// and the stride atom gives snfReparam something to re-parameterize.
const char *AllPhasesFormula = "exists(b: 0 <= 3*b - a <= 7 && "
                               "1 <= a - 2*b <= 5) && "
                               "(0 <= a <= 30 || 2 | a)";

const char *PhaseNames[] = {"simplify",  "toDNF",      "crossConjoin",
                            "projectVars", "splinter", "makeDisjoint",
                            "coalesce",  "summation",  "snfReparam"};

/// Counts AllPhasesFormula once under tracing, from a cold cache,
/// and returns the collected spans.  The query opts out of the cache so the
/// set of computed (span-producing) projections cannot depend on what
/// earlier tests left in it.
std::shared_ptr<const TraceData> traceOneCount() {
  clearConjunctCache();
  ParseResult R = parseFormula(AllPhasesFormula);
  EXPECT_TRUE(R) << R.Error;
  CountOptions Opts;
  Opts.CacheEnabled = false;
  Opts.CollectTrace = true;
  CountResult CR = countSolutions(*R.Value, VarSet{"a"}, Opts);
  EXPECT_NE(CR.Status, CountStatus::Error) << CR.Err.toString();
  EXPECT_FALSE(CR.Value.isUnbounded());
  return CR.Trace;
}

//===----------------------------------------------------------------------===//
// Minimal strict JSON acceptor for the exporter round-trip: one value,
// nothing trailing.  Rejects bare control characters, unescaped quotes,
// naked NaN/Infinity — the things a sloppy string-concat exporter emits.
//===----------------------------------------------------------------------===//

class JsonAcceptor {
public:
  explicit JsonAcceptor(const std::string &Text) : S(Text) {}

  bool accept() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return Pos == S.size();
  }

private:
  const std::string &S;
  size_t Pos = 0;

  char peek() const { return Pos < S.size() ? S[Pos] : '\0'; }
  bool eat(char C) {
    if (peek() != C)
      return false;
    ++Pos;
    return true;
  }
  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }

  bool value() {
    switch (peek()) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }

  bool literal(const char *Lit) {
    for (const char *P = Lit; *P; ++P)
      if (!eat(*P))
        return false;
    return true;
  }

  bool object() {
    if (!eat('{'))
      return false;
    skipWs();
    if (eat('}'))
      return true;
    do {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (!eat(':'))
        return false;
      skipWs();
      if (!value())
        return false;
      skipWs();
    } while (eat(','));
    return eat('}');
  }

  bool array() {
    if (!eat('['))
      return false;
    skipWs();
    if (eat(']'))
      return true;
    do {
      skipWs();
      if (!value())
        return false;
      skipWs();
    } while (eat(','));
    return eat(']');
  }

  bool string() {
    if (!eat('"'))
      return false;
    while (Pos < S.size()) {
      char C = S[Pos++];
      if (C == '"')
        return true;
      if (static_cast<unsigned char>(C) < 0x20)
        return false; // Bare control character.
      if (C == '\\') {
        if (Pos >= S.size())
          return false;
        char E = S[Pos++];
        if (E == 'u') {
          for (int I = 0; I < 4; ++I)
            if (Pos >= S.size() || !isxdigit(static_cast<unsigned char>(S[Pos++])))
              return false;
        } else if (!strchr("\"\\/bfnrt", E))
          return false;
      }
    }
    return false;
  }

  bool number() {
    size_t Start = Pos;
    eat('-');
    while (isdigit(static_cast<unsigned char>(peek())))
      ++Pos;
    if (eat('.'))
      while (isdigit(static_cast<unsigned char>(peek())))
        ++Pos;
    if (peek() == 'e' || peek() == 'E') {
      ++Pos;
      if (peek() == '+' || peek() == '-')
        ++Pos;
      while (isdigit(static_cast<unsigned char>(peek())))
        ++Pos;
    }
    return Pos > Start + (S[Start] == '-' ? 1 : 0);
  }
};

size_t countOccurrences(const std::string &Hay, const std::string &Needle) {
  size_t N = 0;
  for (size_t P = Hay.find(Needle); P != std::string::npos;
       P = Hay.find(Needle, P + Needle.size()))
    ++N;
  return N;
}

//===----------------------------------------------------------------------===//
// Tests
//===----------------------------------------------------------------------===//

TEST(Trace, DisabledIsInert) {
  ASSERT_FALSE(tracingEnabled());
  TraceSpan Span("simplify");
  EXPECT_FALSE(Span.active());
  Span.count(TraceCounter::ClausesOut, 3); // Must be a no-op, not a crash.
  traceCount(TraceCounter::CacheHits);
  traceAnnotate("budget_trip", "nope");
  EXPECT_EQ(currentTraceSpan(), 0u);
}

TEST(Trace, AllTracedPhasesHaveSpans) {
  std::shared_ptr<const TraceData> Data = traceOneCount();
  ASSERT_TRUE(Data);
  EXPECT_EQ(Data->Dropped, 0u);
  std::map<std::string, unsigned> ByName;
  for (const TraceSpanRecord &S : Data->Spans)
    ++ByName[S.Name];
  for (const char *Phase : PhaseNames)
    EXPECT_GE(ByName[Phase], 1u) << "no span for phase " << Phase;
}

TEST(Trace, ParentLinksResolve) {
  std::shared_ptr<const TraceData> Data = traceOneCount();
  ASSERT_TRUE(Data);
  for (const TraceSpanRecord &S : Data->Spans) {
    if (!S.Parent)
      continue;
    const TraceSpanRecord *P = Data->find(S.Parent);
    ASSERT_NE(P, nullptr) << "span " << S.Id << " has dangling parent";
    // One steady clock stamps every span, and a child is always opened
    // after its parent.
    EXPECT_LE(P->StartNs, S.StartNs)
        << S.Name << " started before its parent " << P->Name;
  }
}

TEST(Trace, ChromeJsonRoundTrip) {
  std::shared_ptr<const TraceData> Data = traceOneCount();
  ASSERT_TRUE(Data);
  std::string Json = Data->toChromeJson();
  EXPECT_TRUE(JsonAcceptor(Json).accept()) << "exporter emitted invalid JSON";
  // One complete event per span, and the standard top-level key.
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(countOccurrences(Json, "\"ph\":\"X\""), Data->Spans.size());
}

TEST(Trace, SummaryListsEveryPhaseEvenWithoutSpans) {
  TraceSession Session;
  { TraceSpan Span("simplify"); } // One span; the other seven have none.
  std::shared_ptr<const TraceData> Data = Session.data();
  ASSERT_TRUE(Data);
  std::string Summary = Data->toSummary();
  for (const char *Phase : PhaseNames)
    EXPECT_NE(Summary.find(Phase), std::string::npos)
        << "summary dropped phase " << Phase << " (CI greps for all nine)";
}

TEST(Trace, CountersAttributedToPhases) {
  std::shared_ptr<const TraceData> Data = traceOneCount();
  ASSERT_TRUE(Data);
  uint64_t Splinters = 0, ProjectedConstraints = 0;
  for (const TraceSpanRecord &S : Data->Spans) {
    if (std::string(S.Name) == "splinter")
      Splinters += S.Counters[unsigned(TraceCounter::Splinters)];
    if (std::string(S.Name) == "projectVars")
      ProjectedConstraints +=
          S.Counters[unsigned(TraceCounter::ConstraintsIn)];
  }
  EXPECT_GE(Splinters, 1u) << "Figure 1 projection must splinter";
  EXPECT_GT(ProjectedConstraints, 0u);
}

/// Checks that \p Data is one traced count's own trace: it is non-empty,
/// every parent link resolves inside it, and no span of \p Foreign (the
/// span names of a session the query ran beside) leaked in.
void expectOwnTrace(const TraceData &Data,
                    const std::vector<std::string> &Foreign) {
  EXPECT_FALSE(Data.Spans.empty());
  for (const TraceSpanRecord &S : Data.Spans) {
    for (const std::string &Name : Foreign)
      EXPECT_NE(S.Name, Name) << "foreign span leaked into the query trace";
    if (S.Parent)
      EXPECT_NE(Data.find(S.Parent), nullptr)
          << "span " << S.Id << " (" << S.Name << ") has dangling parent";
  }
}

std::vector<std::string> spanNames(const TraceData &Data) {
  std::vector<std::string> Names;
  for (const TraceSpanRecord &S : Data.Spans)
    Names.push_back(S.Name);
  return Names;
}

TEST(Trace, SessionIgnoresOtherThreadsQueries) {
  TraceSession Main;
  std::shared_ptr<const TraceData> Other;
  {
    TraceSpan First("mainFirst");
    std::thread T([&Other] { Other = traceOneCount(); });
    T.join();
  }
  EXPECT_TRUE(tracingEnabled()) << "another thread's query ended our session";
  { TraceSpan Second("mainSecond"); }

  std::shared_ptr<const TraceData> Data = Main.data();
  EXPECT_EQ(spanNames(*Data),
            (std::vector<std::string>{"mainFirst", "mainSecond"}));
  ASSERT_TRUE(Other);
  expectOwnTrace(*Other, {"mainFirst", "mainSecond"});
}

TEST(Trace, QueryInsideOpenSessionGetsItsOwnTrace) {
  TraceSession Outer;
  { TraceSpan Before("outerBefore"); }
  std::shared_ptr<const TraceData> Query;
  {
    TraceSpan Around("outerAround");
    const uint64_t AroundId = currentTraceSpan();
    Query = traceOneCount();
    EXPECT_EQ(currentTraceSpan(), AroundId)
        << "the outer session's open span must be innermost again";
  }
  { TraceSpan After("outerAfter"); }

  ASSERT_TRUE(Query);
  expectOwnTrace(*Query, {"outerBefore", "outerAround", "outerAfter"});
  std::shared_ptr<const TraceData> Data = Outer.data();
  EXPECT_EQ(spanNames(*Data), (std::vector<std::string>{
                                  "outerBefore", "outerAround", "outerAfter"}));
}

} // namespace
