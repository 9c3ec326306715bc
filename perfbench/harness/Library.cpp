//===- perfbench/harness/Library.cpp - Closed-loop library workloads ------===//
//
// loopnest-symbolic and union-blowup: one thread calls the library the way
// a compiler asks its counting oracle, one query after the other, and
// times each call (parse plus count).  The traced run replays the same
// query stream with spans around each layer's public functions.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Library.h"
#include "Oracle.h"

#include "omega/Omega.h"
#include "presburger/Parser.h"
#include "support/QueryContext.h"

#include <algorithm>
#include <iostream>
#include <map>
#include <unordered_map>

using namespace omega;
using namespace perfbench;

CountOptions perfbench::optionsFor(const Query &Q) {
  CountOptions Opts;
  Opts.Backend =
      Q.Kind == Backend::Auto ? BackendKind::Auto : BackendKind::Pugh;
  return Opts;
}

CountResult perfbench::countParsed(const Query &Q, const Formula &F,
                                   const CountOptions &Opts) {
  VarSet Vars(Q.Vars.begin(), Q.Vars.end());
  if (Q.FlopSum)
    return sumPolynomial(F, Vars, flopSummand(Q), Opts);
  return countSolutions(F, Vars, Opts);
}

CountResult perfbench::countText(const Query &Q, const CountOptions &Opts) {
  ParseResult P = parseFormula(Q.Text);
  if (!P) {
    CountResult R;
    R.Status = CountStatus::Error;
    return R;
  }
  return countParsed(Q, *P.Value, Opts);
}

std::string perfbench::queryKey(const Query &Q) {
  // Flop sums of the same set with other summands are other questions.
  if (Q.FlopSum)
    return Q.Text + " | sum i*j + " + std::to_string(Q.SumConst);
  return Q.Kind == Backend::Auto ? Q.Text + " | auto" : Q.Text;
}

bool perfbench::checkSample(const std::vector<Query> &Qs,
                            const std::vector<std::vector<Rational>> &Answers,
                            double BudgetSeconds, RunResult &Out) {
  // Every answered query is checked while the budget lasts; the stream's
  // order is already random, so a cut-off leaves a seeded sample.
  double Deadline = nowSeconds() + BudgetSeconds;
  size_t Answered = 0, Checked = 0;
  for (size_t I = 0; I < Qs.size(); ++I) {
    if (Answers[I].empty())
      continue;
    ++Answered;
    if (nowSeconds() >= Deadline)
      continue;
    std::string Why;
    if (!checkAnswer(Qs[I], Answers[I], Why)) {
      Out.Correct = false;
      Out.Wrong = Why;
      return false;
    }
    ++Checked;
  }
  Out.info("oracle_checked", double(Checked));
  Out.info("oracle_distinct_answered", double(Answered));
  return Checked > 0;
}

namespace {

/// The workload's query stream: the same seed gives the same sequence.
class Stream {
public:
  Stream(const std::string &Workload, uint64_t Seed)
      : Loop(Workload == "loopnest-symbolic"), R(Seed) {}
  Query next() {
    return Loop ? loopNestQuery(R, Index++, /*AllowFlopSums=*/true)
                : unionQuery(R, Index++);
  }

private:
  bool Loop;
  Rng R;
  uint64_t Index = 0;
};

/// A timed phase.  Queries and answers are kept once per queryKey, so
/// the benchmark's own memory stops growing once the stream repeats itself
/// and peak_rss_mb does not follow the host's speed.
struct Sample {
  std::vector<Query> Qs;
  std::vector<std::vector<Rational>> Answers;
  std::unordered_map<std::string, uint32_t> IndexOf;
  /// Per call: its duration and the index of its question in Qs.
  std::vector<double> LatMs;
  std::vector<uint32_t> Which;
  double WallS = 0;
  /// Completion rate of each round, and the index one past its last query.
  std::vector<double> RoundQps;
  std::vector<size_t> RoundEnd;
};

/// The timed phase is cut into kRounds rounds of equal length, and the
/// metrics come from the kSteadyRounds fastest.  The query mix of every
/// round is nearly the same (Gen.cpp cycles it), so the slower rounds are
/// those the shared host slowed; a change to the program slows every round.
/// Round K runs on the K-th allowed CPU in turn: on a shared host some CPUs
/// are slowed for seconds at a time, and a run that stayed on one of them
/// would be slow throughout.
constexpr size_t kRounds = 20, kSteadyRounds = 15;

/// Runs queries from \p S until \p Seconds pass, timing each call.
Sample closedLoop(Stream &S, double Seconds, RunResult &Out) {
  Sample Res;
  std::vector<int> Cpus = allowedCpus();
  auto PinRound = [&] {
    if (!Cpus.empty())
      pinTo({Cpus[Res.RoundQps.size() % Cpus.size()]});
  };
  PinRound();
  double T0 = nowSeconds(), RoundLen = Seconds / kRounds, RoundStart = T0;
  auto CloseRound = [&](double Now) {
    size_t First = Res.RoundEnd.empty() ? 0 : Res.RoundEnd.back();
    Res.RoundQps.push_back(double(Res.LatMs.size() - First) /
                           (Now - RoundStart));
    Res.RoundEnd.push_back(Res.LatMs.size());
    PinRound();
    RoundStart = nowSeconds();
  };
  for (;;) {
    double Now = nowSeconds();
    if (Now >= RoundStart + RoundLen) {
      CloseRound(Now);
      if (Res.RoundQps.size() == kRounds)
        break;
    }
    Query Q = S.next();
    CountOptions Opts = optionsFor(Q);
    double C0 = nowSeconds();
    CountResult R = countText(Q, Opts);
    double C1 = nowSeconds();
    ++Out.Attempted;
    bool Ok = R.exact();
    if (!Ok)
      ++Out.Failed;
    Res.LatMs.push_back((C1 - C0) * 1e3);
    std::vector<Rational> Values;
    if (Ok)
      Values = evaluateAtBindings(Q, R.Value);
    auto [It, Fresh] =
        Res.IndexOf.emplace(queryKey(Q), uint32_t(Res.Qs.size()));
    Res.Which.push_back(It->second);
    if (Fresh) {
      Res.Qs.push_back(std::move(Q));
      Res.Answers.push_back(std::move(Values));
      continue;
    }
    // A repeated question must get the answer it got before.
    std::vector<Rational> &Before = Res.Answers[It->second];
    if (Before.empty())
      Before = std::move(Values);
    else if (Ok && Values != Before && Out.Correct) {
      Out.Correct = false;
      Out.Wrong = "a repeat of '" + Q.Text + "' got another answer";
    }
  }
  pinTo(Cpus);
  Res.WallS = RoundStart - T0;
  return Res;
}

/// Throughput and latency of the steady rounds: the rate and the p50 are
/// medians over those rounds.  The p99 is taken over their pooled calls,
/// joined by the next fastest rounds until at least 10 calls lie beyond it.
struct Steady {
  double Qps = 0, P50Ms = 0;
  std::vector<double> LatMs;
};

Steady steadyRounds(const Sample &Res) {
  std::vector<size_t> Order(Res.RoundQps.size());
  for (size_t K = 0; K < Order.size(); ++K)
    Order[K] = K;
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Res.RoundQps[A] > Res.RoundQps[B];
  });
  Steady St;
  std::vector<double> Rates, P50s;
  for (size_t K : Order) {
    if (Rates.size() >= kSteadyRounds &&
        samplesBeyond(St.LatMs.size(), 99) >= 10)
      break;
    size_t First = K ? Res.RoundEnd[K - 1] : 0;
    if (First == Res.RoundEnd[K])
      continue;
    std::vector<double> Lat(Res.LatMs.begin() + First,
                            Res.LatMs.begin() + Res.RoundEnd[K]);
    St.LatMs.insert(St.LatMs.end(), Lat.begin(), Lat.end());
    if (Rates.size() < kSteadyRounds) {
      Rates.push_back(Res.RoundQps[K]);
      P50s.push_back(median(std::move(Lat)));
    }
  }
  St.Qps = median(Rates);
  St.P50Ms = median(P50s);
  return St;
}

void warmUp(const std::string &Workload, uint64_t Seed) {
  // Lazy set-up finishes and the conjunct cache holds other queries'
  // clauses, as in a compiler that has been asking for a while.  A fixed
  // count (about half a second), so every run starts from the same state.
  Stream W(Workload, Seed ^ 0x9e3779b97f4a7c15ULL);
  int N = Workload == "loopnest-symbolic" ? 400 : 40;
  for (int I = 0; I < N; ++I) {
    Query Q = W.next();
    (void)countText(Q, optionsFor(Q));
  }
}

RunResult untraced(const Options &O) {
  RunResult Out;
  double Setup = librarySetupSeconds(O, 21);
  if (Setup < 0) {
    std::cerr << "perfbench: set-up probe failed\n";
    std::exit(1);
  }
  warmUp(O.Workload, O.Seed);
  Stream S(O.Workload, O.Seed);
  Sample Res = closedLoop(S, O.Seconds, Out);
  double Rss = peakRssMb();
  checkSample(Res.Qs, Res.Answers, 0.25 * O.Seconds, Out);

  Steady St = steadyRounds(Res);
  Out.add("setup_s", "s", Setup);
  Out.add("queries_per_s", "1/s", St.Qps);
  // One closed-loop client sustains exactly its completion rate.
  Out.add("sustained_qps", "1/s", St.Qps);
  Out.add("latency_p50_ms", "ms", St.P50Ms);
  Out.add("latency_p99_ms", "ms", percentile(St.LatMs, 99));
  Out.info("whole_phase_qps", double(Res.LatMs.size()) / Res.WallS);
  Out.info("slowest_round_share", *std::min_element(Res.RoundQps.begin(),
                                                    Res.RoundQps.end()) /
                                      St.Qps);
  Out.add("peak_rss_mb", "MiB", Rss);
  Out.add("answered_share", "ratio", 1.0 - Out.failedShare());
  Out.info("latency_samples", double(St.LatMs.size()));
  std::map<std::string, std::vector<double>> ByShape;
  for (size_t I = 0; I < Res.LatMs.size(); ++I)
    ByShape[Res.Qs[Res.Which[I]].Shape].push_back(Res.LatMs[I]);
  for (const auto &[Shape, Lat] : ByShape) {
    Out.info(Shape + "_p50_ms", median(Lat));
    Out.info(Shape + "_p99_ms", percentile(Lat, 99));
  }
  Out.info("latency_p99_samples_beyond",
           double(samplesBeyond(St.LatMs.size(), 99)));
  Out.info("failed_share", Out.failedShare());
  return Out;
}

} // namespace

void perfbench::traceQuery(const Query &Q, uint64_t Id, SpanLog &Log,
                           LayerTotals &T) {
  size_t Call = Log.open("query", Id);
  size_t PSpan = Log.open("presburger.parse", Id, int64_t(Call));
  ParseResult P = parseFormula(Q.Text);
  Log.close(PSpan);
  if (!P) {
    Log.close(Call);
    ++T.Failed;
    return;
  }
  CountOptions Opts = optionsFor(Q);
  Opts.CollectStats = true;
  AllocCount A0 = threadAllocs();
  size_t CSpan = Log.open("counting.count", Id, int64_t(Call));
  CountResult R = countParsed(Q, *P.Value, Opts);
  Log.close(CSpan);
  AllocCount A1 = threadAllocs();
  Log.close(Call);
  if (!R.exact()) {
    ++T.Failed;
    return;
  }
  const PipelineStatsSnapshot &St = R.Stats;
  T.Queries += 1;
  T.QueryAllocs += A1.Calls - A0.Calls;
  T.QueryBytes += A1.Bytes - A0.Bytes;
  T.FeasibilityTests += St.FeasibilityTests;
  T.ProjectionCalls += St.ProjectionCalls;
  T.CacheHits += St.CacheHits;
  T.CacheMisses += St.CacheMisses;
  T.BigIntSpills += St.BigIntSpills;
  T.ExprSpills += St.ExprTermsSpilled;
  T.BackendFallbacks += St.BackendFallbacks;
  double CountUs = Log.durationUs(CSpan);
  // The Omega phases inside this very call (same input, same cache state)
  // are subtracted to leave summation and dispatch self time.
  double OmegaUs =
      double(St.SimplifyNanos + St.DisjointNanos + St.CoalesceNanos) / 1e3;
  T.CountSelfUs += std::max(0.0, CountUs - OmegaUs);
  if (R.Backend == "automaton") {
    T.AutomatonQueries += 1;
    T.AutomatonUs += CountUs;
    T.AutomatonProductStates += St.AutomatonProductStates;
  }
  T.AnswerPieces += R.Value.pieces().size();

  // Evaluating the answer at the check bindings (poly layer).
  size_t ESpan = Log.open("poly.evaluate", Id, -1);
  std::vector<Rational> Values = evaluateAtBindings(Q, R.Value);
  Log.close(ESpan);
  T.Evaluations += Values.size();

  // The Omega layer on its own, outside the count and with the conjunct
  // cache bypassed, so the shared cache the next query sees is untouched:
  // simplify into disjoint DNF, then feasible() on the clauses and on
  // adjacent clause pairs it produced.
  QueryStatsBlock Block;
  QueryContext Ctx;
  Ctx.CacheEnabled = false;
  Ctx.Stats = &Block;
  QueryContextScope Scope(Ctx);
  size_t SSpan = Log.open("omega.simplify", Id, -1);
  std::vector<Conjunct> Clauses =
      simplify(*P.Value, SimplifyOptions{/*Disjoint=*/true});
  Log.close(SSpan);
  T.DnfClauses += Clauses.size();
  constexpr size_t kMaxFeasible = 8;
  for (size_t I = 0; I < Clauses.size() && I < kMaxFeasible; ++I) {
    size_t F1 = Log.open("omega.feasible", Id, int64_t(SSpan));
    (void)feasible(Clauses[I]);
    Log.close(F1);
    if (I + 1 < Clauses.size()) {
      Conjunct Pair = Conjunct::merge(Clauses[I], Clauses[I + 1]);
      size_t F2 = Log.open("omega.feasible", Id, int64_t(SSpan));
      (void)feasible(Pair);
      Log.close(F2);
    }
  }
}

void perfbench::addLayerMetrics(const SpanLog &Log, const LayerTotals &T,
                                RunResult &Out) {
  auto Per = [](double V, double N) { return N > 0 ? V / N : 0.0; };
  double Q = double(T.Queries);
  SpanLog::Totals Parse = Log.totals("presburger.parse");
  SpanLog::Totals Simp = Log.totals("omega.simplify");
  SpanLog::Totals Feas = Log.totals("omega.feasible");
  SpanLog::Totals Count = Log.totals("counting.count");
  SpanLog::Totals Eval = Log.totals("poly.evaluate");
  Out.add("presburger.parse_us", "us", Parse.meanUs());
  Out.add("presburger.parse_allocs", "count", Parse.meanAllocs());
  Out.add("omega.simplify_ms", "ms", Simp.meanUs() / 1e3);
  Out.add("omega.simplify_allocs", "count", Simp.meanAllocs());
  Out.add("omega.dnf_clauses", "count", Per(double(T.DnfClauses), Q));
  Out.add("omega.feasible_ns_per_call", "ns", Feas.meanUs() * 1e3);
  Out.add("omega.feasible_allocs_per_call", "count", Feas.meanAllocs());
  Out.add("omega.feasibility_tests", "count",
          Per(double(T.FeasibilityTests), Q));
  Out.add("omega.projection_calls", "count",
          Per(double(T.ProjectionCalls), Q));
  Out.add("counting.count_ms", "ms", Count.meanUs() / 1e3);
  Out.add("counting.self_ms", "ms", Per(T.CountSelfUs, Q) / 1e3);
  Out.add("counting.automaton_ms", "ms",
          Per(T.AutomatonUs, double(T.AutomatonQueries)) / 1e3);
  Out.add("counting.automaton_product_states", "count",
          Per(double(T.AutomatonProductStates), double(T.AutomatonQueries)));
  Out.add("counting.backend_fallbacks", "count", double(T.BackendFallbacks));
  Out.add("poly.answer_pieces", "count", Per(double(T.AnswerPieces), Q));
  Out.add("poly.evaluate_us", "us", Per(Eval.Us, double(T.Evaluations)));
  Out.add("support.bigint_spills", "count", double(T.BigIntSpills));
  Out.add("presburger.expr_terms_spilled", "count", double(T.ExprSpills));
  Out.add("support.allocs_per_query", "count", Per(double(T.QueryAllocs), Q));
  Out.add("support.alloc_bytes_per_query", "B", Per(double(T.QueryBytes), Q));
  Out.info("traced_queries", Q);
  Out.info("feasible_calls", double(Feas.Calls));
}

void perfbench::addCacheMetrics(uint64_t Hits, uint64_t Misses,
                                RunResult &Out) {
  uint64_t Lookups = Hits + Misses;
  Out.add("omega.cache_hit_ratio", "ratio",
          Lookups ? double(Hits) / double(Lookups) : 0);
  Out.add("omega.cache_lookups", "count", double(Lookups));
}

namespace {

RunResult traced(const Options &O) {
  RunResult Out;
  // Untraced pass, then the traced replay of the same queries from the
  // same (empty) cache; the ratio of their call times is the overhead.
  clearConjunctCache();
  Stream S1(O.Workload, O.Seed);
  Sample Plain = closedLoop(S1, 0.3 * O.Seconds, Out);
  clearConjunctCache();
  Stream S2(O.Workload, O.Seed);
  SpanLog Log;
  LayerTotals T;
  for (size_t I = 0; I < Plain.LatMs.size(); ++I) {
    Query Q = S2.next();
    traceQuery(Q, I, Log, T);
  }
  Out.Attempted += T.Queries + T.Failed;
  Out.Failed += T.Failed;
  addLayerMetrics(Log, T, Out);
  addCacheMetrics(T.CacheHits, T.CacheMisses, Out);
  addServerlessMetrics(Out);
  double PlainMs = 0;
  for (double L : Plain.LatMs)
    PlainMs += L;
  double TracedMs = Log.totals("query").Us / 1e3;
  Out.add("trace.overhead_pct", "%",
          PlainMs > 0 ? 100.0 * (TracedMs - PlainMs) / PlainMs : 0);
  checkSample(Plain.Qs, Plain.Answers, 0.15 * O.Seconds, Out);
  Log.write(O.WorkDir + "/spans-" + O.Workload + "-" + std::to_string(O.Seed) +
            ".jsonl");
  return Out;
}

} // namespace

void perfbench::addServerlessMetrics(RunResult &Out) {
  // The library workloads never touch the server or the load generator.
  Out.add("server.codec_us", "us", 0);
  Out.add("server.overhead_us", "us", 0);
  Out.add("server.shed", "count", 0);
  Out.add("server.rejected", "count", 0);
  Out.add("loadgen.lag_p99_ms", "ms", 0);
}

RunResult perfbench::runLibraryWorkload(const Options &O) {
  return O.Trace ? traced(O) : untraced(O);
}
