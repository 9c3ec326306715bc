//===- tools/Options.h - Shared tool flag parsing --------------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flags every pipeline tool shares — --cache/--no-cache, --budget,
/// --stats, --trace, --trace-summary — parsed once, into a
/// CountOptions.  omegacount, omegalint, and bench_pipeline each call
/// parseSharedOption() from their argv loop so the flags behave (and are
/// documented) identically everywhere; tool-specific flags stay in the
/// tools.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_TOOLS_OPTIONS_H
#define OMEGA_TOOLS_OPTIONS_H

#include "counting/Backend.h"
#include "omega/Omega.h"
#include "support/BigInt.h"
#include "support/QueryContext.h"
#include "support/Trace.h"

#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>

namespace omega {

/// Shared tool configuration: the query options plus the tool-side
/// reporting toggles they imply.
struct ToolOptions {
  CountOptions Count;
  /// --budget was given (Count.Budget may still be all-unlimited).
  bool HaveBudget = false;
  /// --backend was given: route the query through the unified CountResult
  /// API and report which backend answered.
  bool HaveBackend = false;
  /// --stats: print the pipeline counter summary to stderr on exit.
  bool Stats = false;
  /// --trace FILE: write Chrome trace_event JSON here.
  std::string TraceFile;
  /// --trace-summary: print the per-phase self-time table to stderr.
  bool TraceSummary = false;

  bool wantTrace() const { return !TraceFile.empty() || TraceSummary; }
};

/// The shared block for --help texts (one string so the tools cannot
/// drift apart).
inline const char *sharedOptionsHelp() {
  return "  --cache N        conjunct cache capacity (entries); "
         "--no-cache disables\n"
         "  --budget SPEC    effort budget, e.g. "
         "\"bits=64,splinters=32,clauses=256,depth=24,ms=5000\";\n"
         "                   on exhaustion degrades to certified bounds\n"
         "  --backend B      counting backend: pugh | automaton | "
         "enumerate | auto\n"
         "                   (automaton/enumerate answer exactly or refuse; "
         "auto falls back to pugh)\n"
         "  --stats          print pipeline statistics to stderr\n"
         "  --trace FILE     write a Chrome trace_event JSON of the run "
         "(chrome://tracing)\n"
         "  --trace-summary  print per-phase span/self-time summary to "
         "stderr\n";
}

/// Consumes Argv[I] if it is one of the shared flags, advancing \p I past
/// any flag value.  Returns true iff the argument was consumed.  \p Fail
/// is called with a message (and must not return) on a malformed value.
inline bool
parseSharedOption(int Argc, char **Argv, int &I, ToolOptions &Opts,
                  const std::function<void(const std::string &)> &Fail) {
  std::string Arg = Argv[I];
  auto Next = [&]() -> std::string {
    if (++I >= Argc)
      Fail("missing value after " + Arg);
    return Argv[I];
  };
  auto NextCount = [&]() -> unsigned long long {
    std::string V = Next();
    unsigned long long N = 0;
    if (V.empty())
      Fail("expected a nonnegative integer after " + Arg);
    for (char C : V) {
      if (C < '0' || C > '9')
        Fail("expected a nonnegative integer after " + Arg + ": " + V);
      N = N * 10 + static_cast<unsigned long long>(C - '0');
    }
    return N;
  };
  auto SetBudget = [&](const std::string &Spec) {
    Result<EffortBudget> B = EffortBudget::parse(Spec);
    if (!B)
      Fail(B.error().toString());
    Opts.Count.Budget = *B;
    Opts.HaveBudget = true;
  };
  auto SetBackend = [&](const std::string &Name) {
    if (!backendKindFromName(Name, Opts.Count.Backend))
      Fail("unknown backend: " + Name +
           " (expected pugh, automaton, enumerate, or auto)");
    Opts.HaveBackend = true;
  };
  if (Arg == "--backend") {
    SetBackend(Next());
  } else if (Arg.rfind("--backend=", 0) == 0) {
    SetBackend(Arg.substr(10));
  } else if (Arg == "--cache") {
    Opts.Count.CacheCapacity = static_cast<size_t>(NextCount());
    Opts.Count.CacheEnabled = Opts.Count.CacheCapacity > 0;
  } else if (Arg == "--no-cache") {
    Opts.Count.CacheEnabled = false;
  } else if (Arg == "--budget") {
    SetBudget(Next());
  } else if (Arg.rfind("--budget=", 0) == 0) {
    SetBudget(Arg.substr(9));
  } else if (Arg == "--stats") {
    Opts.Stats = true;
    Opts.Count.CollectStats = true;
    // Fast/slow op tallies are off by default; --stats implies them.
    Opts.Count.CountArithOps = true;
  } else if (Arg == "--trace") {
    Opts.TraceFile = Next();
  } else if (Arg == "--trace-summary") {
    Opts.TraceSummary = true;
  } else {
    return false;
  }
  return true;
}

/// The tool-level query environment: a QueryContext carrying the parsed
/// knobs plus a stats collector for the whole invocation, installed on the
/// main thread for the tool's lifetime (the re-entrant replacement for the
/// retired process-global setters).  Tool code paths that do not route
/// through the CountOptions entry point (simplify-only printing, the lint
/// sweep) read the knobs through the active context; queries that do route
/// through it nest beneath this scope and fold their stats back into
/// Block, so --stats at exit reports the whole run.
class ToolQueryScope {
public:
  explicit ToolQueryScope(const ToolOptions &Opts) {
    Block.Arith.CountOps.store(Opts.Count.CountArithOps,
                               std::memory_order_relaxed);
    Ctx.CacheEnabled = Opts.Count.CacheEnabled;
    Ctx.Stats = &Block;
    if (Opts.Count.CacheEnabled &&
        Opts.Count.CacheCapacity > conjunctCacheCapacity())
      configureConjunctCache(Opts.Count.CacheCapacity);
    Scope.emplace(Ctx);
  }

  /// This invocation's accumulated counters (for the --stats report).
  PipelineStatsSnapshot stats() const { return snapshotQueryStats(Block); }

private:
  QueryStatsBlock Block;
  QueryContext Ctx;
  std::optional<QueryContextScope> Scope;
};

/// The tool-level trace: when --trace/--trace-summary was given, a
/// TraceSession on the main thread for the scope's lifetime, so every
/// query the tool runs records into it.
class ToolTrace {
public:
  explicit ToolTrace(const ToolOptions &Opts) : Opts(Opts) {
    if (Opts.wantTrace())
      Session.emplace();
  }

  /// Writes the requested exporter outputs of the spans recorded so far.
  /// Returns false (after printing a diagnostic) if the trace file cannot
  /// be written.  Does nothing when tracing was not requested.
  bool finish(const char *Tool) const;

private:
  const ToolOptions &Opts;
  std::optional<TraceSession> Session;
};

inline bool ToolTrace::finish(const char *Tool) const {
  if (!Session)
    return true;
  std::shared_ptr<const TraceData> Data = Session->data();
  if (!Opts.TraceFile.empty()) {
    std::ofstream Out(Opts.TraceFile);
    if (!Out) {
      std::cerr << Tool << ": error: cannot write " << Opts.TraceFile << "\n";
      return false;
    }
    Out << Data->toChromeJson() << "\n";
  }
  if (Opts.TraceSummary)
    std::cerr << Data->toSummary();
  return true;
}

} // namespace omega

#endif // OMEGA_TOOLS_OPTIONS_H
