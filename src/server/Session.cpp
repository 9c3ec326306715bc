//===- server/Session.cpp - One omegad client connection -----------------===//
//
// The request loop and the query execution path.  Robustness contract
// (DESIGN.md §17): nothing a client sends — malformed frames, hostile
// lengths, unparsable formulas, absurd option values — may abort the
// server or wedge another client's query.  Every failure is a typed
// response (QueryOutcome) or a closed connection.
//
//===----------------------------------------------------------------------===//

#include "server/Session.h"

#include "omega/Omega.h"
#include "presburger/Parser.h"

#include <sys/socket.h>
#include <unistd.h>
#include <utility>

using namespace omega;
using namespace omega::server;

EffortBudget server::clampBudget(const EffortBudget &Client,
                                 const EffortBudget &Shed) {
  auto Tighter = [](uint64_t A, uint64_t B) {
    if (A == 0)
      return B;
    if (B == 0)
      return A;
    return A < B ? A : B;
  };
  EffortBudget Out;
  Out.MaxCoefficientBits =
      Tighter(Client.MaxCoefficientBits, Shed.MaxCoefficientBits);
  Out.MaxSplintersPerElimination = Tighter(Client.MaxSplintersPerElimination,
                                           Shed.MaxSplintersPerElimination);
  Out.MaxDnfClauses = Tighter(Client.MaxDnfClauses, Shed.MaxDnfClauses);
  Out.MaxRecursionDepth =
      Tighter(Client.MaxRecursionDepth, Shed.MaxRecursionDepth);
  Out.DeadlineMs = Tighter(Client.DeadlineMs, Shed.DeadlineMs);
  return Out;
}

Session::Session(int Fd, uint64_t Id, const SessionHost &Host)
    : Fd(Fd), Id(Id), Host(Host) {}

Session::~Session() {
  if (Fd >= 0)
    ::close(Fd);
}

void Session::shutdownRead() {
  // Read-side only: a query in flight can still write its response, and
  // the session loop exits on the EOF it sees afterwards.
  ::shutdown(Fd, SHUT_RD);
}

CountResponseMsg Session::handleCount(const CountRequestMsg &M) {
  CountResponseMsg R;

  if (M.Vars.empty()) {
    R.Outcome = QueryOutcome::InvalidInput;
    R.ErrorText = "no counted variables given";
    return R;
  }
  for (const std::string &V : M.Vars)
    if (isWildcardName(V)) { // It would alias the query's own wildcards.
      R.Outcome = QueryOutcome::InvalidInput;
      R.ErrorText = "\"" + V + "\" is a reserved wildcard name";
      return R;
    }
  if (M.Backend > static_cast<uint8_t>(BackendKind::Auto)) {
    R.Outcome = QueryOutcome::InvalidInput;
    R.ErrorText = "unknown backend code " + std::to_string(M.Backend);
    return R;
  }

  CountOptions Opts;
  Opts.Backend = static_cast<BackendKind>(M.Backend);
  Opts.CacheEnabled = M.CacheEnabled;
  // Match the server's configured capacity so the grow-only rule in
  // sumPolynomial never lets a client resize the shared store.
  Opts.CacheCapacity = Host.CacheCapacity;
  Opts.CollectStats = M.CollectStats;

  if (!M.Budget.empty()) {
    Result<EffortBudget> B = EffortBudget::parse(M.Budget);
    if (!B) {
      R.Outcome = QueryOutcome::InvalidInput;
      R.ErrorText = B.error().toString();
      return R;
    }
    Opts.Budget = *B;
  }

  const Admission A = Host.Queue.admit();
  if (A == Admission::Reject) {
    Counters.Rejected.fetch_add(1, std::memory_order_relaxed);
    R.Outcome = QueryOutcome::Overloaded;
    R.ErrorText = "server at hard in-flight limit; retry later";
    return R;
  }
  if (A == Admission::Shed) {
    Counters.Shed.fetch_add(1, std::memory_order_relaxed);
    Opts.Budget = clampBudget(Opts.Budget, Host.ShedBudget);
  }

  // The slot must be returned on every path out of the query, including a
  // throwing one (the unified API never throws for input-level failures,
  // but admission accounting must not depend on that).
  CountResult CR;
  try {
    // Parse under the query's budget so a hostile literal is a parse
    // diagnostic, not unbounded bignum work.
    Formula F = Formula::trueFormula();
    {
      BudgetScope BS(Opts.Budget);
      ParseResult P = parseFormula(M.Formula);
      if (!P) {
        Host.Queue.release();
        Counters.Answered.fetch_add(1, std::memory_order_relaxed);
        R.Outcome = QueryOutcome::ParseError;
        R.ErrorText = "parse: " + P.Error;
        return R;
      }
      F = *P.Value;
    }
    VarSet VS(M.Vars.begin(), M.Vars.end());
    CR = countSolutions(F, VS, Opts);
  } catch (const std::exception &E) {
    Host.Queue.release();
    Counters.Answered.fetch_add(1, std::memory_order_relaxed);
    R.Outcome = QueryOutcome::InternalError;
    R.ErrorText = E.what();
    return R;
  }
  Host.Queue.release();
  Counters.Answered.fetch_add(1, std::memory_order_relaxed);

  R.Outcome = CR.outcome();
  R.Backend = CR.Backend;
  if (CR.Status == CountStatus::Error) {
    R.ErrorText = CR.Err.toString();
  } else if (CR.Status == CountStatus::Bounded) {
    R.Lower = CR.Lower.toString();
    R.Upper = CR.Upper.toString();
    R.ErrorText = CR.TrippedLimit;
  } else {
    R.Value = CR.Value.toString();
  }
  if (M.CollectStats)
    R.StatsJson = CR.Stats.toJson();
  return R;
}

void Session::run() {
  serve();
  // FIN now; the reaper's destructor closes the fd later.
  ::shutdown(Fd, SHUT_RDWR);
}

void Session::serve() {
  // Connection-level context: queries on this thread tally into the
  // server's shared stats block.
  QueryContext Ctx;
  Ctx.Stats = &Host.Stats;
  QueryContextScope Scope(Ctx);

  std::vector<uint8_t> Payload;
  while (true) {
    const IoStatus S = readFrame(Fd, Payload, Host.IdleTimeoutMs);
    if (S == IoStatus::Eof || S == IoStatus::Timeout || S == IoStatus::Error)
      return;
    if (S == IoStatus::TooBig) {
      Counters.Malformed.fetch_add(1, std::memory_order_relaxed);
      CountResponseMsg R;
      R.Outcome = QueryOutcome::MalformedFrame;
      R.ErrorText = "frame exceeds size limit";
      writeFrame(Fd, encodeCountResponse(R));
      return; // The stream is unrecoverable past an oversized length.
    }

    MsgType T;
    if (!peekType(Payload, T)) {
      Counters.Malformed.fetch_add(1, std::memory_order_relaxed);
      CountResponseMsg R;
      R.Outcome = QueryOutcome::MalformedFrame;
      R.ErrorText = "unknown message type";
      writeFrame(Fd, encodeCountResponse(R));
      return;
    }

    switch (T) {
    case MsgType::Ping:
      if (writeFrame(Fd, encodeEmpty(MsgType::Pong)) != IoStatus::Ok)
        return;
      break;
    case MsgType::StatsRequest:
      if (writeFrame(Fd, encodeStatsResponse(Host.StatsJson())) !=
          IoStatus::Ok)
        return;
      break;
    case MsgType::CountRequest: {
      Counters.Requests.fetch_add(1, std::memory_order_relaxed);
      CountRequestMsg M;
      if (!decodeCountRequest(Payload, M)) {
        Counters.Malformed.fetch_add(1, std::memory_order_relaxed);
        CountResponseMsg R;
        R.Outcome = QueryOutcome::MalformedFrame;
        R.ErrorText = "undecodable count request";
        writeFrame(Fd, encodeCountResponse(R));
        return; // Framing may be desynchronized; drop the connection.
      }
      CountResponseMsg R;
      if (Host.Draining.load(std::memory_order_relaxed)) {
        Counters.Rejected.fetch_add(1, std::memory_order_relaxed);
        R.Outcome = QueryOutcome::ShuttingDown;
        R.ErrorText = "server draining";
      } else {
        R = handleCount(M);
      }
      if (writeFrame(Fd, encodeCountResponse(R)) != IoStatus::Ok)
        return;
      break;
    }
    default:
      // A server-to-client type arriving at the server is a confused or
      // hostile peer.
      Counters.Malformed.fetch_add(1, std::memory_order_relaxed);
      CountResponseMsg R;
      R.Outcome = QueryOutcome::MalformedFrame;
      R.ErrorText = "unexpected message type";
      writeFrame(Fd, encodeCountResponse(R));
      return;
    }
  }
}
