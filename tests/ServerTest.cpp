//===- tests/ServerTest.cpp - omegad server subsystem tests --------------===//
//
// Four layers of coverage for src/server/: the wire protocol (round-trip,
// hostile-input rejection at every truncation point), framed socket I/O
// (including a write to a vanished peer with SIGPIPE at its default),
// the RequestQueue admission policy, and a real Server on a temp AF_UNIX
// socket — concurrent clients receiving bit-identical answers vs direct
// countSolutions, malformed-frame rejection that leaves the server
// serving, the load-shed and reject paths under saturation, and graceful
// shutdown draining an admitted query.  Runs under the same ASan/TSan
// matrix as everything else (ci.sh), which is where the concurrency
// claims earn their keep.
//
//===----------------------------------------------------------------------===//

#include "FuzzGen.h"

#include "omega/Omega.h"
#include "presburger/Parser.h"
#include "presburger/VarTable.h"
#include "server/Protocol.h"
#include "server/RequestQueue.h"
#include "server/Server.h"
#include "server/Session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <set>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace omega;
using namespace omega::server;

namespace {

//===----------------------------------------------------------------------===//
// Protocol: pure encode/decode
//===----------------------------------------------------------------------===//

CountRequestMsg sampleRequest() {
  CountRequestMsg M;
  M.Formula = "1 <= i && i <= 10 && 1 <= j && j <= i";
  M.Vars = {"i", "j"};
  M.Backend = static_cast<uint8_t>(BackendKind::Auto);
  M.CacheEnabled = false;
  M.CollectStats = true;
  M.Budget = "clauses=64,splinters=8";
  return M;
}

TEST(Protocol, CountRequestRoundTrip) {
  CountRequestMsg M = sampleRequest();
  std::vector<uint8_t> Bytes = encodeCountRequest(M);
  CountRequestMsg Out;
  ASSERT_TRUE(decodeCountRequest(Bytes, Out));
  EXPECT_EQ(Out.Formula, M.Formula);
  EXPECT_EQ(Out.Vars, M.Vars);
  EXPECT_EQ(Out.Backend, M.Backend);
  EXPECT_EQ(Out.CacheEnabled, M.CacheEnabled);
  EXPECT_EQ(Out.CollectStats, M.CollectStats);
  EXPECT_EQ(Out.Budget, M.Budget);
}

TEST(Protocol, CountResponseRoundTrip) {
  CountResponseMsg M;
  M.Outcome = QueryOutcome::Bounded;
  M.Lower = "15";
  M.Upper = "15";
  M.ErrorText = "clauses=1";
  M.Backend = "pugh";
  M.StatsJson = "{\"schema\": 6}";
  std::vector<uint8_t> Bytes = encodeCountResponse(M);
  CountResponseMsg Out;
  ASSERT_TRUE(decodeCountResponse(Bytes, Out));
  EXPECT_EQ(Out.Outcome, M.Outcome);
  EXPECT_EQ(Out.Lower, M.Lower);
  EXPECT_EQ(Out.Upper, M.Upper);
  EXPECT_EQ(Out.ErrorText, M.ErrorText);
  EXPECT_EQ(Out.Backend, M.Backend);
  EXPECT_EQ(Out.StatsJson, M.StatsJson);
}

// Every proper prefix of a valid encoding must decode false — no read
// ever runs past the end of a short buffer (ASan checks the claim).
TEST(Protocol, EveryTruncationRejected) {
  std::vector<uint8_t> Bytes = encodeCountRequest(sampleRequest());
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    std::vector<uint8_t> Cut(Bytes.begin(), Bytes.begin() + Len);
    CountRequestMsg Out;
    EXPECT_FALSE(decodeCountRequest(Cut, Out)) << "prefix length " << Len;
  }
}

TEST(Protocol, TrailingGarbageRejected) {
  std::vector<uint8_t> Bytes = encodeCountRequest(sampleRequest());
  Bytes.push_back(0);
  CountRequestMsg Out;
  EXPECT_FALSE(decodeCountRequest(Bytes, Out));
}

TEST(Protocol, HostileLengthsRejected) {
  // A var-count field claiming four billion entries must fail fast, not
  // loop or allocate.
  CountRequestMsg M = sampleRequest();
  std::vector<uint8_t> Bytes = encodeCountRequest(M);
  // Corrupt the var-count u32 that follows the formula string.
  size_t VarCountAt = 1 + 4 + M.Formula.size();
  ASSERT_LT(VarCountAt + 4, Bytes.size());
  Bytes[VarCountAt] = Bytes[VarCountAt + 1] = Bytes[VarCountAt + 2] =
      Bytes[VarCountAt + 3] = 0xFF;
  CountRequestMsg Out;
  EXPECT_FALSE(decodeCountRequest(Bytes, Out));

  MsgType T;
  EXPECT_FALSE(peekType({}, T));
  EXPECT_FALSE(peekType({0}, T));
  EXPECT_FALSE(peekType({99}, T));
}

TEST(Protocol, WrongTypeByteRejected) {
  std::vector<uint8_t> Bytes = encodeCountRequest(sampleRequest());
  Bytes[0] = static_cast<uint8_t>(MsgType::CountResponse);
  CountRequestMsg Out;
  EXPECT_FALSE(decodeCountRequest(Bytes, Out));
}

//===----------------------------------------------------------------------===//
// Framed socket I/O over a socketpair
//===----------------------------------------------------------------------===//

struct SocketPair {
  int A = -1, B = -1;
  SocketPair() {
    int Fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) == 0) {
      A = Fds[0];
      B = Fds[1];
    }
  }
  ~SocketPair() {
    if (A >= 0)
      ::close(A);
    if (B >= 0)
      ::close(B);
  }
};

TEST(Framing, RoundTripAndCleanEof) {
  SocketPair SP;
  ASSERT_GE(SP.A, 0);
  std::vector<uint8_t> Sent = encodeEmpty(MsgType::Ping);
  ASSERT_EQ(writeFrame(SP.A, Sent), IoStatus::Ok);
  std::vector<uint8_t> Got;
  ASSERT_EQ(readFrame(SP.B, Got, 1000), IoStatus::Ok);
  EXPECT_EQ(Got, Sent);
  ::close(SP.A);
  SP.A = -1;
  EXPECT_EQ(readFrame(SP.B, Got, 1000), IoStatus::Eof);
}

TEST(Framing, OversizedLengthRejectedBeforeAllocation) {
  SocketPair SP;
  ASSERT_GE(SP.A, 0);
  // 0xFFFFFFFF little-endian: a length prefix promising 4 GiB.
  const uint8_t Huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::write(SP.A, Huge, 4), 4);
  std::vector<uint8_t> Got;
  EXPECT_EQ(readFrame(SP.B, Got, 1000), IoStatus::TooBig);
}

TEST(Framing, TruncatedFrameIsErrorNotEof) {
  SocketPair SP;
  ASSERT_GE(SP.A, 0);
  // Promise 100 bytes, deliver 3, close.
  const uint8_t Header[4] = {100, 0, 0, 0};
  ASSERT_EQ(::write(SP.A, Header, 4), 4);
  ASSERT_EQ(::write(SP.A, Header, 3), 3);
  ::close(SP.A);
  SP.A = -1;
  std::vector<uint8_t> Got;
  EXPECT_EQ(readFrame(SP.B, Got, 1000), IoStatus::Error);
}

TEST(Framing, WriteToClosedPeerIsErrorNotSigpipe) {
  // SIGPIPE at its default disposition for the duration: a write that
  // raised it would kill this process instead of returning Error.
  struct sigaction Dfl {}, Old {};
  Dfl.sa_handler = SIG_DFL;
  sigemptyset(&Dfl.sa_mask);
  ASSERT_EQ(::sigaction(SIGPIPE, &Dfl, &Old), 0);
  SocketPair SP;
  ASSERT_GE(SP.A, 0);
  ::close(SP.B);
  SP.B = -1;
  EXPECT_EQ(writeFrame(SP.A, encodeEmpty(MsgType::Ping)), IoStatus::Error);
  ::sigaction(SIGPIPE, &Old, nullptr);
}

TEST(Framing, TimeoutWhenPeerSilent) {
  SocketPair SP;
  ASSERT_GE(SP.A, 0);
  std::vector<uint8_t> Got;
  EXPECT_EQ(readFrame(SP.B, Got, 50), IoStatus::Timeout);
}

//===----------------------------------------------------------------------===//
// Admission control
//===----------------------------------------------------------------------===//

TEST(Admission, RunShedRejectThresholds) {
  RequestQueue Q(/*Soft=*/2, /*Hard=*/4);
  EXPECT_EQ(Q.admit(), Admission::Run);
  EXPECT_EQ(Q.admit(), Admission::Run);
  EXPECT_EQ(Q.admit(), Admission::Shed);
  EXPECT_EQ(Q.admit(), Admission::Shed);
  EXPECT_EQ(Q.admit(), Admission::Reject);
  EXPECT_EQ(Q.inFlight(), 4u);
  Q.release();
  EXPECT_EQ(Q.admit(), Admission::Shed);
  EXPECT_EQ(Q.admitted(), 2u);
  EXPECT_EQ(Q.shedded(), 3u);
  EXPECT_EQ(Q.rejected(), 1u);
}

TEST(Admission, HardZeroRejectsEverything) {
  RequestQueue Q(0, 0);
  EXPECT_EQ(Q.admit(), Admission::Reject);
  EXPECT_EQ(Q.rejected(), 1u);
}

TEST(Admission, ClampBudgetTakesTighterKnobs) {
  EffortBudget Client;
  Client.MaxDnfClauses = 16;
  Client.MaxRecursionDepth = 0; // Unlimited.
  EffortBudget Shed;
  Shed.MaxDnfClauses = 64;
  Shed.MaxRecursionDepth = 24;
  EffortBudget Out = clampBudget(Client, Shed);
  EXPECT_EQ(Out.MaxDnfClauses, 16u) << "client was tighter";
  EXPECT_EQ(Out.MaxRecursionDepth, 24u) << "shed limit beats unlimited";
  EXPECT_EQ(Out.MaxCoefficientBits, 0u) << "both unlimited stays unlimited";
}

//===----------------------------------------------------------------------===//
// End-to-end against a live Server
//===----------------------------------------------------------------------===//

std::string uniqueSocketPath() {
  static std::atomic<unsigned> Counter{0};
  return "/tmp/omegad-test-" + std::to_string(::getpid()) + "-" +
         std::to_string(Counter.fetch_add(1)) + ".sock";
}

int connectTo(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// Sends one request and reads one decoded response; fails the test on
/// any transport-level problem.
CountResponseMsg roundTrip(int Fd, const CountRequestMsg &M) {
  CountResponseMsg R;
  EXPECT_EQ(writeFrame(Fd, encodeCountRequest(M)), IoStatus::Ok);
  std::vector<uint8_t> Payload;
  EXPECT_EQ(readFrame(Fd, Payload, 60000), IoStatus::Ok);
  EXPECT_TRUE(decodeCountResponse(Payload, R));
  return R;
}

TEST(ServerEndToEnd, ConcurrentClientsBitIdentical) {
  // Expected answers computed in-process first, from the same corpus the
  // differential fuzz tests use.
  fuzz::Generator Gen(/*Seed=*/71);
  std::vector<CountRequestMsg> Requests;
  std::vector<std::string> Expected;
  for (int Case = 0; Case < 8; ++Case) {
    fuzz::FuzzCase FC = Gen.next();
    ParseResult PR = parseFormula(FC.Text);
    ASSERT_TRUE(PR) << PR.Error;
    VarSet Vars(FC.Vars.begin(), FC.Vars.end());
    CountResult CR = countSolutions(*PR.Value, Vars, CountOptions{});
    ASSERT_NE(CR.Status, CountStatus::Error) << CR.Err.toString();
    CountRequestMsg M;
    M.Formula = FC.Text;
    M.Vars = FC.Vars;
    Requests.push_back(std::move(M));
    Expected.push_back(CR.Value.toString());
  }

  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.SoftInFlight = 8;
  Opts.HardInFlight = 32;
  Server S(Opts);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  const unsigned Clients = 4;
  std::vector<std::thread> Threads;
  std::atomic<int> Failures{0};
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&] {
      int Fd = connectTo(Opts.SocketPath);
      if (Fd < 0) {
        ++Failures;
        return;
      }
      std::vector<uint8_t> Payload;
      for (size_t I = 0; I < Requests.size(); ++I) {
        if (writeFrame(Fd, encodeCountRequest(Requests[I])) !=
                IoStatus::Ok ||
            readFrame(Fd, Payload, 60000) != IoStatus::Ok) {
          ++Failures;
          break;
        }
        CountResponseMsg R;
        if (!decodeCountResponse(Payload, R) ||
            !queryOutcomeIsAnswer(R.Outcome) || R.Value != Expected[I]) {
          ++Failures;
          break;
        }
      }
      ::close(Fd);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0)
      << "some client saw a transport failure or a non-identical answer";
  S.stop();
}

// A long-running daemon's symbol table must not grow with the number of
// queries it has answered: the table holds user symbols only, and a
// wildcard's id is its name, so neither parsing a request's floor/ceil/mod
// nor counting it interns anything (DESIGN.md §8, §16).  Two connections
// each send 150 distinct requests with the cache alternating per request;
// that first third of the soak grows the table by exactly the requests'
// new user symbols, and two replays — the first with the streams swapped
// between the two session threads — must intern nothing.
TEST(ServerEndToEnd, SymbolTableFlatUnderDistinctQuerySoak) {
  constexpr unsigned Connections = 2, PerConnection = 150;
  fuzz::Generator Gen(/*Seed=*/29);
  std::vector<std::vector<CountRequestMsg>> Streams(Connections);
  std::set<std::string> Unseen;
  unsigned NonLinear = 0;
  for (std::vector<CountRequestMsg> &Stream : Streams)
    for (unsigned K = 0; K < PerConnection; ++K) {
      fuzz::FuzzCase FC =
          K % 10 == 0 ? fuzz::nonLinearCase(NonLinear++) : Gen.next();
      for (const std::string &Name : fuzz::userNames(FC.Text))
        if (!lookupVar(Name).valid())
          Unseen.insert(Name);
      CountRequestMsg M;
      M.Formula = FC.Text;
      M.Vars = FC.Vars;
      M.CacheEnabled = K % 2 == 0;
      Stream.push_back(std::move(M));
    }

  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Server S(Opts);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  std::vector<int> Fds;
  for (unsigned C = 0; C < Connections; ++C) {
    Fds.push_back(connectTo(Opts.SocketPath));
    ASSERT_GE(Fds.back(), 0);
  }

  // Connection C sends stream (C + Shift) % Connections from its own
  // thread.
  auto Send = [&](unsigned Shift) {
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < Connections; ++C)
      Threads.emplace_back([&, C] {
        for (const CountRequestMsg &M : Streams[(C + Shift) % Connections])
          EXPECT_TRUE(queryOutcomeIsAnswer(roundTrip(Fds[C], M).Outcome));
      });
    for (std::thread &T : Threads)
      T.join();
  };
  const uint32_t Before = varTableSize();
  Send(0);
  const uint32_t Warm = varTableSize();
  EXPECT_EQ(Warm - Before, Unseen.size())
      << "the daemon interned more than the requests' user symbols";
  Send(1);
  Send(0);
  EXPECT_EQ(varTableSize(), Warm)
      << "the daemon interned new names after warm-up";
  for (int Fd : Fds)
    ::close(Fd);
  S.stop();
}

TEST(ServerEndToEnd, MalformedFrameRejectedServerSurvives) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Server S(Opts);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  {
    // Garbage payload with a valid length prefix.
    int Fd = connectTo(Opts.SocketPath);
    ASSERT_GE(Fd, 0);
    std::vector<uint8_t> Junk = {static_cast<uint8_t>(MsgType::CountRequest),
                                 0xDE, 0xAD, 0xBE, 0xEF};
    ASSERT_EQ(writeFrame(Fd, Junk), IoStatus::Ok);
    std::vector<uint8_t> Payload;
    ASSERT_EQ(readFrame(Fd, Payload, 10000), IoStatus::Ok);
    CountResponseMsg R;
    ASSERT_TRUE(decodeCountResponse(Payload, R));
    EXPECT_EQ(R.Outcome, QueryOutcome::MalformedFrame);
    EXPECT_EQ(queryOutcomeExitCode(R.Outcome), 1);
    // The server drops the connection after a malformed frame.
    EXPECT_EQ(readFrame(Fd, Payload, 10000), IoStatus::Eof);
    ::close(Fd);
  }
  {
    // An old-layout request, still carrying the retired u32 fan-out width
    // after the counted variables, is refused and dropped likewise.
    CountRequestMsg M;
    M.Formula = "1 <= i && i <= 10";
    M.Vars = {"i"};
    std::vector<uint8_t> Old = encodeCountRequest(M);
    size_t After = 1 + 4 + M.Formula.size() + 4;
    for (const std::string &V : M.Vars)
      After += 4 + V.size();
    Old.insert(Old.begin() + After, {4, 0, 0, 0});
    int Fd = connectTo(Opts.SocketPath);
    ASSERT_GE(Fd, 0);
    ASSERT_EQ(writeFrame(Fd, Old), IoStatus::Ok);
    std::vector<uint8_t> Payload;
    ASSERT_EQ(readFrame(Fd, Payload, 10000), IoStatus::Ok);
    CountResponseMsg R;
    ASSERT_TRUE(decodeCountResponse(Payload, R));
    EXPECT_EQ(R.Outcome, QueryOutcome::MalformedFrame);
    EXPECT_EQ(readFrame(Fd, Payload, 10000), IoStatus::Eof);
    ::close(Fd);
  }
  {
    // An oversized length prefix is answered then dropped likewise.
    int Fd = connectTo(Opts.SocketPath);
    ASSERT_GE(Fd, 0);
    const uint8_t Huge[4] = {0xFF, 0xFF, 0xFF, 0x7F};
    ASSERT_EQ(::write(Fd, Huge, 4), 4);
    std::vector<uint8_t> Payload;
    ASSERT_EQ(readFrame(Fd, Payload, 10000), IoStatus::Ok);
    CountResponseMsg R;
    ASSERT_TRUE(decodeCountResponse(Payload, R));
    EXPECT_EQ(R.Outcome, QueryOutcome::MalformedFrame);
    ::close(Fd);
  }
  {
    // A fresh connection still gets real answers: nothing aborted.
    int Fd = connectTo(Opts.SocketPath);
    ASSERT_GE(Fd, 0);
    CountRequestMsg M;
    M.Formula = "1 <= i && i <= 10";
    M.Vars = {"i"};
    CountResponseMsg R = roundTrip(Fd, M);
    EXPECT_EQ(R.Outcome, QueryOutcome::Exact);
    EXPECT_EQ(R.Value, "(10)");
    ::close(Fd);
  }
  S.stop();
}

TEST(ServerEndToEnd, ShedClampsToBoundedAnswer) {
  // Soft limit 0: every query runs shed.  The shed budget allows a single
  // DNF clause, so a two-clause union degrades to certified bounds.
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.SoftInFlight = 0;
  Opts.HardInFlight = 4;
  Opts.ShedBudget = EffortBudget{};
  Opts.ShedBudget.MaxDnfClauses = 1;
  Server S(Opts);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  int Fd = connectTo(Opts.SocketPath);
  ASSERT_GE(Fd, 0);
  CountRequestMsg M;
  M.Formula = "(1 <= i && i <= 10) || (20 <= i && i <= 24)";
  M.Vars = {"i"};
  CountResponseMsg R = roundTrip(Fd, M);
  EXPECT_EQ(R.Outcome, QueryOutcome::Bounded)
      << "shed budget should degrade the union to bounds, got "
      << queryOutcomeName(R.Outcome) << " " << R.ErrorText;
  EXPECT_FALSE(R.Lower.empty());
  EXPECT_FALSE(R.Upper.empty());
  ::close(Fd);

  std::string Stats = S.statsJson();
  EXPECT_NE(Stats.find("\"shed\":1"), std::string::npos) << Stats;
  S.stop();
}

TEST(ServerEndToEnd, HardLimitRejectsOverloaded) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.SoftInFlight = 0;
  Opts.HardInFlight = 0; // Reject everything.
  Server S(Opts);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  int Fd = connectTo(Opts.SocketPath);
  ASSERT_GE(Fd, 0);
  CountRequestMsg M;
  M.Formula = "1 <= i && i <= 5";
  M.Vars = {"i"};
  CountResponseMsg R = roundTrip(Fd, M);
  EXPECT_EQ(R.Outcome, QueryOutcome::Overloaded);
  EXPECT_EQ(queryOutcomeExitCode(R.Outcome), 75) << "EX_TEMPFAIL band";
  // The connection survives a rejection — only malformed input drops it.
  CountResponseMsg R2 = roundTrip(Fd, M);
  EXPECT_EQ(R2.Outcome, QueryOutcome::Overloaded);
  ::close(Fd);
  S.stop();
}

TEST(ServerEndToEnd, InputErrorsAreTypedResponses) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Server S(Opts);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  int Fd = connectTo(Opts.SocketPath);
  ASSERT_GE(Fd, 0);

  CountRequestMsg M;
  M.Formula = "1 <= ";
  M.Vars = {"i"};
  EXPECT_EQ(roundTrip(Fd, M).Outcome, QueryOutcome::ParseError);

  M.Formula = "1 <= i && i <= 5";
  M.Vars.clear();
  EXPECT_EQ(roundTrip(Fd, M).Outcome, QueryOutcome::InvalidInput);

  M.Vars = {"i"};
  M.Budget = "frobs=3";
  EXPECT_EQ(roundTrip(Fd, M).Outcome, QueryOutcome::InvalidInput);

  M.Budget.clear();
  M.Backend = 99;
  EXPECT_EQ(roundTrip(Fd, M).Outcome, QueryOutcome::InvalidInput);

  // After all those diagnostics the connection still answers correctly.
  M.Backend = 0;
  CountResponseMsg R = roundTrip(Fd, M);
  EXPECT_EQ(R.Outcome, QueryOutcome::Exact);
  EXPECT_EQ(R.Value, "(5)");
  ::close(Fd);
  S.stop();
}

// "$<n>" is a wildcard's own name, so a counted variable spelled that way
// would alias the query's wildcards: the daemon refuses it with a typed
// error instead of answering.
TEST(ServerEndToEnd, WildcardNamedVariableRefused) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Server S(Opts);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  int Fd = connectTo(Opts.SocketPath);
  ASSERT_GE(Fd, 0);

  CountRequestMsg M;
  M.Formula = "1 <= i <= 5 && j = floor(i/2)";
  M.Vars = {"i", "$0"};
  CountResponseMsg R = roundTrip(Fd, M);
  EXPECT_EQ(R.Outcome, QueryOutcome::InvalidInput);
  EXPECT_NE(R.ErrorText.find("$0"), std::string::npos) << R.ErrorText;

  M.Vars = {"i", "j"};
  R = roundTrip(Fd, M);
  EXPECT_EQ(R.Outcome, QueryOutcome::Exact);
  EXPECT_EQ(R.Value, "(5)");
  ::close(Fd);
  S.stop();
}

TEST(ServerEndToEnd, PingStatsAndPerClientCounters) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Server S(Opts);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  int Fd = connectTo(Opts.SocketPath);
  ASSERT_GE(Fd, 0);

  ASSERT_EQ(writeFrame(Fd, encodeEmpty(MsgType::Ping)), IoStatus::Ok);
  std::vector<uint8_t> Payload;
  ASSERT_EQ(readFrame(Fd, Payload, 10000), IoStatus::Ok);
  MsgType T;
  ASSERT_TRUE(peekType(Payload, T));
  EXPECT_EQ(T, MsgType::Pong);

  CountRequestMsg M;
  M.Formula = "1 <= i && i <= 7";
  M.Vars = {"i"};
  M.CollectStats = true;
  CountResponseMsg R = roundTrip(Fd, M);
  EXPECT_EQ(R.Outcome, QueryOutcome::Exact);
  EXPECT_NE(R.StatsJson.find("\"schema\": 6"), std::string::npos)
      << "per-query stats delta should be schema-6 JSON: " << R.StatsJson;

  ASSERT_EQ(writeFrame(Fd, encodeEmpty(MsgType::StatsRequest)),
            IoStatus::Ok);
  ASSERT_EQ(readFrame(Fd, Payload, 10000), IoStatus::Ok);
  std::string Json;
  ASSERT_TRUE(decodeStatsResponse(Payload, Json));
  EXPECT_NE(Json.find("\"pipeline\":"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"server\":"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"clients\":[{\"id\":1,\"requests\":1"),
            std::string::npos)
      << "per-client counters missing: " << Json;
  ::close(Fd);
  S.stop();
}

TEST(ServerEndToEnd, GracefulShutdownDrainsInFlight) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Server S(Opts);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  int Fd = connectTo(Opts.SocketPath);
  ASSERT_GE(Fd, 0);
  CountRequestMsg M;
  // A multi-clause query: enough work that admission is observable before
  // the answer lands.
  M.Formula = "(1 <= i && i <= 50 && 1 <= j && j <= i) || "
              "(60 <= i && i <= 90 && 1 <= j && j <= 40)";
  M.Vars = {"i", "j"};
  ASSERT_EQ(writeFrame(Fd, encodeCountRequest(M)), IoStatus::Ok);

  // Wait until the query is admitted (the counter is monotonic, so this
  // cannot miss a fast query), then begin shutdown while it may still be
  // running.
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (S.statsJson().find("\"admitted\":1") == std::string::npos) {
    ASSERT_LT(std::chrono::steady_clock::now(), Deadline)
        << "query never admitted";
    std::this_thread::yield();
  }
  std::thread Stopper([&] { S.stop(); });

  // The admitted query must still deliver its full answer.
  std::vector<uint8_t> Payload;
  ASSERT_EQ(readFrame(Fd, Payload, 60000), IoStatus::Ok)
      << "shutdown dropped an in-flight query";
  CountResponseMsg R;
  ASSERT_TRUE(decodeCountResponse(Payload, R));
  EXPECT_EQ(R.Outcome, QueryOutcome::Exact);
  EXPECT_EQ(R.Value, "(2515)"); // 50*51/2 + 31*40.
  Stopper.join();
  ::close(Fd);

  // The socket is gone: the server really shut down.
  EXPECT_LT(connectTo(Opts.SocketPath), 0);
}

TEST(ServerEndToEnd, RequestsAfterDrainingAnswerShuttingDown) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Server S(Opts);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  int Fd = connectTo(Opts.SocketPath);
  ASSERT_GE(Fd, 0);

  // Race one request against stop(): the only legal outcomes are a full
  // answer (decoded before draining) or a typed ShuttingDown — never a
  // hang, never an undecodable reply.
  std::thread Stopper([&] { S.stop(); });
  CountRequestMsg M;
  M.Formula = "1 <= i && i <= 5";
  M.Vars = {"i"};
  std::vector<uint8_t> Payload;
  if (writeFrame(Fd, encodeCountRequest(M)) == IoStatus::Ok &&
      readFrame(Fd, Payload, 60000) == IoStatus::Ok) {
    CountResponseMsg R;
    ASSERT_TRUE(decodeCountResponse(Payload, R));
    EXPECT_TRUE(R.Outcome == QueryOutcome::Exact ||
                R.Outcome == QueryOutcome::ShuttingDown)
        << queryOutcomeName(R.Outcome);
    if (R.Outcome == QueryOutcome::ShuttingDown)
      EXPECT_EQ(queryOutcomeExitCode(R.Outcome), 75);
  }
  // Else: the read side was already shut — an equally clean refusal.
  Stopper.join();
  ::close(Fd);
}

} // namespace
