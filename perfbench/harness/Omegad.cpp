//===- perfbench/harness/Omegad.cpp - omegad open-loop workload -----------===//
//
// omegad-open: the real omegad binary runs as a child on a per-run socket.
// One generator thread multiplexes one connection per daemon CPU (at most
// 4) and sends Poisson arrivals at a fixed nominal rate, then climbs a
// fixed rate ladder.  Each request is timed from its due time to its
// response.  The mix: mostly repeats from a hot set of loop-nest queries
// (cache reads under concurrency), some fresh loop-nest draws, and a
// dense-finite slice sent with Backend=Auto (the automaton backend).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Library.h"
#include "Oracle.h"

#include "server/Protocol.h"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <iostream>
#include <map>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace omega;
using namespace omega::server;
using namespace perfbench;

namespace {

// Fixed once, from the 4-core host measurements in NOTES.md; never derived
// from the run itself.  The top rung sits above capacity and exists to
// fail.
constexpr double kNominalQps = 200;
constexpr double kLatencyLimitMs = 100;
constexpr double kWarmupQps = 600;
constexpr double kLadder[] = {600, 2400};
// Twelve rounds of the shape table: each structural variant equally often.
constexpr size_t kHotSet = 144;
constexpr uint64_t kHotSetSeed = 0x243f6a8885a308d3ULL;
// Requests a connection may have in flight; more wait in the generator
// (still timed from their due time), so neither side can fill the
// other's socket buffer and stall.
constexpr size_t kMaxPipelined = 16;

/// The split of the CPUs this process started with, fixed on first use
/// (before the generator pins itself).  The daemon gets all CPUs but the
/// last, the load generator the last one, so neither steals the other's
/// time; with a single CPU nobody is pinned.
struct CpuPlan {
  std::vector<int> Daemon, Generator;
};

const CpuPlan &cpuPlan() {
  static const CpuPlan Plan = [] {
    CpuPlan P;
    P.Daemon = allowedCpus();
    if (P.Daemon.size() > 1) {
      P.Generator = {P.Daemon.back()};
      P.Daemon.pop_back();
    }
    return P;
  }();
  return Plan;
}

/// Keeps every CPU busy for a few seconds before anything is measured.  On
/// the seed host (a shared VM) the first open-loop run after an idle spell
/// otherwise runs 1.5-4x slower throughout, long after the daemon's own
/// warm-up; a run preceded by a few seconds of load does not.
void preheat(const CpuPlan &Plan) {
  constexpr double kPreheatS = 3;
  std::vector<int> All = Plan.Daemon;
  All.insert(All.end(), Plan.Generator.begin(), Plan.Generator.end());
  double End = nowSeconds() + kPreheatS;
  std::vector<std::thread> Spinners;
  for (int Cpu : All)
    Spinners.emplace_back([Cpu, End] {
      pinTo({Cpu});
      while (nowSeconds() < End) {
      }
    });
  for (std::thread &T : Spinners)
    T.join();
}

void sleepSeconds(double S) {
  std::this_thread::sleep_for(std::chrono::duration<double>(S));
}

/// One omegad child process.  The destructor makes sure it is gone.
class Daemon {
public:
  Daemon(const Options &O, std::string Socket) : Socket(std::move(Socket)) {
    const std::vector<int> &Cpus = cpuPlan().Daemon;
    size_t Cores = std::max<size_t>(1, Cpus.size());
    std::string Soft = std::to_string(Cores), Hard = std::to_string(4 * Cores);
    std::string Log = O.WorkDir + "/omegad.log";
    std::vector<std::string> Args = {O.Omegad,        "--socket",
                                     this->Socket,    "--max-inflight",
                                     Soft,            "--hard-limit",
                                     Hard};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    pid_t Parent = ::getpid();
    Pid = ::fork();
    if (Pid == 0) {
      // The daemon must not outlive the benchmark, however it ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != Parent)
        ::_exit(127);
      pinTo(Cpus);
      int LogFd = ::open(Log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (LogFd >= 0)
        ::dup2(LogFd, STDERR_FILENO);
      ::execv(Argv[0], Argv.data());
      ::_exit(127);
    }
  }
  ~Daemon() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
  }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool running() const { return Pid > 0; }
  pid_t pid() const { return Pid; }
  const std::string &socket() const { return Socket; }

  /// SIGTERM, then wait up to \p TimeoutS for a graceful exit.  True iff
  /// the daemon exited 0 and removed its socket.
  bool stop(double TimeoutS, std::string &Why) {
    if (Pid <= 0) {
      Why = "not running";
      return false;
    }
    ::kill(Pid, SIGTERM);
    double Deadline = nowSeconds() + TimeoutS;
    int Status = 0;
    pid_t Got = 0;
    while ((Got = ::waitpid(Pid, &Status, WNOHANG)) == 0 &&
           nowSeconds() < Deadline)
      sleepSeconds(0.001);
    if (Got != Pid) {
      Why = "did not exit within the drain timeout";
      return false; // The destructor kills it.
    }
    Pid = -1;
    if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
      Why = "exited with status " + std::to_string(Status);
      return false;
    }
    struct stat St;
    if (::stat(Socket.c_str(), &St) == 0) {
      Why = "left its socket behind";
      return false;
    }
    return true;
  }

private:
  std::string Socket;
  pid_t Pid = -1;
};

int connectTo(const std::string &Path) {
  sockaddr_un Addr{};
  if (Path.size() >= sizeof(Addr.sun_path))
    return -1;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// Retries until the daemon listens (it binds after exec).
int connectWhenUp(const Daemon &D, double TimeoutS) {
  double Deadline = nowSeconds() + TimeoutS;
  while (nowSeconds() < Deadline) {
    int Fd = connectTo(D.socket());
    if (Fd >= 0)
      return Fd;
    sleepSeconds(0.0002);
  }
  return -1;
}

CountRequestMsg requestFor(const Query &Q) {
  CountRequestMsg M;
  M.Formula = Q.Text;
  M.Vars = Q.Vars;
  M.Backend = static_cast<uint8_t>(optionsFor(Q).Backend);
  return M;
}

/// One request/response exchange on a blocking connection.
bool roundTrip(int Fd, const std::vector<uint8_t> &Frame,
               CountResponseMsg &Out) {
  std::vector<uint8_t> Payload;
  return writeFrame(Fd, Frame) == IoStatus::Ok &&
         readFrame(Fd, Payload, 60000) == IoStatus::Ok &&
         decodeCountResponse(Payload, Out);
}

bool fetchStats(int Fd, std::string &Json) {
  std::vector<uint8_t> Payload;
  return writeFrame(Fd, encodeEmpty(MsgType::StatsRequest)) == IoStatus::Ok &&
         readFrame(Fd, Payload, 60000) == IoStatus::Ok &&
         decodeStatsResponse(Payload, Json);
}

/// The first number after "Key": in \p Json (the stats documents are flat
/// enough that the first occurrence is the one wanted).
double jsonNumber(const std::string &Json, const std::string &Key) {
  size_t At = Json.find("\"" + Key + "\":");
  return At == std::string::npos
             ? 0
             : std::strtod(Json.c_str() + At + Key.size() + 3, nullptr);
}

/// Set-up as omegad's users see it: from spawning the daemon to the answer
/// of its first (trivial) request.  Median of several cold starts.
double daemonSetupSeconds(const Options &O, int Probes) {
  Query Trivial;
  Trivial.Text = "0 <= i <= 3";
  Trivial.Vars = {"i"};
  std::vector<uint8_t> Frame = encodeCountRequest(requestFor(Trivial));
  std::vector<double> Samples;
  for (int I = 0; I < Probes; ++I) {
    double T0 = nowSeconds();
    Daemon D(O, O.WorkDir + "/setup-" + std::to_string(::getpid()) + ".sock");
    int Fd = D.running() ? connectWhenUp(D, 10) : -1;
    CountResponseMsg R;
    bool Ok = Fd >= 0 && roundTrip(Fd, Frame, R) &&
              R.Outcome == QueryOutcome::Exact;
    double T1 = nowSeconds();
    if (Fd >= 0)
      ::close(Fd);
    std::string Why;
    if (!Ok || !D.stop(10, Why))
      return -1;
    Samples.push_back(T1 - T0);
  }
  return median(Samples);
}

/// The request mix, drawn from the seed.  Every distinct query lands in
/// Distinct once; requests refer to it by index.  Each block of 20
/// requests holds exactly 15 hot repeats, 3 fresh loop-nest draws and 2
/// dense queries in a shuffled order, and the hot repeats walk a shuffled
/// pass over the whole hot set, so a run's cost does not hinge on which
/// few hot queries a seed happens to repeat most.
class Mix {
public:
  explicit Mix(uint64_t Seed)
      : R(Seed), Fresh(Seed ^ 0xf00d), Dense(Seed ^ 0xd15e),
        Gaps(Seed ^ 0x6a09e667f3bcc908ULL) {
    // The hot set is the service's standing working set, the same for
    // every seed (like a fixed corpus); the seed draws everything else:
    // arrival times, request order, and the fresh and dense queries.
    Rng HotDraws(kHotSetSeed);
    for (size_t I = 0; I < kHotSet; ++I)
      Hot.push_back(
          intern(loopNestQuery(HotDraws, I, /*AllowFlopSums=*/false)));
  }
  size_t next() {
    if (Block.empty()) {
      Block.assign(kBlockHot, 'h');
      Block.append(kBlockFresh, 'f');
      Block.append(kBlock - kBlockHot - kBlockFresh, 'd');
      shuffle(Block);
    }
    char Kind = Block.back();
    Block.pop_back();
    if (Kind == 'f')
      return intern(loopNestQuery(Fresh, FreshIndex++, false));
    if (Kind == 'd')
      return intern(denseQuery(Dense));
    if (HotPass.empty()) {
      HotPass = Hot;
      shuffle(HotPass);
    }
    size_t Q = HotPass.back();
    HotPass.pop_back();
    return Q;
  }
  const std::vector<size_t> &hot() const { return Hot; }
  const Query &query(size_t I) const { return Distinct[I]; }
  const std::vector<uint8_t> &frame(size_t I) const { return Frames[I]; }
  double nextGap(double Rate) { return Gaps.exponential(1.0 / Rate); }

private:
  static constexpr size_t kBlock = 20, kBlockHot = 15, kBlockFresh = 3;

  template <typename C> void shuffle(C &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[static_cast<size_t>(R.range(0, int64_t(I) - 1))]);
  }
  size_t intern(Query Q) {
    auto [It, New] = Index.emplace(queryKey(Q), Distinct.size());
    if (New) {
      Frames.push_back(encodeCountRequest(requestFor(Q)));
      Distinct.push_back(std::move(Q));
    }
    return It->second;
  }
  Rng R, Fresh, Dense, Gaps;
  uint64_t FreshIndex = kHotSet;
  std::string Block;
  std::vector<size_t> Hot, HotPass;
  std::vector<Query> Distinct;
  std::vector<std::vector<uint8_t>> Frames;
  std::map<std::string, size_t> Index;
};

/// What the wire answered for each distinct query, for the oracle.
using WireAnswers = std::map<size_t, std::string>;

struct PhaseResult {
  double Rate = 0, WindowS = 0;
  size_t Sent = 0, Answered = 0, Failed = 0, BacklogAtEnd = 0;
  std::vector<double> LatMs, LagMs;
  double CodecUs = 0; ///< Traced phases: client + mirrored server codec.
  size_t CodecFrames = 0;
};

/// The open-loop generator: sends Poisson arrivals at \p Rate for
/// \p Seconds over \p Fds, then waits for the stragglers.
PhaseResult openLoop(const std::vector<int> &Fds, Mix &M, double Rate,
                     double Seconds, bool TraceCodec, WireAnswers &Wire) {
  PhaseResult P;
  P.Rate = Rate;
  struct Pending {
    size_t Query;
    double Due;
  };
  std::vector<std::deque<Pending>> Queues(Fds.size());
  std::deque<Pending> Waiting; // Due, but every connection is full.
  std::vector<pollfd> Pfds;
  for (int Fd : Fds)
    Pfds.push_back({Fd, POLLIN, 0});
  double Start = nowSeconds(), End = Start + Seconds;
  double Due = Start + M.nextGap(Rate);
  double DrainDeadline = End + 10;
  size_t Outstanding = 0;
  bool Sending = true;
  size_t RoundRobin = 0;
  std::vector<uint8_t> Payload;
  while (true) {
    double Now = nowSeconds();
    if (Sending && Now >= End) {
      Sending = false;
      P.WindowS = Now - Start;
      P.BacklogAtEnd = Outstanding + Waiting.size();
    }
    if (Sending && Now >= Due) {
      Waiting.push_back({M.next(), Due});
      P.LagMs.push_back((Now - Due) * 1e3);
      ++P.Sent;
      Due += M.nextGap(Rate);
      continue;
    }
    // Hand waiting requests to the least-loaded connection with room.
    while (!Waiting.empty()) {
      size_t Best = RoundRobin++ % Fds.size();
      for (size_t C = 0; C < Fds.size(); ++C)
        if (Queues[C].size() < Queues[Best].size())
          Best = C;
      if (Queues[Best].size() >= kMaxPipelined)
        break;
      Pending Req = Waiting.front();
      Waiting.pop_front();
      const std::vector<uint8_t> *Frame = &M.frame(Req.Query);
      std::vector<uint8_t> Traced;
      if (TraceCodec) {
        double T0 = nowSeconds();
        Traced = encodeCountRequest(requestFor(M.query(Req.Query)));
        CountRequestMsg Mirror; // What the session decodes.
        bool Ok = decodeCountRequest(Traced, Mirror);
        P.CodecUs += (nowSeconds() - T0) * 1e6;
        if (Ok)
          Frame = &Traced;
      }
      if (writeFrame(Fds[Best], *Frame) != IoStatus::Ok) {
        ++P.Failed;
        continue;
      }
      Queues[Best].push_back(Req);
      ++Outstanding;
    }
    if (!Sending && ((Outstanding == 0 && Waiting.empty()) ||
                     Now > DrainDeadline))
      break;
    double WaitS = Sending ? std::max(0.0, Due - Now) : 0.05;
    timespec Ts{static_cast<time_t>(WaitS),
                static_cast<long>(std::fmod(WaitS, 1.0) * 1e9)};
    if (::ppoll(Pfds.data(), Pfds.size(), &Ts, nullptr) <= 0)
      continue;
    for (size_t C = 0; C < Pfds.size(); ++C) {
      if (!(Pfds[C].revents & (POLLIN | POLLHUP | POLLERR)) ||
          Queues[C].empty())
        continue;
      Pending Req = Queues[C].front();
      Queues[C].pop_front();
      --Outstanding;
      CountResponseMsg R;
      bool Ok = readFrame(Fds[C], Payload, 10000) == IoStatus::Ok;
      double Got = nowSeconds();
      if (Ok && TraceCodec) {
        double T0 = nowSeconds();
        Ok = decodeCountResponse(Payload, R);
        std::vector<uint8_t> Mirror = encodeCountResponse(R);
        P.CodecUs += (nowSeconds() - T0) * 1e6;
        ++P.CodecFrames;
        (void)Mirror;
      } else if (Ok) {
        Ok = decodeCountResponse(Payload, R);
      }
      if (!Ok || R.Outcome != QueryOutcome::Exact) {
        // Errors, refusals, shed (Bounded without a client budget),
        // Overloaded and transport failures all count as failed.
        ++P.Failed;
        continue;
      }
      ++P.Answered;
      P.LatMs.push_back((Got - Req.Due) * 1e3);
      Wire.emplace(Req.Query, R.Value);
    }
  }
  // Whatever is still outstanding or waiting timed out.
  P.Failed += Outstanding + Waiting.size();
  if (Sending)
    P.WindowS = nowSeconds() - Start;
  return P;
}

bool rungHolds(const PhaseResult &P) {
  // Within the latency limit at p99, every request answered, and no
  // queue left behind beyond what the limit itself allows in flight.
  double Allowed = std::max(8.0, P.Rate * kLatencyLimitMs / 1e3);
  return P.Failed == 0 && !P.LatMs.empty() &&
         percentile(P.LatMs, 99) <= kLatencyLimitMs &&
         double(P.BacklogAtEnd) <= Allowed;
}

/// Graceful stop with requests in flight: each connection has one fresh
/// query outstanding when SIGTERM arrives.  Every reply must be an answer
/// or ShuttingDown, and the daemon must exit 0 and remove its socket.
bool drainCheck(Daemon &D, const std::vector<int> &Fds, Mix &M,
                RunResult &Out) {
  for (int Fd : Fds)
    (void)writeFrame(Fd, M.frame(M.next()));
  sleepSeconds(0.002);
  std::string Why;
  bool Stopped = D.stop(30, Why);
  size_t Answered = 0, Refused = 0;
  std::vector<uint8_t> Payload;
  for (int Fd : Fds) {
    IoStatus S = readFrame(Fd, Payload, 10000);
    CountResponseMsg R;
    if (S == IoStatus::Eof)
      continue; // Read side closed before the request was taken.
    if (S != IoStatus::Ok || !decodeCountResponse(Payload, R)) {
      Why = "a connection broke during the drain";
      Stopped = false;
    } else if (R.Outcome == QueryOutcome::Exact)
      ++Answered;
    else if (R.Outcome == QueryOutcome::ShuttingDown)
      ++Refused;
    else {
      Why = std::string("drain reply ") + queryOutcomeName(R.Outcome);
      Stopped = false;
    }
  }
  Out.info("drain_answered", double(Answered));
  Out.info("drain_refused", double(Refused));
  if (!Stopped) {
    Out.Correct = false;
    Out.Wrong = "omegad drain: " + Why;
  }
  return Stopped;
}

/// Oracle: each distinct query the wire answered is recomputed in process
/// from the same text and must print identically; the in-process answers
/// are then checked against brute force.
void checkWire(const Mix &M, const WireAnswers &Wire, double BudgetS,
               RunResult &Out) {
  double Deadline = nowSeconds() + BudgetS;
  std::vector<Query> Qs;
  std::vector<std::vector<Rational>> Values;
  size_t Compared = 0;
  for (const auto &[Idx, Text] : Wire) {
    if (nowSeconds() > Deadline)
      break;
    const Query &Q = M.query(Idx);
    CountResult R = countText(Q, optionsFor(Q));
    ++Compared;
    if (!R.exact() || R.Value.toString() != Text) {
      Out.Correct = false;
      Out.Wrong = "wire answer '" + Text + "' differs from in-process '" +
                  R.Value.toString() + "' for " + Q.Text;
      return;
    }
    Qs.push_back(Q);
    Values.push_back(evaluateAtBindings(Q, R.Value));
  }
  Out.info("wire_compared", double(Compared));
  Out.info("wire_distinct_answered", double(Wire.size()));
  checkSample(Qs, Values, BudgetS / 2, Out);
}

struct Session {
  std::unique_ptr<Daemon> D;
  std::vector<int> Fds;
  ~Session() {
    for (int Fd : Fds)
      ::close(Fd);
  }
};

/// Starts the measured daemon, connects, and warms it up: each hot query
/// once, one at a time, so the hot set is served from a warm cache; then
/// open-loop traffic at the top of the ladder's passing range, so the
/// daemon's heap and cache reach their working size before any timing.
bool startSession(const Options &O, Mix &M, Session &S, WireAnswers &Wire) {
  S.D = std::make_unique<Daemon>(
      O, O.WorkDir + "/omegad-" + std::to_string(::getpid()) + ".sock");
  // One connection per daemon core, at most four.
  size_t Connections = std::clamp<size_t>(cpuPlan().Daemon.size(), 1, 4);
  for (size_t C = 0; C < Connections; ++C) {
    int Fd = S.D->running() ? connectWhenUp(*S.D, 10) : -1;
    if (Fd < 0)
      return false;
    S.Fds.push_back(Fd);
  }
  for (size_t H : M.hot()) {
    CountResponseMsg R;
    if (!roundTrip(S.Fds[0], M.frame(H), R))
      return false;
  }
  (void)openLoop(S.Fds, M, kWarmupQps, 0.1 * O.Seconds, false, Wire);
  return true;
}

[[noreturn]] void die(const std::string &Why) {
  std::cerr << "perfbench: omegad-open: " << Why << "\n";
  std::exit(1);
}

void account(const PhaseResult &P, RunResult &Out) {
  Out.Attempted += P.Sent;
  Out.Failed += P.Failed;
}

RunResult untraced(const Options &O) {
  RunResult Out;
  double Setup = daemonSetupSeconds(O, 11);
  if (Setup < 0)
    die("set-up probe failed (is --omegad built?)");
  Mix M(O.Seed);
  Session S;
  WireAnswers Wire;
  if (!startSession(O, M, S, Wire))
    die("cannot start or reach omegad");

  PhaseResult P =
      openLoop(S.Fds, M, kNominalQps, 0.6 * O.Seconds, false, Wire);
  account(P, Out);
  // The ladder reports the rate achieved at the highest rung that holds
  // (the nominal phase counts as the lowest rung).
  double Sustained = double(P.Answered) / P.WindowS;
  std::vector<double> Lags = P.LagMs;
  for (double Rate : kLadder) {
    // The top rung only has to show its backlog growing.
    bool Top = Rate == kLadder[std::size(kLadder) - 1];
    double RungS = (Top ? 0.1 : 0.15) * O.Seconds;
    // A rung that fails gets one more try: a stall of the shared host
    // passes, an overloaded daemon fails again.
    PhaseResult L;
    for (int Try = 0; Try < 2; ++Try) {
      L = openLoop(S.Fds, M, Rate, RungS, false, Wire);
      account(L, Out);
      Lags.insert(Lags.end(), L.LagMs.begin(), L.LagMs.end());
      if (rungHolds(L) || Top)
        break;
    }
    std::string Rung = "rung_" + std::to_string(int(Rate));
    Out.info(Rung + "_p99_ms", percentile(L.LatMs, 99));
    Out.info(Rung + "_backlog", double(L.BacklogAtEnd));
    if (!rungHolds(L))
      break;
    Sustained = double(L.Answered) / L.WindowS;
  }
  // Peak memory of the counting process itself, before the drain and the
  // oracle.
  double Rss = peakRssMb(S.D->pid());
  drainCheck(*S.D, S.Fds, M, Out);
  checkWire(M, Wire, 0.2 * O.Seconds, Out);

  Out.add("setup_s", "s", Setup);
  Out.add("queries_per_s", "1/s", double(P.Answered) / P.WindowS);
  Out.add("sustained_qps", "1/s", Sustained);
  Out.add("latency_p50_ms", "ms", median(P.LatMs));
  Out.add("latency_p99_ms", "ms", percentile(P.LatMs, 99));
  Out.add("peak_rss_mb", "MiB", Rss);
  Out.add("answered_share", "ratio", 1.0 - Out.failedShare());
  Out.info("nominal_qps", kNominalQps);
  Out.info("latency_limit_ms", kLatencyLimitMs);
  Out.info("latency_samples", double(P.LatMs.size()));
  Out.info("latency_p99_samples_beyond",
           double(samplesBeyond(P.LatMs.size(), 99)));
  Out.info("loadgen_lag_p99_ms", percentile(Lags, 99));
  Out.info("failed_share", Out.failedShare());
  return Out;
}

RunResult traced(const Options &O) {
  RunResult Out;
  Mix M(O.Seed);
  Session S;
  WireAnswers Wire;
  if (!startSession(O, M, S, Wire))
    die("cannot start or reach omegad");

  // Untraced then traced phases at the nominal rate; the p50 difference is
  // the tracing overhead.
  double Phase = 0.25 * O.Seconds;
  PhaseResult Plain = openLoop(S.Fds, M, kNominalQps, Phase, false, Wire);
  PhaseResult Traced = openLoop(S.Fds, M, kNominalQps, Phase, true, Wire);
  account(Plain, Out);
  account(Traced, Out);

  // Wire minus in-process latency over one connection, one request at a
  // time (a low rate), on the hot set both sides have already cached.
  std::vector<double> Overhead;
  for (int Pass = 0; Pass < 2; ++Pass)
    for (size_t H : M.hot()) {
      const Query &Q = M.query(H);
      double T0 = nowSeconds();
      CountResponseMsg R;
      bool Ok = roundTrip(S.Fds[0], M.frame(H), R);
      double T1 = nowSeconds();
      CountResult Local = countText(Q, optionsFor(Q));
      double T2 = nowSeconds();
      if (Pass == 1 && Ok && Local.exact())
        Overhead.push_back((T1 - T0 - (T2 - T1)) * 1e6);
    }

  std::string Json;
  if (!fetchStats(S.Fds[0], Json))
    die("StatsRequest failed");
  drainCheck(*S.D, S.Fds, M, Out);

  // The library layers under this mix: the in-process traced replay of
  // the requests in the order the phases drew them.
  SpanLog Log;
  LayerTotals T;
  Mix Replay(O.Seed);
  clearConjunctCache();
  for (size_t H : Replay.hot())
    (void)countText(Replay.query(H), optionsFor(Replay.query(H)));
  size_t Requests = std::min<size_t>(Plain.Sent, 600);
  for (size_t I = 0; I < Requests; ++I) {
    size_t Q = Replay.next();
    traceQuery(Replay.query(Q), I, Log, T);
  }
  Out.Attempted += T.Queries + T.Failed;
  Out.Failed += T.Failed;
  addLayerMetrics(Log, T, Out);
  addCacheMetrics(uint64_t(jsonNumber(Json, "cache_hits")),
                  uint64_t(jsonNumber(Json, "cache_misses")), Out);
  Out.add("server.codec_us", "us",
          Traced.CodecFrames ? Traced.CodecUs / double(Traced.CodecFrames) : 0);
  Out.add("server.overhead_us", "us", median(Overhead));
  Out.add("server.shed", "count", jsonNumber(Json, "shed"));
  Out.add("server.rejected", "count", jsonNumber(Json, "rejected"));
  std::vector<double> Lags = Plain.LagMs;
  Lags.insert(Lags.end(), Traced.LagMs.begin(), Traced.LagMs.end());
  Out.add("loadgen.lag_p99_ms", "ms", percentile(Lags, 99));
  double P50Plain = median(Plain.LatMs), P50Traced = median(Traced.LatMs);
  Out.add("trace.overhead_pct", "%",
          P50Plain > 0 ? 100.0 * (P50Traced - P50Plain) / P50Plain : 0);
  checkWire(M, Wire, 0.15 * O.Seconds, Out);
  Log.write(O.WorkDir + "/spans-" + O.Workload + "-" +
            std::to_string(O.Seed) + ".jsonl");
  return Out;
}

} // namespace

RunResult perfbench::runOmegadWorkload(const Options &O) {
  preheat(cpuPlan());
  pinTo(cpuPlan().Generator);
  return O.Trace ? traced(O) : untraced(O);
}
