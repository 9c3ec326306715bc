//===- server/Server.cpp - The omegad counting service -------------------===//
//
// Listener, session lifecycle, and graceful shutdown.  Locking discipline
// (DESIGN.md §13): one mutex, Impl::M, guards the session list and the
// closed-session totals.  stop() never joins a session thread while
// holding M — sessions call statsJson() (which needs M) from their own
// threads, so joining under the lock would deadlock; the list is moved
// out under M and joined unlocked instead.
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include "omega/Omega.h"
#include "server/Session.h"
#include "support/QueryContext.h"
#include "support/Stats.h"
#include "support/ThreadAnnotations.h"

#include <cerrno>
#include <cstring>
#include <memory>
#include <poll.h>
#include <sstream>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

using namespace omega;
using namespace omega::server;

EffortBudget server::defaultShedBudget() {
  // Tight enough that a pathological query degrades to bounds in
  // milliseconds, loose enough that the fuzz-corpus formulas still count
  // exactly when shed.
  EffortBudget B;
  B.MaxCoefficientBits = 512;
  B.MaxSplintersPerElimination = 8;
  B.MaxDnfClauses = 64;
  B.MaxRecursionDepth = 24;
  return B;
}

namespace {

/// One accepted connection: the session plus the thread that runs it.
struct SessionRec {
  std::unique_ptr<Session> S;
  std::thread T;
  std::atomic<bool> Done{false};
};

/// Totals carried forward from reaped (closed) sessions so the stats
/// document never loses history when a client disconnects.
struct ClosedTotals {
  uint64_t Sessions = 0;
  uint64_t Requests = 0;
  uint64_t Answered = 0;
  uint64_t Shed = 0;
  uint64_t Rejected = 0;
  uint64_t Malformed = 0;

  void absorb(const ClientCounters &C) {
    ++Sessions;
    Requests += C.Requests.load(std::memory_order_relaxed);
    Answered += C.Answered.load(std::memory_order_relaxed);
    Shed += C.Shed.load(std::memory_order_relaxed);
    Rejected += C.Rejected.load(std::memory_order_relaxed);
    Malformed += C.Malformed.load(std::memory_order_relaxed);
  }
};

} // namespace

struct Server::Impl {
  explicit Impl(ServerOptions O)
      : Opts(std::move(O)),
        Queue(Opts.SoftInFlight, Opts.HardInFlight) {}

  const ServerOptions Opts;
  // Internally synchronized (lock-free CAS). omegatidy: allow(guarded-by)
  RequestQueue Queue;
  // All-atomic counter block. omegatidy: allow(guarded-by)
  QueryStatsBlock Stats; ///< Shared sink; all sessions redirect here.

  // ListenFd/AcceptThread/Started/Stopped belong to the thread calling
  // start()/stop(): ListenFd is published before the accept thread spawns
  // and AcceptThread itself is only touched by its owner, so M (which
  // guards session bookkeeping) is not their capability.
  int ListenFd = -1;           // omegatidy: allow(guarded-by)
  std::thread AcceptThread;    // omegatidy: allow(guarded-by)
  std::atomic<bool> Stopping{false};
  std::atomic<bool> Draining{false};
  bool Started = false;        // omegatidy: allow(guarded-by)
  bool Stopped = false;        // omegatidy: allow(guarded-by)

  Mutex M;
  std::vector<std::unique_ptr<SessionRec>> Sessions OMEGA_GUARDED_BY(M);
  ClosedTotals Closed OMEGA_GUARDED_BY(M);
  uint64_t NextSessionId OMEGA_GUARDED_BY(M) = 1;

  void acceptLoop();
  void spawnSession(int Fd);
  void reapFinished() OMEGA_REQUIRES(M);
  std::string statsJson();
};

void Server::Impl::reapFinished() {
  for (auto It = Sessions.begin(); It != Sessions.end();) {
    if ((*It)->Done.load(std::memory_order_acquire)) {
      // Done is the session thread's last store, so this join is
      // near-instant and safe to do under M.
      (*It)->T.join();
      Closed.absorb((*It)->S->counters());
      It = Sessions.erase(It);
    } else {
      ++It;
    }
  }
}

void Server::Impl::spawnSession(int Fd) {
  MutexLock Lock(M);
  reapFinished();
  auto Rec = std::make_unique<SessionRec>();
  SessionHost Host{Queue,
                   Stats,
                   Opts.ShedBudget,
                   Draining,
                   Opts.CacheCapacity,
                   Opts.IdleTimeoutMs,
                   [this] { return statsJson(); }};
  Rec->S = std::make_unique<Session>(Fd, NextSessionId++, Host);
  SessionRec *Raw = Rec.get();
  Rec->T = std::thread([Raw] {
    Raw->S->run();
    Raw->Done.store(true, std::memory_order_release);
  });
  Sessions.push_back(std::move(Rec));
}

void Server::Impl::acceptLoop() {
  while (!Stopping.load(std::memory_order_relaxed)) {
    // Short poll slices so stop() is observed promptly without signals.
    struct pollfd Pfd = {ListenFd, POLLIN, 0};
    int PR = ::poll(&Pfd, 1, 200);
    if (PR <= 0)
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    if (Stopping.load(std::memory_order_relaxed)) {
      ::close(Fd);
      return;
    }
    spawnSession(Fd);
  }
}

std::string Server::Impl::statsJson() {
  std::ostringstream OS;
  OS << "{\"pipeline\":" << snapshotQueryStats(Stats).toJson()
     << ",\"server\":{";
  OS << "\"soft_limit\":" << Queue.softLimit()
     << ",\"hard_limit\":" << Queue.hardLimit()
     << ",\"in_flight\":" << Queue.inFlight()
     << ",\"admitted\":" << Queue.admitted()
     << ",\"shed\":" << Queue.shedded()
     << ",\"rejected\":" << Queue.rejected();
  MutexLock Lock(M);
  OS << ",\"sessions_total\":" << (Closed.Sessions + Sessions.size())
     << ",\"closed\":{\"requests\":" << Closed.Requests
     << ",\"answered\":" << Closed.Answered << ",\"shed\":" << Closed.Shed
     << ",\"rejected\":" << Closed.Rejected
     << ",\"malformed\":" << Closed.Malformed << "}";
  OS << ",\"clients\":[";
  bool First = true;
  for (const auto &Rec : Sessions) {
    const ClientCounters &C = Rec->S->counters();
    if (!First)
      OS << ",";
    First = false;
    OS << "{\"id\":" << Rec->S->id() << ",\"requests\":"
       << C.Requests.load(std::memory_order_relaxed) << ",\"answered\":"
       << C.Answered.load(std::memory_order_relaxed)
       << ",\"shed\":" << C.Shed.load(std::memory_order_relaxed)
       << ",\"rejected\":" << C.Rejected.load(std::memory_order_relaxed)
       << ",\"malformed\":" << C.Malformed.load(std::memory_order_relaxed)
       << "}";
  }
  OS << "]}}";
  return OS.str();
}

// Pimpl: Impl is incomplete in the header, so the raw pointer is owned
// here and freed in the destructor.  omegatidy: allow(naked-new)
Server::Server(ServerOptions Opts) : P(new Impl(std::move(Opts))) {}

Server::~Server() {
  stop();
  delete P;
}

std::string Server::statsJson() { return P->statsJson(); }

bool Server::start(std::string &Err) {
  if (P->Started) {
    Err = "server already started";
    return false;
  }
  const std::string &Path = P->Opts.SocketPath;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path too long: " + Path;
    return false;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  // A stale socket file from a crashed server must not brick the service.
  ::unlink(Path.c_str());
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Err = std::string("bind ") + Path + ": " + std::strerror(errno);
    ::close(Fd);
    return false;
  }
  if (::listen(Fd, 64) < 0) {
    Err = std::string("listen: ") + std::strerror(errno);
    ::close(Fd);
    ::unlink(Path.c_str());
    return false;
  }

  // The shared cache is sized once, here; per-query CacheCapacity is
  // pinned to this value in the session so clients cannot grow it.
  configureConjunctCache(P->Opts.CacheCapacity);

  P->ListenFd = Fd;
  P->AcceptThread = std::thread([this] { P->acceptLoop(); });
  P->Started = true;
  return true;
}

void Server::stop() {
  if (!P->Started || P->Stopped)
    return;
  P->Stopped = true;
  // Order matters: mark draining first so any request decoded after this
  // point answers ShuttingDown, then stop intake, then let every admitted
  // query run to completion and deliver its response.
  P->Draining.store(true, std::memory_order_relaxed);
  P->Stopping.store(true, std::memory_order_relaxed);
  P->AcceptThread.join();
  ::close(P->ListenFd);
  P->ListenFd = -1;

  std::vector<std::unique_ptr<SessionRec>> ToJoin;
  {
    MutexLock Lock(P->M);
    ToJoin = std::move(P->Sessions);
    P->Sessions.clear();
  }
  // Unblock readers; in-flight queries keep running and still write their
  // responses (shutdownRead leaves the write side open).
  for (auto &Rec : ToJoin)
    Rec->S->shutdownRead();
  for (auto &Rec : ToJoin)
    Rec->T.join();
  {
    MutexLock Lock(P->M);
    for (auto &Rec : ToJoin)
      P->Closed.absorb(Rec->S->counters());
  }
  ::unlink(P->Opts.SocketPath.c_str());
}
