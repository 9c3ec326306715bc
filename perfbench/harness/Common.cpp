//===- perfbench/harness/Common.cpp - Shared benchmark plumbing -----------===//

#include "Bench.h"

#include "omega/Omega.h"
#include "presburger/Parser.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sched.h>
#include <spawn.h>
#include <sstream>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace perfbench;

double perfbench::median(std::vector<double> V) { return percentile(V, 50); }

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * double(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

size_t perfbench::samplesBeyond(size_t N, double P) {
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * double(N)));
  return N - std::min(N, std::max<size_t>(Rank, 1));
}

std::vector<int> perfbench::allowedCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  std::vector<int> Out;
  if (::sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Out.push_back(C);
  return Out;
}

void perfbench::pinTo(const std::vector<int> &Cpus) {
  if (Cpus.empty())
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  (void)::sched_setaffinity(0, sizeof(Set), &Set);
}

double perfbench::peakRssMb(pid_t Pid) {
  std::ifstream In(Pid ? "/proc/" + std::to_string(Pid) + "/status"
                       : std::string("/proc/self/status"));
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // kB -> MiB
  return 0;
}

int perfbench::probeLibrarySetup() {
  double T0 = nowSeconds();
  omega::ParseResult P = omega::parseFormula("0 <= i <= 3");
  if (!P)
    return 1;
  omega::CountResult R =
      omega::countSolutions(*P.Value, omega::VarSet{"i"}, {});
  double T1 = nowSeconds();
  if (!R.exact() || R.Value.evaluate({}) != omega::Rational(4)) {
    std::fprintf(stderr, "perfbench: set-up probe answered %s\n",
                 R.Value.toString().c_str());
    return 1;
  }
  std::printf("%.9f\n", T1 - T0);
  return 0;
}

double perfbench::librarySetupSeconds(const Options &O, int Probes) {
  std::vector<double> Samples;
  for (int I = 0; I < Probes; ++I) {
    int Pipe[2];
    if (::pipe(Pipe) != 0)
      return -1;
    posix_spawn_file_actions_t Actions;
    posix_spawn_file_actions_init(&Actions);
    posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&Actions, Pipe[0]);
    std::string Flag = "--probe-setup";
    char *Argv[] = {const_cast<char *>(O.Self.c_str()), Flag.data(), nullptr};
    pid_t Pid = 0;
    int Err = posix_spawn(&Pid, O.Self.c_str(), &Actions, nullptr, Argv,
                          environ);
    posix_spawn_file_actions_destroy(&Actions);
    ::close(Pipe[1]);
    std::string Out;
    char Buf[128];
    ssize_t N = 0;
    while (Err == 0 && (N = ::read(Pipe[0], Buf, sizeof(Buf))) > 0)
      Out.append(Buf, static_cast<size_t>(N));
    ::close(Pipe[0]);
    int Status = 0;
    if (Err != 0 || ::waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status) ||
        WEXITSTATUS(Status) != 0 || Out.empty())
      return -1;
    Samples.push_back(std::stod(Out));
  }
  return median(Samples);
}

size_t SpanLog::open(const char *Name, uint64_t QueryId, int64_t Parent) {
  // Grow the log before reading the counters, so the span does not count
  // its own bookkeeping.
  Spans.push_back(Span{Name, 0, 0, Parent, QueryId, 0, 0});
  Span &S = Spans.back();
  AllocCount A = threadAllocs();
  S.Allocs = A.Calls; // Start values until close() turns them into deltas.
  S.Bytes = A.Bytes;
  S.StartUs = (nowSeconds() - Origin) * 1e6;
  return Spans.size() - 1;
}

void SpanLog::close(size_t Index) {
  double End = (nowSeconds() - Origin) * 1e6;
  AllocCount A = threadAllocs();
  Span &S = Spans[Index];
  S.EndUs = End;
  S.Allocs = A.Calls - S.Allocs;
  S.Bytes = A.Bytes - S.Bytes;
}

SpanLog::Totals SpanLog::totals(const char *Name) const {
  Totals T;
  for (const Span &S : Spans)
    if (std::string_view(S.Name) == Name) {
      ++T.Calls;
      T.Us += S.EndUs - S.StartUs;
      T.Allocs += S.Allocs;
      T.Bytes += S.Bytes;
    }
  return T;
}

bool SpanLog::write(const std::string &Path) const {
  std::ofstream Out(Path);
  for (const Span &S : Spans)
    Out << "{\"name\":\"" << S.Name << "\",\"start_us\":" << S.StartUs
        << ",\"end_us\":" << S.EndUs << ",\"parent\":" << S.Parent
        << ",\"query\":" << S.QueryId << ",\"allocs\":" << S.Allocs
        << ",\"bytes\":" << S.Bytes << "}\n";
  return static_cast<bool>(Out);
}
