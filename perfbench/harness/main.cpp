//===- perfbench/harness/main.cpp - OmegaCount benchmark harness ----------===//
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --omegad PATH --workdir DIR [--commit SHA]
//   perfbench --probe-setup
//
// Workloads: loopnest-symbolic, union-blowup (closed loop, library API)
// and omegad-open (open loop over omegad's AF_UNIX protocol).  With
// --trace 0 the run reports the end-to-end metrics, with --trace 1 the
// per-layer metrics of a separate traced run.  Prints a host line, then
// the result as one JSON object on the last line.  See perfbench/NOTES.md.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace perfbench;

namespace {

[[noreturn]] void usage(const std::string &Why) {
  std::cerr << "perfbench: " << Why
            << "\nusage: perfbench --workload "
               "loopnest-symbolic|union-blowup|omegad-open --seed N "
               "--seconds S --trace 0|1 --omegad PATH --workdir DIR "
               "[--commit SHA]\n";
  std::exit(2);
}

std::string num(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc == 2 && std::string(Argv[1]) == "--probe-setup")
    return probeLibrarySetup();

  Options O;
  O.Self = Argv[0];
  std::string Commit = "unknown";
  bool HaveWorkload = false, HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      usage("missing value after " + Arg);
    std::string V = Argv[++I];
    try {
      if (Arg == "--workload") {
        O.Workload = V;
        HaveWorkload = true;
      } else if (Arg == "--seed") {
        O.Seed = std::stoull(V);
        HaveSeed = true;
      } else if (Arg == "--seconds")
        O.Seconds = std::stod(V);
      else if (Arg == "--trace")
        O.Trace = std::stoi(V) != 0;
      else if (Arg == "--omegad")
        O.Omegad = V;
      else if (Arg == "--workdir")
        O.WorkDir = V;
      else if (Arg == "--commit")
        Commit = V;
      else
        usage("unknown option " + Arg);
    } catch (const std::exception &) {
      usage("bad value for " + Arg + ": " + V);
    }
  }
  if (!HaveWorkload || !HaveSeed || O.WorkDir.empty() || !(O.Seconds > 0))
    usage("--workload, --seed, --seconds and --workdir are required");
  bool Library =
      O.Workload == "loopnest-symbolic" || O.Workload == "union-blowup";
  if (!Library && O.Workload != "omegad-open")
    usage("unknown workload " + O.Workload);
  if (!Library && O.Omegad.empty())
    usage("omegad-open needs --omegad");

  // Timings from an unoptimized or assertion-laden build measure the
  // wrong program; refuse rather than report them.
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: refusing to report from a '"
              << PERFBENCH_BUILD_TYPE << "' build (Release required)\n";
    return 3;
  }
  // The protocol writes with ::write; a vanished peer must not kill us.
  std::signal(SIGPIPE, SIG_IGN);
  ::mkdir(O.WorkDir.c_str(), 0755);

  long Cores = ::sysconf(_SC_NPROCESSORS_ONLN);
  std::cout << "{\"host\":{\"nproc\":" << Cores
            << ",\"compiler\":" << quoted(PERFBENCH_COMPILER)
            << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
            << ",\"commit\":" << quoted(Commit) << "},\"workload\":"
            << quoted(O.Workload) << ",\"seed\":" << O.Seed
            << ",\"seconds\":" << num(O.Seconds)
            << ",\"trace\":" << (O.Trace ? 1 : 0) << "}" << std::endl;

  RunResult R = Library ? runLibraryWorkload(O) : runOmegadWorkload(O);

  if (!R.Correct)
    std::cerr << "perfbench: WRONG ANSWER: " << R.Wrong << "\n";
  std::ostringstream Info;
  Info << "{\"info\":{";
  for (size_t I = 0; I < R.Info.size(); ++I)
    Info << (I ? "," : "") << quoted(R.Info[I].first) << ":"
         << num(R.Info[I].second);
  Info << "}}";
  std::cout << Info.str() << "\n";

  std::ostringstream OS;
  OS << "{\"correct\":" << (R.Correct ? "true" : "false")
     << ",\"attempted\":" << R.Attempted << ",\"failed\":" << R.Failed
     << ",\"metrics\":{";
  for (size_t I = 0; I < R.Metrics.size(); ++I)
    OS << (I ? "," : "") << quoted(R.Metrics[I].Name) << ":{\"value\":"
       << num(R.Metrics[I].Value) << ",\"unit\":" << quoted(R.Metrics[I].Unit)
       << "}";
  OS << "}}";
  std::cout << OS.str() << std::endl;
  return 0;
}
