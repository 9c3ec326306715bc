//===- perfbench/harness/Bench.h - Shared benchmark plumbing ----*- C++ -*-===//
//
// Run options, the metric record every workload returns, the span log of
// the traced run, and small statistics helpers.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Alloc.h"
#include "Gen.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Self;    ///< argv[0], for the set-up probe children.
  std::string Omegad;  ///< Path of the omegad binary built beside us.
  std::string WorkDir; ///< Sockets and the span dump go here.
};

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
};

/// What one run reports.  Any wrong answer clears Correct; failures
/// (errors, refusals, unexpected Bounded, shed, timeouts) count in Failed.
struct RunResult {
  bool Correct = true;
  std::string Wrong; ///< First wrong answer, for the log.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Sample counts and other context printed beside the metrics.
  std::vector<std::pair<std::string, double>> Info;

  void add(std::string Name, std::string Unit, double V) {
    Metrics.push_back({std::move(Name), std::move(Unit), V});
  }
  void info(std::string Key, double V) {
    Info.emplace_back(std::move(Key), V);
  }
  double failedShare() const {
    return Attempted ? double(Failed) / double(Attempted) : 0;
  }
};

inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> V);
/// Nearest-rank percentile, \p P in [0, 100].
double percentile(std::vector<double> V, double P);
/// Samples strictly above the nearest-rank \p P percentile of \p N.
size_t samplesBeyond(size_t N, double P);

/// The CPUs this process may run on.
std::vector<int> allowedCpus();
/// Restricts the calling thread (and what it later execs) to \p Cpus.
void pinTo(const std::vector<int> &Cpus);

/// Peak resident set (VmHWM) of \p Pid, or of this process when 0.
double peakRssMb(pid_t Pid = 0);

/// Median of several fresh-process measurements of library set-up: each
/// child times its first parse and trivial count from a cold start.
double librarySetupSeconds(const Options &O, int Probes);
/// The child side of librarySetupSeconds.
int probeLibrarySetup();

/// The traced run's span log: name, start, end, parent span and query id
/// per call, plus the calling thread's heap allocations inside the span.
/// Kept in memory and written out once at the end of the run.
class SpanLog {
public:
  struct Span {
    const char *Name;
    double StartUs = 0, EndUs = 0;
    int64_t Parent = -1;
    uint64_t QueryId = 0;
    uint64_t Allocs = 0, Bytes = 0;
  };

  /// Opens a span; returns its index for close().
  size_t open(const char *Name, uint64_t QueryId, int64_t Parent = -1);
  void close(size_t Index);

  struct Totals {
    uint64_t Calls = 0;
    double Us = 0;
    uint64_t Allocs = 0, Bytes = 0;
    double meanUs() const { return Calls ? Us / double(Calls) : 0; }
    double meanAllocs() const {
      return Calls ? double(Allocs) / double(Calls) : 0;
    }
  };
  Totals totals(const char *Name) const;
  double durationUs(size_t Index) const {
    return Spans[Index].EndUs - Spans[Index].StartUs;
  }

  /// Writes the spans as JSON lines.  Returns false on I/O failure.
  bool write(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  double Origin = nowSeconds();
};

RunResult runLibraryWorkload(const Options &O);
RunResult runOmegadWorkload(const Options &O);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
