//===- bench/AllocCounter.h - Counting global allocator ---------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
// The allocation-counting harness behind the zero-allocation gates of
// bench_arith and bench_ir: bench/AllocCounter.cpp replaces the global
// operator new/delete with malloc/free wrappers that tally every
// allocation made while an AllocWindow is open.  Link that file into the
// program and include this header wherever a window is opened.  It needs
// no google-benchmark (whose own allocations would pollute the count);
// BenchReport.h does.
//
//===----------------------------------------------------------------------===//

#ifndef OMEGA_BENCH_ALLOCCOUNTER_H
#define OMEGA_BENCH_ALLOCCOUNTER_H

#include <atomic>
#include <cstdint>

/// Whether global allocations are being tallied, and the running tally.
extern std::atomic<bool> CountAllocs;
extern std::atomic<uint64_t> AllocCount;

/// RAII window during which global allocations are tallied.
struct AllocWindow {
  uint64_t Before;
  AllocWindow() : Before(AllocCount.load()) {
    CountAllocs.store(true, std::memory_order_relaxed);
  }
  uint64_t close() {
    CountAllocs.store(false, std::memory_order_relaxed);
    return AllocCount.load() - Before;
  }
};

#endif // OMEGA_BENCH_ALLOCCOUNTER_H
