//===- perfbench/harness/Alloc.h - Heap allocation counter ------*- C++ -*-===//
//
// Alloc.cpp replaces the global operator new of the benchmark binary, so
// every heap allocation the library makes on a thread is tallied in that
// thread's counters.  A span reads them before and after a call.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ALLOC_H
#define PERFBENCH_ALLOC_H

#include <cstdint>

namespace perfbench {

struct AllocCount {
  uint64_t Calls = 0;
  uint64_t Bytes = 0;
};

/// Allocations made so far on the calling thread.
AllocCount threadAllocs();

} // namespace perfbench

#endif // PERFBENCH_ALLOC_H
