//===- bench/AllocCounter.h - Counting global allocator ---------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
// The allocation-counting harness behind the zero-allocation gates of
// bench_arith and bench_ir: replaces the global operator new/delete with
// malloc/free wrappers that tally every allocation made while an
// AllocWindow is open.  It defines the replaceable allocation functions,
// so include it from exactly one translation unit per program.  It needs
// no google-benchmark (whose own allocations would pollute the count);
// BenchReport.h does.
//
//===----------------------------------------------------------------------===//

#ifndef OMEGA_BENCH_ALLOCCOUNTER_H
#define OMEGA_BENCH_ALLOCCOUNTER_H

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> CountAllocs{false};
std::atomic<uint64_t> AllocCount{0};
} // namespace

// This *is* the global allocator (the zero-allocation gate counts every
// heap call through it), so malloc/free here are the implementation, not
// a leak hazard.  omegatidy: allow(naked-new)
void *operator new(std::size_t N) {
  if (CountAllocs.load(std::memory_order_relaxed))
    AllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1)) // omegatidy: allow(naked-new)
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) { return ::operator new(N); }
// The operator delete overloads forward straight to free.
void operator delete(void *P) noexcept { std::free(P); } // omegatidy: allow(naked-new)
void operator delete(void *P, std::size_t) noexcept { std::free(P); } // omegatidy: allow(naked-new)
void operator delete[](void *P) noexcept { std::free(P); } // omegatidy: allow(naked-new)
void operator delete[](void *P, std::size_t) noexcept { std::free(P); } // omegatidy: allow(naked-new)

namespace {

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

} // namespace

#endif // OMEGA_BENCH_ALLOCCOUNTER_H
