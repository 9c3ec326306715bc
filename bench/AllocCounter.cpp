//===- bench/AllocCounter.cpp - Counting global allocator ----------------===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
// The replaceable global allocation functions for the programs that link
// this file (bench_arith, bench_ir).  They are defined out of line, in a
// translation unit of their own, so no caller sees malloc and free through
// an inlined operator new/delete pair.
//
//===----------------------------------------------------------------------===//

#include "AllocCounter.h"

#include <cstdlib>
#include <new>

std::atomic<bool> CountAllocs{false};
std::atomic<uint64_t> AllocCount{0};

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
