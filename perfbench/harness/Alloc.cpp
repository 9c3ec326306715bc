//===- perfbench/harness/Alloc.cpp - Global operator new interposer -------===//
//
// Counting costs one thread-local add per allocation, in traced and
// untraced runs alike, so it moves no end-to-end comparison.
//
//===----------------------------------------------------------------------===//

#include "Alloc.h"

#include <cstdlib>
#include <new>

namespace {
thread_local perfbench::AllocCount Counts;

void *allocate(std::size_t N) {
  ++Counts.Calls;
  Counts.Bytes += N;
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
} // namespace

perfbench::AllocCount perfbench::threadAllocs() { return Counts; }

void *operator new(std::size_t N) { return allocate(N); }
void *operator new[](std::size_t N) { return allocate(N); }
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  ++Counts.Calls;
  Counts.Bytes += N;
  return std::malloc(N ? N : 1);
}
void *operator new[](std::size_t N, const std::nothrow_t &T) noexcept {
  return ::operator new(N, T);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
