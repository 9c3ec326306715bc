//===- apps/Scheduling.h - Load balance & balanced chunks -------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §1.1 applications: "determine whether a parallel loop is load balanced
/// (does each iteration perform the same number of flops)" [TF92], and
/// "given an unbalanced loop, assign different numbers of iterations to
/// each processor so that each processor gets the same total number of
/// flops (balanced chunk-scheduling, as described in [HP93a])".
///
/// Both are built on one symbolic object: the per-outer-iteration work
/// polynomial W(k) = (Σ inner vars : space ∧ outer = k : flops) and its
/// prefix sum P(k) = (Σ all vars : space ∧ outer <= k : flops).
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_APPS_SCHEDULING_H
#define OMEGA_APPS_SCHEDULING_H

#include "apps/LoopNest.h"

namespace omega {

/// Work of a single outer iteration, symbolically in the outer variable
/// (and the symbolic constants).
PiecewiseValue perIterationWork(const LoopNest &Nest,
                                const std::string &OuterVar,
                                const QuasiPolynomial &FlopsPerIter);

/// True iff every outer iteration in [\p Lo, \p Hi] performs the same
/// number of flops at the given symbol values (the [TF92] load-balance
/// check, decided by evaluating the symbolic per-iteration work).
bool isLoadBalanced(const LoopNest &Nest, const std::string &OuterVar,
                    const QuasiPolynomial &FlopsPerIter,
                    const Assignment &Symbols, const BigInt &Lo,
                    const BigInt &Hi);

/// One processor's contiguous range of outer iterations.
struct Chunk {
  BigInt Begin;
  BigInt End; ///< Inclusive; Begin > End encodes an empty chunk.
  BigInt Flops;
};

/// Balanced chunk scheduling [HP93a]: partitions outer iterations
/// [\p Lo, \p Hi] into \p NumProcs contiguous chunks with (nearly) equal
/// flops, using the symbolic prefix sum so each boundary is found by
/// binary search rather than by simulating the loop.
std::vector<Chunk> balancedChunks(const LoopNest &Nest,
                                  const std::string &OuterVar,
                                  const QuasiPolynomial &FlopsPerIter,
                                  const Assignment &Symbols, const BigInt &Lo,
                                  const BigInt &Hi, unsigned NumProcs);

} // namespace omega

#endif // OMEGA_APPS_SCHEDULING_H
