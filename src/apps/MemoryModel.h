//===- apps/MemoryModel.h - Distinct locations and cache lines --*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §1.1 / §6 Examples 4-5 (and [FST91]): counting the distinct memory
/// locations and cache lines touched by the affine array references of a
/// loop nest.  The touched set of reference A[e(i)] is
///
///   { x | ∃ i ∈ space : x = e(i) }
///
/// and the union over references is simplified to disjoint DNF before
/// counting, so overlapping references are counted once.
///
/// Cache lines follow the paper's mapping: element a(i, j) lives on line
/// [(i - base) div lineSize, j] — a column-major array whose first
/// subscript is the contiguous one, 16 elements per line in Example 5.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_APPS_MEMORYMODEL_H
#define OMEGA_APPS_MEMORYMODEL_H

#include "apps/LoopNest.h"

namespace omega {

/// An affine reference to array \p Array with one affine subscript per
/// dimension, e.g. a(6i + 9j - 7) or a(i+1, j).
struct ArrayRef {
  std::string Array;
  std::vector<AffineExpr> Subscripts;
};

/// The set of array cells of \p Array touched by \p Refs inside \p Nest,
/// as a formula over fresh element coordinates; \p ElemVars receives the
/// coordinate variable names (one per dimension).
Formula touchedCells(const LoopNest &Nest, const std::vector<ArrayRef> &Refs,
                     const std::string &Array,
                     std::vector<std::string> &ElemVars);

/// (Σ x : touched(x) : 1): distinct memory locations touched (symbolic).
PiecewiseValue countDistinctLocations(const LoopNest &Nest,
                                      const std::vector<ArrayRef> &Refs,
                                      const std::string &Array);

/// Element-to-cache-line mapping: line coordinate 0 is
/// floor((x_LineDim - Base) / LineSize); other coordinates pass through.
struct CacheMapping {
  unsigned LineDim = 0;
  BigInt LineSize = BigInt(16);
  BigInt Base = BigInt(1); ///< Subscript value of the array's first cell.
};

/// (Σ lines : some touched cell maps to the line : 1): distinct cache
/// lines touched (symbolic).
PiecewiseValue countDistinctCacheLines(const LoopNest &Nest,
                                       const std::vector<ArrayRef> &Refs,
                                       const std::string &Array,
                                       const CacheMapping &Map);

} // namespace omega

#endif // OMEGA_APPS_MEMORYMODEL_H
