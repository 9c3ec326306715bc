//===- apps/Dependence.h - Array dependence analysis ------------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Omega test's original application (Pugh, CACM 1992): array data
/// dependence testing — combined with this paper's contribution, counting.
/// A (flow) dependence from reference Src in iteration i to reference Dst
/// in iteration i' exists when both iterations are in the space, the
/// subscripts address the same cell, and i lexicographically precedes i'.
///
/// Counting dependences (not just deciding them) serves §1.1's
/// communication application: "the array elements that need to be
/// transmitted from one processor to another during the execution of a
/// loop" — below, the cells that cross a pipeline split of the outer loop.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_APPS_DEPENDENCE_H
#define OMEGA_APPS_DEPENDENCE_H

#include "apps/MemoryModel.h"

namespace omega {

/// The dependence-pair set {(i, i')} from \p Src to \p Dst within
/// \p Nest, with the target iteration's variables renamed by appending
/// \p PrimeSuffix.  Same-iteration pairs are excluded (strict
/// lexicographic order).
Formula dependencePairs(const LoopNest &Nest, const ArrayRef &Src,
                        const ArrayRef &Dst,
                        const std::string &PrimeSuffix = "_p");

/// True iff any cross-iteration dependence exists (the classic Omega-test
/// dependence question), for any symbol values.
bool hasDependence(const LoopNest &Nest, const ArrayRef &Src,
                   const ArrayRef &Dst);

/// (Σ i,i' : dependence : 1) — the number of dependence pairs, symbolic in
/// the nest's symbolic constants.
PiecewiseValue countDependencePairs(const LoopNest &Nest,
                                    const ArrayRef &Src, const ArrayRef &Dst);

/// Communication volume across a pipeline split of \p OuterVar at the
/// (symbolic) boundary \p SplitVar: counts the distinct cells of the
/// written array touched by \p Write in iterations with OuterVar <= split
/// and by \p Read in iterations with OuterVar > split — the elements one
/// processor must send to its successor.
PiecewiseValue splitCommunicationCells(const LoopNest &Nest,
                                       const ArrayRef &Write,
                                       const ArrayRef &Read,
                                       const std::string &OuterVar,
                                       const std::string &SplitVar);

} // namespace omega

#endif // OMEGA_APPS_DEPENDENCE_H
