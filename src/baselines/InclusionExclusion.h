//===- baselines/InclusionExclusion.h - FST-style union counting -*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §4.5.1: the Ferrante-Sarkar-Thrash way of counting a union of clauses
/// — inclusion-exclusion:
///
///   |P ∨ Q| = |P| + |Q| - |P ∧ Q|
///
/// which "quickly gets out of control if there are more than a few clauses
/// (7 summations are needed for 3 clauses)".  The bench compares the
/// 2^k - 1 summations here against the disjoint-DNF route of §5.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_BASELINES_INCLUSIONEXCLUSION_H
#define OMEGA_BASELINES_INCLUSIONEXCLUSION_H

#include "omega/Omega.h"

namespace omega {

/// Result of an inclusion-exclusion count.
struct InclusionExclusionResult {
  PiecewiseValue Value;
  /// Number of clause-intersection summations performed (2^k - 1 for k
  /// clauses, minus intersections proven empty early).
  unsigned NumSummations = 0;
};

/// Counts the union of \p Clauses over \p Vars by inclusion-exclusion.
InclusionExclusionResult
countUnionInclusionExclusion(const std::vector<Conjunct> &Clauses,
                             const VarSet &Vars);

} // namespace omega

#endif // OMEGA_BASELINES_INCLUSIONEXCLUSION_H
