//===- apps/UniformlyGenerated.h - Stencil summarization --------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §5.1: summarizing uniformly generated references [GJ88].  A stencil of
/// references a[i + p1], ..., a[i + pm] touches { i + Δ : Δ ∈ offsets };
/// describing the offset set with linear constraints keeps the touched-set
/// formula free of overlapping clauses.  Two methods, per the paper:
///
///   1. The 0-1 encoding of Ancourt: Δ = Σ z_k p_k with z_k ∈ {0,1},
///      Σ z_k = 1 — always exact, but leans on the solver to simplify a
///      0-1 program ("an iffy proposition at best").
///   2. The convex hull of the offsets plus detected stride constraints —
///      conservative, so an exactness check counts the summary and
///      compares against the number of offsets.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_APPS_UNIFORMLYGENERATED_H
#define OMEGA_APPS_UNIFORMLYGENERATED_H

#include "omega/Omega.h"

#include <optional>

namespace omega {

/// A constant offset vector.
using Offset = std::vector<BigInt>;

/// Method 1: the 0-1 programming encoding.  Returns a formula over
/// \p DeltaVars (one per dimension) whose solutions are exactly the
/// offsets.
Formula offsetsZeroOneFormula(const std::vector<Offset> &Offsets,
                              const std::vector<std::string> &DeltaVars);

/// Method 2 summary: convex hull constraints plus stride constraints.
struct HullSummary {
  /// Hull half-planes and strides over the delta variables.
  Conjunct Constraints;
  /// True iff the summary contains exactly the offsets (checked by
  /// counting, as the paper suggests).
  bool Exact = false;
  /// Number of integer points in the summary.
  BigInt PointCount;
};

/// Computes the hull + strides summary.  Supports 1-D and 2-D offset sets
/// (every stencil in the paper is 2-D); returns std::nullopt for higher
/// dimensions.
std::optional<HullSummary>
summarizeOffsetsHull(const std::vector<Offset> &Offsets,
                     const std::vector<std::string> &DeltaVars);

/// Counts the integer solutions of \p F over \p Vars where the result is a
/// plain number (no symbolic constants); convenience for exactness checks.
BigInt countConcrete(const Formula &F, const VarSet &Vars);

} // namespace omega

#endif // OMEGA_APPS_UNIFORMLYGENERATED_H
