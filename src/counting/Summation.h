//===- counting/Summation.h - Symbolic sums over Presburger sets -*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's primary contribution (§4): computing
///
///   (Σ V : P : x)   — the sum of polynomial x over all integer
///                     assignments to the variables V satisfying the
///                     Presburger formula P,
///
/// symbolically in the remaining free variables of P (the symbolic
/// constants).  (Σ V : P : 1) counts the solutions.  The answer is a
/// guarded piecewise quasi-polynomial (PiecewiseValue).
///
/// Pipeline: simplify P to *disjoint* DNF (§5) — so per-clause sums add —
/// then per clause: Smith-Normal-Form re-parameterization of equalities and
/// strides (§4.5.2, "projected sums"), then the convex-sum recursion of
/// §4.4 with the basic-sum rules of §4.1–4.3 and the rational-bound
/// strategies of §4.2.1.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_COUNTING_SUMMATION_H
#define OMEGA_COUNTING_SUMMATION_H

#include "omega/Omega.h"
#include "poly/PiecewiseValue.h"

namespace omega {

/// The pugh backend's body: (Σ Vars : F : X) under \p Opts.  Free
/// variables of F and X outside Vars are the symbolic constants of the
/// answer.  Callers go through sumPolynomial (omega/Omega.h), which adds
/// the query context, stats and trace around this.
///
/// With an unlimited budget this is the exact pass alone: Exact, or
/// Unbounded when some counted variable is not bounded both ways by F.
/// Under a budget the exact pass runs first; if a limit trips, it retries
/// with §4.6-style approximations — real shadow / BoundStrategy::UpperBound
/// for the upper bound, dark shadow / BoundStrategy::LowerBound for the
/// lower — under a relaxed budget; the degraded output does not depend on
/// how far the exact pass got (the wall-clock deadline knob excepted), and
/// it returns Bounded (DESIGN.md §9).
/// For summands other than 1 the bounds assume X is non-negative over the
/// counted region (the paper's setting).
CountResult pughCount(const Formula &F, const VarSet &Vars,
                      const QuasiPolynomial &X, const CountOptions &Opts);

} // namespace omega

#endif // OMEGA_COUNTING_SUMMATION_H
