//===- apps/LoopNest.h - Affine loop-nest model -----------------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §1.1: "Within programs with affine loop bounds, guards and subscripts,
/// we can define formulas whose solutions correspond to ... the flops
/// executed by a loop".  A LoopNest models
///
///   for v1 = max(L...) to min(U...) step s1
///     for v2 = ...
///       if (guards) body
///
/// and exposes its iteration space as a Presburger formula, from which
/// iteration counts (execution-time estimates) and flop counts follow.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_APPS_LOOPNEST_H
#define OMEGA_APPS_LOOPNEST_H

#include "omega/Omega.h"

namespace omega {

/// One loop level.
struct Loop {
  std::string Var;
  std::vector<AffineExpr> Lowers; ///< v >= max of these.
  std::vector<AffineExpr> Uppers; ///< v <= min of these.
  BigInt Step = BigInt(1);        ///< Positive step; anchored at Lowers[0].
};

/// An affine loop nest with optional affine guards.
class LoopNest {
public:
  /// Adds a loop with single bounds (the common case).
  LoopNest &add(const std::string &Var, AffineExpr Lower, AffineExpr Upper,
                BigInt Step = BigInt(1));
  /// Adds a loop with max/min bounds.
  LoopNest &add(Loop L);
  /// Conjoins an affine guard over the loop variables and symbols.
  LoopNest &guard(Constraint C);

  const std::vector<Loop> &loops() const { return Loops; }
  const std::vector<Constraint> &guards() const { return Guards; }

  /// Loop variables, outermost first.
  std::vector<std::string> varOrder() const;
  VarSet vars() const;

  /// The iteration space as a conjunction of bounds, steps (as stride
  /// constraints anchored at the first lower bound) and guards.
  Formula iterationSpace() const;

  /// (Σ vars : space : 1): symbolic iteration count — the paper's
  /// execution-time estimate.
  PiecewiseValue iterationCount() const;

  /// (Σ vars : space : FlopsPerIter): symbolic flop count; FlopsPerIter
  /// may depend on the loop variables (e.g. inner trip counts).
  PiecewiseValue flopCount(const QuasiPolynomial &FlopsPerIter) const;

private:
  std::vector<Loop> Loops;
  std::vector<Constraint> Guards;
};

} // namespace omega

#endif // OMEGA_APPS_LOOPNEST_H
