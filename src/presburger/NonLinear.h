//===- presburger/NonLinear.h - Floors, ceilings, mods ---------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §3 of the paper: floor, ceiling and mod terms stay within Presburger
/// arithmetic by introducing an existentially quantified auxiliary:
///
///   floor(e/c): ∃α: cα <= e <= cα + (c-1),        term value α
///   ceil(e/c) : ∃β: cβ - (c-1) <= e <= cβ,        term value β
///   e mod c   : ∃γ: cγ <= e <= cγ + (c-1),        term value e - cγ
///
/// Each helper returns the replacement affine expression plus a side
/// Conjunct carrying the wildcard and its bounding constraints.  The caller
/// names the wildcard (the parser numbers them "$0", "$1", ... per parse).
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_PRESBURGER_NONLINEAR_H
#define OMEGA_PRESBURGER_NONLINEAR_H

#include "presburger/Conjunct.h"

namespace omega {

/// An affine expression together with the constraints defining its
/// auxiliary wildcards.
struct LoweredExpr {
  AffineExpr Expr;
  Conjunct Side;
};

/// Lowers floor(E / C) with auxiliary \p A; asserts C >= 1.
LoweredExpr lowerFloor(const AffineExpr &E, const BigInt &C, VarId A);

/// Lowers ceil(E / C) with auxiliary \p B; asserts C >= 1.
LoweredExpr lowerCeil(const AffineExpr &E, const BigInt &C, VarId B);

/// Lowers E mod C (mathematical: in [0, C)) with auxiliary \p G; C >= 1.
LoweredExpr lowerMod(const AffineExpr &E, const BigInt &C, VarId G);

} // namespace omega

#endif // OMEGA_PRESBURGER_NONLINEAR_H
