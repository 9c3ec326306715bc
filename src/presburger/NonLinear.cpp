//===- presburger/NonLinear.cpp - Floors, ceilings, mods -----------------===//

#include "presburger/NonLinear.h"

#include "support/Error.h"

using namespace omega;

LoweredExpr omega::lowerFloor(const AffineExpr &E, const BigInt &C, VarId A) {
  check(C.isPositive(), "floor divisor must be positive");
  LoweredExpr R;
  R.Expr = AffineExpr::variable(A);
  R.Side.addWildcard(A);
  AffineExpr CA = C * R.Expr;
  // cα <= e <= cα + (c - 1).
  R.Side.add(Constraint::le(CA, E));
  R.Side.add(Constraint::le(E, CA + AffineExpr(C - BigInt(1))));
  return R;
}

LoweredExpr omega::lowerCeil(const AffineExpr &E, const BigInt &C, VarId B) {
  check(C.isPositive(), "ceil divisor must be positive");
  LoweredExpr R;
  R.Expr = AffineExpr::variable(B);
  R.Side.addWildcard(B);
  AffineExpr CB = C * R.Expr;
  // cβ - (c - 1) <= e <= cβ.
  R.Side.add(Constraint::le(CB - AffineExpr(C - BigInt(1)), E));
  R.Side.add(Constraint::le(E, CB));
  return R;
}

LoweredExpr omega::lowerMod(const AffineExpr &E, const BigInt &C, VarId G) {
  check(C.isPositive(), "mod divisor must be positive");
  LoweredExpr R = lowerFloor(E, C, G);
  // e mod c = e - c * floor(e/c).
  R.Expr = E - C * R.Expr;
  return R;
}
