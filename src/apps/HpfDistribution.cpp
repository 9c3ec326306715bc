//===- apps/HpfDistribution.cpp - Block-cyclic distributions -------------===//

#include "apps/HpfDistribution.h"

using namespace omega;

Formula omega::ownedBy(const BlockCyclic &Dist, const std::string &TVar,
                       const std::string &PVar) {
  // ∃ l, c: t = l + B*p + B*P*c ∧ 0 <= l < B ∧ 0 <= c ∧ 0 <= p < P
  //         ∧ 0 <= t < Extent.
  VarSet Used{TVar, PVar};
  VarId L = freshVar("l", Used);
  VarId C = freshVar("c", Used);
  AffineExpr T = AffineExpr::variable(TVar);
  AffineExpr P = AffineExpr::variable(PVar);
  AffineExpr LV = AffineExpr::variable(L);
  AffineExpr CV = AffineExpr::variable(C);
  std::vector<Formula> Parts;
  Parts.push_back(Formula::atom(Constraint::eq(
      T - LV - Dist.Block * P - Dist.Block * Dist.Procs * CV)));
  Parts.push_back(Formula::atom(Constraint::ge(LV)));
  Parts.push_back(Formula::atom(
      Constraint::ge(AffineExpr(Dist.Block - BigInt(1)) - LV)));
  Parts.push_back(Formula::atom(Constraint::ge(CV)));
  Parts.push_back(Formula::atom(Constraint::ge(P)));
  Parts.push_back(Formula::atom(
      Constraint::ge(AffineExpr(Dist.Procs - BigInt(1)) - P)));
  Parts.push_back(Formula::atom(Constraint::ge(T)));
  Parts.push_back(Formula::atom(
      Constraint::ge(AffineExpr(Dist.Extent - BigInt(1)) - T)));
  VarSet Bound;
  Bound.insert(L);
  Bound.insert(C);
  return Formula::exists(std::move(Bound), Formula::conj(std::move(Parts)));
}

PiecewiseValue omega::cellsPerProcessor(const BlockCyclic &Dist) {
  return countSolutions(ownedBy(Dist, "t", "p"), {"t"}).Value;
}

PiecewiseValue omega::shiftCommVolume(const BlockCyclic &Dist,
                                      const BigInt &Shift) {
  // Cells i owned by p whose shifted partner i + Shift exists but is NOT
  // owned by p.
  Formula OwnI = ownedBy(Dist, "i", "p");
  Formula PartnerOwnedByP = ownedBy(Dist, "ishift", "p");
  Formula PartnerExists = Formula::atom(Constraint::ge(
                              AffineExpr::variable("ishift"))) &&
                          Formula::atom(Constraint::ge(
                              AffineExpr(Dist.Extent - BigInt(1)) -
                              AffineExpr::variable("ishift")));
  Formula Link = Formula::atom(Constraint::eq(
      AffineExpr::variable("ishift") - AffineExpr::variable("i") -
      AffineExpr(Shift)));
  Formula NonLocal = Formula::exists(
      {"ishift"}, Link && PartnerExists && OwnI && !PartnerOwnedByP);
  return countSolutions(NonLocal, {"i"}).Value;
}
