//===- apps/MemoryModel.cpp - Distinct locations and cache lines ---------===//

#include "apps/MemoryModel.h"

#include "presburger/NonLinear.h"
#include "support/Error.h"

using namespace omega;

Formula omega::touchedCells(const LoopNest &Nest,
                            const std::vector<ArrayRef> &Refs,
                            const std::string &Array,
                            std::vector<std::string> &ElemVars) {
  Formula Space = Nest.iterationSpace();
  VarSet LoopVars = Nest.vars();

  size_t Dims = 0;
  for (const ArrayRef &R : Refs)
    if (R.Array == Array)
      Dims = std::max(Dims, R.Subscripts.size());
  ElemVars.clear();
  for (size_t D = 0; D < Dims; ++D)
    ElemVars.push_back("elem" + std::to_string(D));

  std::vector<Formula> PerRef;
  for (const ArrayRef &R : Refs) {
    if (R.Array != Array)
      continue;
    check(R.Subscripts.size() == Dims, "inconsistent array rank");
    std::vector<Formula> Eqs{Space};
    for (size_t D = 0; D < Dims; ++D)
      Eqs.push_back(Formula::atom(Constraint::eq(
          AffineExpr::variable(ElemVars[D]) - R.Subscripts[D])));
    PerRef.push_back(
        Formula::exists(LoopVars, Formula::conj(std::move(Eqs))));
  }
  return Formula::disj(std::move(PerRef));
}

PiecewiseValue omega::countDistinctLocations(const LoopNest &Nest,
                                             const std::vector<ArrayRef> &Refs,
                                             const std::string &Array) {
  std::vector<std::string> ElemVars;
  Formula Touched = touchedCells(Nest, Refs, Array, ElemVars);
  return countSolutions(Touched, VarSet(ElemVars.begin(), ElemVars.end()))
      .Value;
}

PiecewiseValue omega::countDistinctCacheLines(
    const LoopNest &Nest, const std::vector<ArrayRef> &Refs,
    const std::string &Array, const CacheMapping &Map) {
  std::vector<std::string> ElemVars;
  Formula Touched = touchedCells(Nest, Refs, Array, ElemVars);
  check(Map.LineDim < ElemVars.size(), "line dimension out of range");

  // Line coordinates: lineD = floor((elem_LineDim - Base) / LineSize),
  // other coordinates equal the element coordinates.
  std::vector<std::string> LineVars;
  std::vector<Formula> Parts{Touched};
  VarSet Quantified;
  for (size_t D = 0; D < ElemVars.size(); ++D) {
    std::string LV = "line" + std::to_string(D);
    LineVars.push_back(LV);
    Quantified.insert(internVar(ElemVars[D]));
    if (D != Map.LineDim) {
      Parts.push_back(Formula::atom(Constraint::eq(
          AffineExpr::variable(LV) - AffineExpr::variable(ElemVars[D]))));
      continue;
    }
    // line * size <= elem - base <= line * size + size - 1.
    AffineExpr Elem = AffineExpr::variable(ElemVars[D]) -
                      AffineExpr(Map.Base);
    AffineExpr Line = Map.LineSize * AffineExpr::variable(LV);
    Parts.push_back(Formula::atom(Constraint::ge(Elem - Line)));
    Parts.push_back(Formula::atom(Constraint::ge(
        Line + AffineExpr(Map.LineSize - BigInt(1)) - Elem)));
  }
  Formula Lines =
      Formula::exists(std::move(Quantified), Formula::conj(std::move(Parts)));
  return countSolutions(Lines, VarSet(LineVars.begin(), LineVars.end()))
      .Value;
}
