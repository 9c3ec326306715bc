//===- apps/LoopNest.cpp - Affine loop-nest model -------------------------===//

#include "apps/LoopNest.h"

#include "support/Error.h"

using namespace omega;

LoopNest &LoopNest::add(const std::string &Var, AffineExpr Lower,
                        AffineExpr Upper, BigInt Step) {
  Loop L;
  L.Var = Var;
  L.Lowers.push_back(std::move(Lower));
  L.Uppers.push_back(std::move(Upper));
  L.Step = std::move(Step);
  return add(std::move(L));
}

LoopNest &LoopNest::add(Loop L) {
  check(!L.Lowers.empty() && !L.Uppers.empty(), "loop needs bounds");
  check(L.Step.isPositive(), "loop step must be positive");
  Loops.push_back(std::move(L));
  return *this;
}

LoopNest &LoopNest::guard(Constraint C) {
  Guards.push_back(std::move(C));
  return *this;
}

std::vector<std::string> LoopNest::varOrder() const {
  std::vector<std::string> Out;
  Out.reserve(Loops.size());
  for (const Loop &L : Loops)
    Out.push_back(L.Var);
  return Out;
}

VarSet LoopNest::vars() const {
  VarSet Out;
  for (const Loop &L : Loops)
    Out.insert(internVar(L.Var));
  return Out;
}

Formula LoopNest::iterationSpace() const {
  std::vector<Formula> Parts;
  for (const Loop &L : Loops) {
    AffineExpr V = AffineExpr::variable(L.Var);
    for (const AffineExpr &Lo : L.Lowers)
      Parts.push_back(Formula::atom(Constraint::ge(V - Lo)));
    for (const AffineExpr &Up : L.Uppers)
      Parts.push_back(Formula::atom(Constraint::ge(Up - V)));
    if (!L.Step.isOne())
      // v = lower + step * k: stride anchored at the first lower bound.
      Parts.push_back(
          Formula::atom(Constraint::stride(L.Step, V - L.Lowers[0])));
  }
  for (const Constraint &G : Guards)
    Parts.push_back(Formula::atom(G));
  return Formula::conj(std::move(Parts));
}

PiecewiseValue LoopNest::iterationCount() const {
  return countSolutions(iterationSpace(), vars()).Value;
}

PiecewiseValue LoopNest::flopCount(const QuasiPolynomial &FlopsPerIter) const {
  return sumPolynomial(iterationSpace(), vars(), FlopsPerIter).Value;
}
