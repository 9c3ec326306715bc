//===- apps/Dependence.cpp - Array dependence analysis -------------------===//

#include "apps/Dependence.h"

#include "omega/Verify.h"
#include "support/Error.h"

using namespace omega;

namespace {

/// Renames every loop variable of \p Nest in \p E by appending Suffix.
AffineExpr primeExpr(const AffineExpr &E, const std::vector<std::string> &Vars,
                     const std::string &Suffix) {
  AffineExpr Out = E;
  for (const std::string &V : Vars)
    Out.renameVar(internVar(V), internVar(V + Suffix));
  return Out;
}

/// The iteration space with all loop variables primed.
Formula primedSpace(const LoopNest &Nest, const std::string &Suffix) {
  // Rebuild from the loop structure with renamed variables.
  LoopNest Primed;
  std::vector<std::string> Vars = Nest.varOrder();
  for (const Loop &L : Nest.loops()) {
    Loop NL;
    NL.Var = L.Var + Suffix;
    for (const AffineExpr &Lo : L.Lowers)
      NL.Lowers.push_back(primeExpr(Lo, Vars, Suffix));
    for (const AffineExpr &Up : L.Uppers)
      NL.Uppers.push_back(primeExpr(Up, Vars, Suffix));
    NL.Step = L.Step;
    Primed.add(std::move(NL));
  }
  for (const Constraint &G : Nest.guards()) {
    Constraint GP = G;
    for (const std::string &V : Vars)
      GP.renameVar(internVar(V), internVar(V + Suffix));
    Primed.guard(std::move(GP));
  }
  return Primed.iterationSpace();
}

/// Strict lexicographic order i < i' over the nest's variables.
Formula lexPrecedes(const std::vector<std::string> &Vars,
                    const std::string &Suffix) {
  std::vector<Formula> Levels;
  for (size_t L = 0; L < Vars.size(); ++L) {
    std::vector<Formula> Conj;
    for (size_t K = 0; K < L; ++K)
      Conj.push_back(Formula::atom(
          Constraint::eq(AffineExpr::variable(Vars[K]),
                         AffineExpr::variable(Vars[K] + Suffix))));
    Conj.push_back(Formula::atom(
        Constraint::lt(AffineExpr::variable(Vars[L]),
                       AffineExpr::variable(Vars[L] + Suffix))));
    Levels.push_back(Formula::conj(std::move(Conj)));
  }
  return Formula::disj(std::move(Levels));
}

} // namespace

Formula omega::dependencePairs(const LoopNest &Nest, const ArrayRef &Src,
                               const ArrayRef &Dst,
                               const std::string &Suffix) {
  check(Src.Array == Dst.Array, "dependence needs a common array");
  check(Src.Subscripts.size() == Dst.Subscripts.size(),
        "inconsistent array rank");
  std::vector<std::string> Vars = Nest.varOrder();
  std::vector<Formula> Parts;
  Parts.push_back(Nest.iterationSpace());
  Parts.push_back(primedSpace(Nest, Suffix));
  for (size_t D = 0; D < Src.Subscripts.size(); ++D)
    Parts.push_back(Formula::atom(Constraint::eq(
        Src.Subscripts[D], primeExpr(Dst.Subscripts[D], Vars, Suffix))));
  Parts.push_back(lexPrecedes(Vars, Suffix));
  return Formula::conj(std::move(Parts));
}

bool omega::hasDependence(const LoopNest &Nest, const ArrayRef &Src,
                          const ArrayRef &Dst) {
  return isSatisfiable(dependencePairs(Nest, Src, Dst));
}

PiecewiseValue omega::countDependencePairs(const LoopNest &Nest,
                                           const ArrayRef &Src,
                                           const ArrayRef &Dst) {
  const std::string Suffix = "_p";
  Formula F = dependencePairs(Nest, Src, Dst, Suffix);
  VarSet Vars = Nest.vars();
  for (const std::string &V : Nest.varOrder())
    Vars.insert(internVar(V + Suffix));
  return countSolutions(F, Vars).Value;
}

PiecewiseValue omega::splitCommunicationCells(
    const LoopNest &Nest, const ArrayRef &Write, const ArrayRef &Read,
    const std::string &OuterVar, const std::string &SplitVar) {
  check(Write.Array == Read.Array, "communication needs a common array");
  std::vector<std::string> Vars = Nest.varOrder();
  const std::string Suffix = "_r";

  // Written on or before the split.
  std::vector<Formula> W{Nest.iterationSpace()};
  W.push_back(Formula::atom(Constraint::le(
      AffineExpr::variable(OuterVar), AffineExpr::variable(SplitVar))));
  std::vector<std::string> Elems;
  for (size_t D = 0; D < Write.Subscripts.size(); ++D) {
    Elems.push_back("cell" + std::to_string(D));
    W.push_back(Formula::atom(Constraint::eq(
        AffineExpr::variable(Elems[D]) - Write.Subscripts[D])));
  }
  Formula Written = Formula::exists(Nest.vars(), Formula::conj(W));

  // Read after the split (primed copy of the space).
  std::vector<Formula> R{primedSpace(Nest, Suffix)};
  R.push_back(Formula::atom(Constraint::gt(
      AffineExpr::variable(OuterVar + Suffix),
      AffineExpr::variable(SplitVar))));
  VarSet PrimedVars;
  for (const std::string &V : Vars)
    PrimedVars.insert(internVar(V + Suffix));
  for (size_t D = 0; D < Read.Subscripts.size(); ++D)
    R.push_back(Formula::atom(Constraint::eq(
        AffineExpr::variable(Elems[D]) -
        primeExpr(Read.Subscripts[D], Vars, Suffix))));
  Formula ReadAfter = Formula::exists(PrimedVars, Formula::conj(R));

  return countSolutions(Written && ReadAfter,
                        VarSet(Elems.begin(), Elems.end()))
      .Value;
}
