//===- baselines/InclusionExclusion.cpp - FST-style union counting -------===//

#include "baselines/InclusionExclusion.h"

#include "support/Error.h"

using namespace omega;

InclusionExclusionResult
omega::countUnionInclusionExclusion(const std::vector<Conjunct> &Clauses,
                                    const VarSet &Vars) {
  InclusionExclusionResult R;
  size_t K = Clauses.size();
  check(K < 20, "inclusion-exclusion over too many clauses");
  for (size_t Mask = 1; Mask < (size_t(1) << K); ++Mask) {
    Conjunct Inter;
    int Bits = 0;
    for (size_t I = 0; I < K; ++I)
      if (Mask & (size_t(1) << I)) {
        Inter = Bits == 0 ? Clauses[I] : Conjunct::merge(Inter, Clauses[I]);
        ++Bits;
      }
    if (!feasible(Inter))
      continue; // An empty intersection contributes nothing.
    ++R.NumSummations;
    PiecewiseValue Term =
        countSolutions(Formula::fromConjunct(Inter), Vars).Value;
    if (Term.isUnbounded()) {
      R.Value = PiecewiseValue::unbounded();
      return R;
    }
    if (Bits % 2 == 0)
      Term *= Rational(-1);
    R.Value += Term;
  }
  R.Value.mergeSyntactic();
  return R;
}
