//===- baselines/Enumerator.cpp - Brute-force counting oracle ------------===//

#include "baselines/Enumerator.h"

#include "omega/Omega.h"
#include "support/Error.h"

using namespace omega;

namespace {

bool hasQuantifier(const Formula &F) {
  if (F.kind() == FormulaKind::Exists || F.kind() == FormulaKind::Forall)
    return true;
  for (const Formula &C : F.children())
    if (hasQuantifier(C))
      return true;
  return false;
}

/// The oracle path is simplify-then-evaluate: quantifiers are eliminated
/// exactly by the Omega test up front, so the per-point check is
/// quantifier-free (stride constraints evaluate directly) and does not
/// depend on the witness box.  Wildcards a clause still carries come back
/// as an exists() and fall through to the box search, same as before.
Formula eliminateQuantifiers(const Formula &F) {
  if (!hasQuantifier(F))
    return F;
  std::vector<Formula> Clauses;
  for (const Conjunct &C : simplify(F))
    Clauses.push_back(Formula::fromConjunct(C));
  if (Clauses.empty())
    return Formula::falseFormula();
  return Formula::disj(std::move(Clauses));
}

} // namespace

bool omega::evaluateInBox(const Formula &F, Assignment &Values,
                          int64_t WitnessLo, int64_t WitnessHi) {
  switch (F.kind()) {
  case FormulaKind::True:
    return true;
  case FormulaKind::False:
    return false;
  case FormulaKind::Atom:
    return F.constraint().holds(Values);
  case FormulaKind::And:
    for (const Formula &C : F.children())
      if (!evaluateInBox(C, Values, WitnessLo, WitnessHi))
        return false;
    return true;
  case FormulaKind::Or:
    for (const Formula &C : F.children())
      if (evaluateInBox(C, Values, WitnessLo, WitnessHi))
        return true;
    return false;
  case FormulaKind::Not:
    return !evaluateInBox(F.children()[0], Values, WitnessLo, WitnessHi);
  case FormulaKind::Exists:
  case FormulaKind::Forall: {
    std::vector<VarId> Vars(F.quantified().begin(), F.quantified().end());
    // Outer bindings the quantifier shadows, restored after the search.
    Assignment Shadowed;
    for (VarId V : Vars)
      if (const BigInt *Outer = Values.lookup(V))
        Shadowed[V] = *Outer;
    bool IsExists = F.kind() == FormulaKind::Exists;
    std::vector<int64_t> Vals(Vars.size(), WitnessLo);
    bool Result = !IsExists;
    while (true) {
      for (size_t I = 0; I < Vars.size(); ++I)
        Values[Vars[I]] = BigInt(Vals[I]);
      bool B = evaluateInBox(F.body(), Values, WitnessLo, WitnessHi);
      if (IsExists && B) {
        Result = true;
        break;
      }
      if (!IsExists && !B) {
        Result = false;
        break;
      }
      size_t I = 0;
      while (I < Vals.size() && ++Vals[I] > WitnessHi)
        Vals[I++] = WitnessLo;
      if (I == Vals.size())
        break;
    }
    for (VarId V : Vars)
      Values.erase(V);
    Values.insert(Shadowed.begin(), Shadowed.end());
    return Result;
  }
  }
  fatalError("evaluateInBox: unknown formula kind");
}

Rational omega::enumerateSum(const Formula &F,
                             const std::vector<std::string> &Vars,
                             const Assignment &Symbols,
                             const QuasiPolynomial &X, int64_t Lo, int64_t Hi,
                             int64_t WitnessLo, int64_t WitnessHi) {
  Formula QF = eliminateQuantifiers(F);
  Rational Sum(0);
  std::vector<int64_t> Vals(Vars.size(), Lo);
  while (true) {
    Assignment A = Symbols;
    for (size_t I = 0; I < Vars.size(); ++I)
      A[Vars[I]] = BigInt(Vals[I]);
    if (evaluateInBox(QF, A, WitnessLo, WitnessHi))
      Sum += X.evaluate(A);
    size_t I = 0;
    while (I < Vals.size() && ++Vals[I] > Hi)
      Vals[I++] = Lo;
    if (I == Vals.size() || Vars.empty())
      break;
  }
  return Sum;
}

BigInt omega::enumerateCount(const Formula &F,
                             const std::vector<std::string> &Vars,
                             const Assignment &Symbols, int64_t Lo,
                             int64_t Hi, int64_t WitnessLo,
                             int64_t WitnessHi) {
  Rational R = enumerateSum(F, Vars, Symbols, QuasiPolynomial(Rational(1)),
                            Lo, Hi, WitnessLo, WitnessHi);
  return R.asInteger();
}
