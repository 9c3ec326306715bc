//===- counting/Set.cpp - Presburger-definable integer sets --------------===//

#include "counting/Set.h"

#include "omega/Verify.h"
#include "support/Error.h"

#include <sstream>

using namespace omega;

PresburgerSet::PresburgerSet(std::vector<std::string> TupleNames,
                             Formula BodyF)
    : Tuple(std::move(TupleNames)), Body(std::move(BodyF)) {
  VarSet Seen;
  for (const std::string &V : Tuple)
    check(Seen.insert(V).second, "duplicate tuple variable");
}

Formula PresburgerSet::aligned(const PresburgerSet &Other) const {
  check(Other.Tuple.size() == Tuple.size(), "set arity mismatch");
  std::map<std::string, std::string> Map;
  for (size_t I = 0; I < Tuple.size(); ++I)
    if (Other.Tuple[I] != Tuple[I])
      Map.emplace(Other.Tuple[I], Tuple[I]);
  return renameFreeVars(Other.Body, Map);
}

PresburgerSet PresburgerSet::unionWith(const PresburgerSet &Other) const {
  return PresburgerSet(Tuple, Body || aligned(Other));
}

PresburgerSet PresburgerSet::intersect(const PresburgerSet &Other) const {
  return PresburgerSet(Tuple, Body && aligned(Other));
}

PresburgerSet PresburgerSet::subtract(const PresburgerSet &Other) const {
  return PresburgerSet(Tuple, Body && !aligned(Other));
}

PresburgerSet PresburgerSet::project(const VarSet &Away) const {
  std::vector<std::string> Rest;
  for (const std::string &V : Tuple)
    if (!Away.count(V))
      Rest.push_back(V);
  check(Rest.size() + Away.size() == Tuple.size(),
        "projected dimensions must be tuple variables");
  return PresburgerSet(std::move(Rest), Formula::exists(Away, Body));
}

bool PresburgerSet::isEmpty() const { return isUnsatisfiable(Body); }

bool PresburgerSet::isSubsetOf(const PresburgerSet &Other) const {
  return verifyImplies(Body, aligned(Other));
}

bool PresburgerSet::isEqualTo(const PresburgerSet &Other) const {
  return verifyEquivalent(Body, aligned(Other));
}

bool PresburgerSet::contains(const Assignment &Point) const {
  for (const Conjunct &C : simplify(Body))
    if (containsPoint(C, Point))
      return true;
  return false;
}

PiecewiseValue PresburgerSet::count() const {
  return countSolutions(Body, VarSet(Tuple.begin(), Tuple.end())).Value;
}

PiecewiseValue PresburgerSet::sum(const QuasiPolynomial &X) const {
  return sumPolynomial(Body, VarSet(Tuple.begin(), Tuple.end()), X).Value;
}

std::optional<Assignment>
PresburgerSet::sample(const Assignment &Symbols) const {
  for (const Conjunct &C : simplify(Body)) {
    Conjunct Bound = C;
    for (const auto &[Name, Value] : Symbols)
      Bound.substitute(Name, AffineExpr(Value));
    if (std::optional<Assignment> P = samplePoint(Bound)) {
      // Report only the tuple dimensions.
      Assignment Out;
      for (const std::string &V : Tuple) {
        auto It = P->find(V);
        // A tuple variable the clause does not mention is unconstrained;
        // return 0 for it.
        Out[V] = It == P->end() ? BigInt(0) : It->second;
      }
      return Out;
    }
  }
  return std::nullopt;
}

std::string PresburgerSet::toString() const {
  std::ostringstream OS;
  OS << "{[";
  for (size_t I = 0; I < Tuple.size(); ++I)
    OS << (I ? "," : "") << Tuple[I];
  OS << "] : " << Body << "}";
  return OS.str();
}
