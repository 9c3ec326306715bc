//===- counting/Relation.cpp - Integer tuple relations -------------------===//

#include "counting/Relation.h"

#include "support/Error.h"

#include <sstream>

using namespace omega;

template <typename T>
static std::vector<T> concat(std::vector<T> L, const std::vector<T> &R) {
  L.insert(L.end(), R.begin(), R.end());
  return L;
}

Relation::Relation(std::vector<std::string> Ins,
                   std::vector<std::string> Outs, Formula Body)
    : PresburgerSet(concat(Ins, Outs), std::move(Body)), InArity(Ins.size()) {}

Relation::Relation(PresburgerSet Pairs, size_t Arity)
    : PresburgerSet(std::move(Pairs)), InArity(Arity) {}

std::vector<VarId> Relation::inputs() const {
  return {tuple().begin(), tuple().begin() + InArity};
}

std::vector<VarId> Relation::outputs() const {
  return {tuple().begin() + InArity, tuple().end()};
}

const Relation &Relation::sameArity(const Relation &Other) const {
  check(Other.InArity == InArity && Other.tuple().size() == tuple().size(),
        "relation arity mismatch");
  return Other;
}

Relation Relation::inverse() const {
  return Relation(
      PresburgerSet(ByVars(), concat(outputs(), inputs()), body()),
      tuple().size() - InArity);
}

Relation Relation::compose(const Relation &Other) const {
  check(Other.tuple().size() - Other.InArity == InArity,
        "composition arity mismatch (Other's outputs feed this's inputs)");
  return Relation(Other.chain(*this, InArity), Other.InArity);
}

Relation Relation::unionWith(const Relation &Other) const {
  return Relation(PresburgerSet::unionWith(sameArity(Other)), InArity);
}

Relation Relation::intersect(const Relation &Other) const {
  return Relation(PresburgerSet::intersect(sameArity(Other)), InArity);
}

Relation Relation::subtract(const Relation &Other) const {
  return Relation(PresburgerSet::subtract(sameArity(Other)), InArity);
}

bool Relation::isSubsetOf(const Relation &Other) const {
  return PresburgerSet::isSubsetOf(sameArity(Other));
}

Formula Relation::domain() const {
  return Formula::exists(VarSet(tuple().begin() + InArity, tuple().end()),
                         body());
}

Formula Relation::range() const {
  return Formula::exists(VarSet(tuple().begin(), tuple().begin() + InArity),
                         body());
}

PiecewiseValue Relation::countOutputsPerInput() const {
  VarSet Outs(tuple().begin() + InArity, tuple().end());
  return countSolutions(body(), Outs).Value;
}

Formula Relation::image(const Formula &Set) const {
  return Formula::exists(VarSet(tuple().begin(), tuple().begin() + InArity),
                         Set && body());
}

std::string Relation::toString() const {
  std::ostringstream OS;
  OS << "{[";
  for (size_t I = 0; I < tuple().size(); ++I)
    OS << (I == InArity ? "] -> [" : I ? "," : "") << varName(tuple()[I]);
  OS << (InArity == tuple().size() ? "] -> [" : "") << "] : " << body()
     << "}";
  return OS.str();
}
