//===- counting/Relation.cpp - Integer tuple relations -------------------===//

#include "counting/Relation.h"

#include "omega/Verify.h"
#include "support/Error.h"

#include <sstream>

using namespace omega;

Relation::Relation(std::vector<std::string> InNames,
                   std::vector<std::string> OutNames, Formula BodyF)
    : Ins(std::move(InNames)), Outs(std::move(OutNames)),
      Body(std::move(BodyF)) {
  VarSet Seen;
  for (const std::string &V : Ins)
    check(Seen.insert(V).second, "duplicate tuple variable");
  for (const std::string &V : Outs)
    check(Seen.insert(V).second, "duplicate tuple variable");
}

Formula Relation::renamedBody(const std::vector<std::string> &NewIns,
                              const std::vector<std::string> &NewOuts) const {
  check(NewIns.size() == Ins.size() && NewOuts.size() == Outs.size(),
        "NewIns.size() == Ins.size() && NewOuts.size() == Outs.size()");
  std::map<std::string, std::string> Map;
  for (size_t I = 0; I < Ins.size(); ++I)
    if (Ins[I] != NewIns[I])
      Map.emplace(Ins[I], NewIns[I]);
  for (size_t I = 0; I < Outs.size(); ++I)
    if (Outs[I] != NewOuts[I])
      Map.emplace(Outs[I], NewOuts[I]);
  return renameFreeVars(Body, Map);
}

Relation Relation::inverse() const { return Relation(Outs, Ins, Body); }

Relation Relation::compose(const Relation &Other) const {
  check(Other.Outs.size() == Ins.size(),
        "composition arity mismatch (Other's outputs feed this's inputs)");
  // Middle tuple: names neither body uses, so renaming captures none.
  VarSet Used = (Body && Other.Body).vars();
  std::vector<std::string> Mid;
  Mid.reserve(Ins.size());
  for (size_t I = 0; I < Ins.size(); ++I)
    Mid.push_back(freshName("mid", Used));
  Formula First = Other.renamedBody(Other.Ins, Mid);
  Formula Second = renamedBody(Mid, Outs);
  VarSet MidSet(Mid.begin(), Mid.end());
  return Relation(Other.Ins, Outs,
                  Formula::exists(std::move(MidSet), First && Second));
}

Relation Relation::unionWith(const Relation &Other) const {
  Formula Aligned = Other.renamedBody(Ins, Outs);
  return Relation(Ins, Outs, Body || Aligned);
}

Relation Relation::intersect(const Relation &Other) const {
  Formula Aligned = Other.renamedBody(Ins, Outs);
  return Relation(Ins, Outs, Body && Aligned);
}

Relation Relation::subtract(const Relation &Other) const {
  Formula Aligned = Other.renamedBody(Ins, Outs);
  return Relation(Ins, Outs, Body && !Aligned);
}

Formula Relation::domain() const {
  return Formula::exists(VarSet(Outs.begin(), Outs.end()), Body);
}

Formula Relation::range() const {
  return Formula::exists(VarSet(Ins.begin(), Ins.end()), Body);
}

bool Relation::isEmpty() const { return isUnsatisfiable(Body); }

bool Relation::isSubsetOf(const Relation &Other) const {
  check(Other.Ins.size() == Ins.size() && Other.Outs.size() == Outs.size(),
        "Other.Ins.size() == Ins.size() && Other.Outs.size() == Outs.size()");
  return verifyImplies(Body, Other.renamedBody(Ins, Outs));
}

PiecewiseValue Relation::countOutputsPerInput() const {
  return countSolutions(Body, VarSet(Outs.begin(), Outs.end())).Value;
}

PiecewiseValue Relation::countPairs() const {
  VarSet All(Ins.begin(), Ins.end());
  All.insert(Outs.begin(), Outs.end());
  return countSolutions(Body, All).Value;
}

Formula Relation::image(const Formula &Set) const {
  return Formula::exists(VarSet(Ins.begin(), Ins.end()), Set && Body);
}

std::string Relation::toString() const {
  std::ostringstream OS;
  OS << "{[";
  for (size_t I = 0; I < Ins.size(); ++I)
    OS << (I ? "," : "") << Ins[I];
  OS << "] -> [";
  for (size_t I = 0; I < Outs.size(); ++I)
    OS << (I ? "," : "") << Outs[I];
  OS << "] : " << Body << "}";
  return OS.str();
}
