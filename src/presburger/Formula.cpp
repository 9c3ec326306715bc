//===- presburger/Formula.cpp - Presburger formula AST -------------------===//

#include "presburger/Formula.h"

#include "support/Error.h"

#include <ostream>
#include <sstream>

using namespace omega;

struct Formula::Node {
  FormulaKind Kind;
  Constraint Atom = Constraint::ge(AffineExpr(0)); // Valid only for Atom.
  std::vector<Formula> Children;                   // And/Or/Not.
  VarSet Quantified;                               // Exists/Forall.

  explicit Node(FormulaKind K) : Kind(K) {}
};

Formula Formula::trueFormula() {
  static const std::shared_ptr<const Node> N =
      std::make_shared<Node>(FormulaKind::True);
  return Formula(N);
}

Formula Formula::falseFormula() {
  static const std::shared_ptr<const Node> N =
      std::make_shared<Node>(FormulaKind::False);
  return Formula(N);
}

Formula Formula::atom(Constraint C) {
  if (C.isTriviallyTrue())
    return trueFormula();
  if (C.isTriviallyFalse())
    return falseFormula();
  auto N = std::make_shared<Node>(FormulaKind::Atom);
  N->Atom = std::move(C);
  return Formula(std::move(N));
}

Formula Formula::conj(std::vector<Formula> Children) {
  std::vector<Formula> Flat;
  for (Formula &F : Children) {
    if (F.isTrue())
      continue;
    if (F.isFalse())
      return falseFormula();
    if (F.kind() == FormulaKind::And) {
      for (const Formula &Sub : F.children())
        Flat.push_back(Sub);
      continue;
    }
    Flat.push_back(std::move(F));
  }
  if (Flat.empty())
    return trueFormula();
  if (Flat.size() == 1)
    return Flat[0];
  auto N = std::make_shared<Node>(FormulaKind::And);
  N->Children = std::move(Flat);
  return Formula(std::move(N));
}

Formula Formula::disj(std::vector<Formula> Children) {
  std::vector<Formula> Flat;
  for (Formula &F : Children) {
    if (F.isFalse())
      continue;
    if (F.isTrue())
      return trueFormula();
    if (F.kind() == FormulaKind::Or) {
      for (const Formula &Sub : F.children())
        Flat.push_back(Sub);
      continue;
    }
    Flat.push_back(std::move(F));
  }
  if (Flat.empty())
    return falseFormula();
  if (Flat.size() == 1)
    return Flat[0];
  auto N = std::make_shared<Node>(FormulaKind::Or);
  N->Children = std::move(Flat);
  return Formula(std::move(N));
}

Formula Formula::negation(Formula F) {
  if (F.isTrue())
    return falseFormula();
  if (F.isFalse())
    return trueFormula();
  if (F.kind() == FormulaKind::Not)
    return F.children()[0];
  auto N = std::make_shared<Node>(FormulaKind::Not);
  N->Children.push_back(std::move(F));
  return Formula(std::move(N));
}

Formula Formula::exists(VarSet Vars, Formula Body) {
  if (Vars.empty() || Body.isTrue() || Body.isFalse())
    return Body;
  if (Body.kind() == FormulaKind::Exists) {
    VarSet Merged = Body.quantified();
    Merged.insert(Vars.begin(), Vars.end());
    return exists(std::move(Merged), Body.body());
  }
  auto N = std::make_shared<Node>(FormulaKind::Exists);
  N->Quantified = std::move(Vars);
  N->Children.push_back(std::move(Body));
  return Formula(std::move(N));
}

Formula Formula::forall(VarSet Vars, Formula Body) {
  if (Vars.empty() || Body.isTrue() || Body.isFalse())
    return Body;
  auto N = std::make_shared<Node>(FormulaKind::Forall);
  N->Quantified = std::move(Vars);
  N->Children.push_back(std::move(Body));
  return Formula(std::move(N));
}

Formula Formula::fromConjunct(const Conjunct &C) {
  std::vector<Formula> Atoms;
  Atoms.reserve(C.constraints().size());
  for (const Constraint &Cons : C.constraints())
    Atoms.push_back(atom(Cons));
  return exists(C.wildcards(), conj(std::move(Atoms)));
}

FormulaKind Formula::kind() const { return Impl->Kind; }

const Constraint &Formula::constraint() const {
  check(kind() == FormulaKind::Atom, "not an atom");
  return Impl->Atom;
}

const std::vector<Formula> &Formula::children() const {
  return Impl->Children;
}

const VarSet &Formula::quantified() const {
  check((kind() == FormulaKind::Exists || kind() == FormulaKind::Forall),
        "not a quantifier");
  return Impl->Quantified;
}

const Formula &Formula::body() const {
  check((kind() == FormulaKind::Exists || kind() == FormulaKind::Forall),
        "not a quantifier");
  return Impl->Children[0];
}

/// Adds \p F's free variables to \p Out, or with \p WithBound all of its
/// variables, bound ones included.
static void collectVars(const Formula &F, bool WithBound, VarSet &Bound,
                        VarSet &Out) {
  switch (F.kind()) {
  case FormulaKind::True:
  case FormulaKind::False:
    return;
  case FormulaKind::Atom: {
    VarSet Vars;
    F.constraint().collectVars(Vars);
    for (VarId V : Vars)
      if (WithBound || !Bound.contains(V))
        Out.insert(V);
    return;
  }
  case FormulaKind::And:
  case FormulaKind::Or:
  case FormulaKind::Not:
    for (const Formula &C : F.children())
      collectVars(C, WithBound, Bound, Out);
    return;
  case FormulaKind::Exists:
  case FormulaKind::Forall: {
    VarSet Added;
    for (VarId V : F.quantified()) {
      if (WithBound)
        Out.insert(V);
      if (Bound.insert(V).second)
        Added.insert(V);
    }
    collectVars(F.body(), WithBound, Bound, Out);
    for (VarId V : Added)
      Bound.erase(V);
    return;
  }
  }
}

VarSet Formula::freeVars() const {
  VarSet Bound, Out;
  collectVars(*this, /*WithBound=*/false, Bound, Out);
  return Out;
}

VarSet Formula::vars() const {
  VarSet Bound, Out;
  collectVars(*this, /*WithBound=*/true, Bound, Out);
  return Out;
}

VarId omega::freshVar(const std::string &Stem, VarSet &Used) {
  // A member of Used is interned already, so only the answer is new.
  for (unsigned N = 0;; ++N) {
    VarId V = internVar(Stem + std::to_string(N));
    if (Used.insert(V).second)
      return V;
  }
}

bool Formula::evaluate(const Assignment &Values) const {
  Result<bool> R = tryEvaluate(Values);
  if (!R)
    fatalError(R.error().toString());
  return *R;
}

Result<bool> Formula::tryEvaluate(const Assignment &Values) const {
  switch (kind()) {
  case FormulaKind::True:
    return true;
  case FormulaKind::False:
    return false;
  case FormulaKind::Atom:
    return constraint().holds(Values);
  case FormulaKind::And:
    for (const Formula &C : children()) {
      Result<bool> R = C.tryEvaluate(Values);
      if (!R || !*R)
        return R;
    }
    return true;
  case FormulaKind::Or:
    for (const Formula &C : children()) {
      Result<bool> R = C.tryEvaluate(Values);
      if (!R || *R)
        return R;
    }
    return false;
  case FormulaKind::Not: {
    Result<bool> R = children()[0].tryEvaluate(Values);
    if (!R)
      return R;
    return !*R;
  }
  case FormulaKind::Exists:
  case FormulaKind::Forall:
    return Error{ErrorKind::Unsupported, "formula",
                 "evaluate does not support quantifiers; use omega::simplify "
                 "to obtain a quantifier-free formula first",
                 ""};
  }
  fatalError("Formula::tryEvaluate: unknown formula kind");
}

static void printFormula(std::ostream &OS, const Formula &F) {
  switch (F.kind()) {
  case FormulaKind::True:
    OS << "TRUE";
    return;
  case FormulaKind::False:
    OS << "FALSE";
    return;
  case FormulaKind::Atom:
    OS << F.constraint();
    return;
  case FormulaKind::And:
  case FormulaKind::Or: {
    const char *Op = F.kind() == FormulaKind::And ? " && " : " || ";
    OS << "(";
    for (size_t I = 0; I < F.children().size(); ++I) {
      if (I)
        OS << Op;
      printFormula(OS, F.children()[I]);
    }
    OS << ")";
    return;
  }
  case FormulaKind::Not:
    OS << "!(";
    printFormula(OS, F.children()[0]);
    OS << ")";
    return;
  case FormulaKind::Exists:
  case FormulaKind::Forall: {
    OS << (F.kind() == FormulaKind::Exists ? "exists(" : "forall(");
    bool First = true;
    for (VarId V : F.quantified()) {
      if (!First)
        OS << ", ";
      OS << varName(V);
      First = false;
    }
    OS << ": ";
    printFormula(OS, F.body());
    OS << ")";
    return;
  }
  }
}

std::string Formula::toString() const {
  std::ostringstream OS;
  printFormula(OS, *this);
  return OS.str();
}

std::ostream &omega::operator<<(std::ostream &OS, const Formula &F) {
  return OS << F.toString();
}
