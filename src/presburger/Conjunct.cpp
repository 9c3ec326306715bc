//===- presburger/Conjunct.cpp - Conjunctive clauses ---------------------===//

#include "presburger/Conjunct.h"

#include "support/Error.h"

#include <algorithm>
#include <ostream>
#include <sstream>

using namespace omega;

void Conjunct::addAll(const Conjunct &Other) {
  for (const Constraint &C : Other.Items)
    Items.push_back(C);
  for (VarId W : Other.Wildcards)
    Wildcards.insert(W);
}

void Conjunct::pruneUnusedWildcards() {
  VarSet Used = mentionedVars();
  const VarSet Declared = Wildcards;
  for (VarId W : Declared)
    if (!Used.contains(W))
      Wildcards.erase(W);
}

VarSet Conjunct::mentionedVars() const {
  VarSet Out;
  for (const Constraint &C : Items)
    C.collectVars(Out);
  return Out;
}

VarSet Conjunct::freeVars() const {
  VarSet Out = mentionedVars();
  for (VarId W : Wildcards)
    Out.erase(W);
  return Out;
}

bool Conjunct::mentions(VarId V) const {
  for (const Constraint &C : Items)
    if (C.mentions(V))
      return true;
  return false;
}

void Conjunct::substitute(VarId V, const AffineExpr &Replacement) {
  for (Constraint &C : Items)
    C.substitute(V, Replacement);
  Wildcards.erase(V);
}

void Conjunct::renameVar(VarId From, VarId To) {
  check(From != To, "rename to same name");
  for (Constraint &C : Items)
    C.renameVar(From, To);
  if (Wildcards.erase(From))
    Wildcards.insert(To);
}

VarId Conjunct::freshWildcard() const {
  uint32_t Next = 0;
  auto See = [&Next](VarId V) {
    if (V.isWildcard())
      Next = std::max(Next, V.index() + 1);
  };
  for (VarId W : Wildcards)
    See(W);
  // Id order puts wildcards last, by index: a row's last term is its
  // highest wildcard, if it has any.
  for (const Constraint &K : Items)
    if (!K.expr().terms().empty())
      See((K.expr().terms().end() - 1)->Var);
  return wildcardVar(Next);
}

bool Conjunct::contains(const Assignment &Values) const {
  check(Wildcards.empty(),
        "Conjunct::contains requires a wildcard-free clause");
  for (const Constraint &C : Items)
    if (!C.holds(Values))
      return false;
  return true;
}

Conjunct Conjunct::merge(const Conjunct &A, const Conjunct &B) {
  // Declared wildcards move past every index either clause uses, so no ∃
  // captures the other clause's names: all of B's, and those of A's that B
  // mentions free.
  Conjunct Out = A, Moved = B;
  uint32_t Next =
      std::max(A.freshWildcard().index(), B.freshWildcard().index());
  for (VarId W : A.Wildcards)
    if (!B.isWildcard(W) && B.mentions(W))
      Out.renameVar(W, wildcardVar(Next++));
  for (VarId W : B.Wildcards)
    Moved.renameVar(W, wildcardVar(Next++));
  Out.addAll(Moved);
  return Out;
}

void Conjunct::stridesToWildcards() {
  uint32_t Next = freshWildcard().index();
  std::vector<Constraint> NewItems;
  NewItems.reserve(Items.size());
  for (Constraint &C : Items) {
    if (!C.isStride()) {
      NewItems.push_back(std::move(C));
      continue;
    }
    // c | e  ==>  ∃α: e - cα = 0.
    VarId Alpha = wildcardVar(Next++);
    AffineExpr E = C.expr();
    E.setCoeff(Alpha, -C.modulus());
    NewItems.push_back(Constraint::eq(std::move(E)));
    Wildcards.insert(Alpha);
  }
  Items = std::move(NewItems);
}

std::string Conjunct::toString() const {
  std::ostringstream OS;
  if (!Wildcards.empty()) {
    OS << "exists ";
    bool First = true;
    for (VarId W : Wildcards) {
      if (!First)
        OS << ", ";
      OS << varName(W);
      First = false;
    }
    OS << ": ";
  }
  OS << "{";
  for (size_t I = 0; I < Items.size(); ++I) {
    if (I)
      OS << "; ";
    OS << " " << Items[I];
  }
  OS << (Items.empty() ? "}" : " }");
  return OS.str();
}

std::ostream &omega::operator<<(std::ostream &OS, const Conjunct &C) {
  return OS << C.toString();
}

CanonicalConjunct omega::canonicalConjunct(const Conjunct &In) {
  CanonicalConjunct Out;
  std::vector<Constraint> Ks;
  Ks.reserve(In.constraints().size());
  for (const Constraint &K : In.constraints()) {
    Constraint N = K;
    if (!N.normalize() || N.isTriviallyFalse()) {
      Out.C = Conjunct();
      Out.C.add(Constraint::ge(AffineExpr(-1)));
      Out.Key = "UNSAT";
      return Out;
    }
    if (N.isTriviallyTrue())
      continue;
    Ks.push_back(std::move(N));
  }
  std::sort(Ks.begin(), Ks.end());
  Ks.erase(std::unique(Ks.begin(), Ks.end()), Ks.end());

  // The key sweeps the flat rows: kind, modulus, then (id, coefficient)
  // pairs in storage (id) order plus the constant.  The constraint *order*
  // above is the observable name-based sort; only the per-constraint
  // rendering uses ids.
  std::string Key;
  Key.reserve(16 + Ks.size() * 24);
  for (Constraint &K : Ks) {
    Key += static_cast<char>('0' + static_cast<int>(K.kind()));
    Key += '|';
    if (K.isStride()) {
      Key += K.modulus().toString();
      Key += '|';
    }
    const AffineExpr &E = K.expr();
    for (const auto &[V, C] : E.terms()) {
      Key += std::to_string(V.raw());
      Key += ':';
      Key += C.toString();
      Key += ' ';
    }
    Key += 'c';
    Key += E.constant().toString();
    Key += '&';
    Out.C.add(std::move(K));
  }
  // Only wildcards the canonical constraints still mention are part of the
  // clause's meaning (and of the key).
  VarSet Used = Out.C.mentionedVars();
  Key += "W:";
  for (VarId W : In.wildcards())
    if (Used.contains(W)) {
      Out.C.addWildcard(W);
      Key += std::to_string(W.raw());
      Key += ',';
    }
  Out.Key = std::move(Key);
  return Out;
}
