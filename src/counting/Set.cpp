//===- counting/Set.cpp - Presburger-definable integer sets --------------===//

#include "counting/Set.h"

#include "omega/Verify.h"
#include "support/Error.h"

#include <sstream>
#include <tuple>

using namespace omega;

namespace {

using Labels = std::vector<VarId>;

/// Tuple labels given by name are user text, interned here once.
Labels idsOf(const std::vector<std::string> &Names) {
  Labels Out;
  for (const std::string &N : Names)
    Out.push_back(internVar(N)); // omegatidy: allow(name-lookup)
  return Out;
}

/// Every name either operand mentions, binds or labels: fresh names avoid them.
VarSet namesOf(const PresburgerSet &A, const PresburgerSet &B) {
  VarSet Used = (A.body() && B.body()).vars();
  Used.insert(A.tuple().begin(), A.tuple().end());
  Used.insert(B.tuple().begin(), B.tuple().end());
  return Used;
}

/// The symbolic constants of \p S: its body's free names off its tuple.
VarSet symbolsOf(const PresburgerSet &S) {
  VarSet Out = S.body().freeVars();
  for (VarId V : S.tuple())
    Out.erase(V);
  return Out;
}

/// Replaces each of L[From, To) that is in \p Taken by a fresh name.
void unclash(Labels &L, size_t From, size_t To, const VarSet &Taken,
             VarSet &Used) {
  for (size_t I = From; I < To; ++I)
    if (Taken.contains(L[I]))
      L[I] = freshVar(varName(L[I]), Used);
}

/// \p S's body with its tuple renamed onto Onto[At, At + arity).  Each
/// target that differs from its label is fresh, a name the body neither
/// mentions nor binds, so the renaming captures nothing.
Formula renamedOnto(const PresburgerSet &S, const Labels &Onto,
                    size_t At = 0) {
  std::map<VarId, VarId> Map;
  for (size_t I = 0; I < S.tuple().size(); ++I)
    if (S.tuple()[I] != Onto[At + I])
      Map.emplace(S.tuple()[I], Onto[At + I]);
  return renameFreeVars(S.body(), Map);
}

/// The one alignment rule: the result labels are \p A's, freshened where
/// they are free symbols of \p B.  Each label of B that differs from its
/// result label is renamed onto a fresh name, tied to the result label by
/// an equality under one ∃.  Returns the labels and both bodies over them.
std::tuple<Labels, Formula, Formula> align(const PresburgerSet &A,
                                           const PresburgerSet &B) {
  check(B.tuple().size() == A.tuple().size(), "set arity mismatch");
  VarSet Used = namesOf(A, B);
  Labels Out = A.tuple(), Fresh = B.tuple();
  unclash(Out, 0, Out.size(), symbolsOf(B), Used);
  VarSet Bound;
  std::vector<Formula> Links;
  for (size_t I = 0; I < Fresh.size(); ++I) {
    if (Fresh[I] == Out[I])
      continue;
    Fresh[I] = freshVar(varName(Fresh[I]), Used);
    Bound.insert(Fresh[I]);
    Links.push_back(Formula::atom(Constraint::eq(
        AffineExpr::variable(Fresh[I]), AffineExpr::variable(Out[I]))));
  }
  Links.push_back(renamedOnto(B, Fresh));
  Formula Mine = renamedOnto(A, Out);
  return {std::move(Out), std::move(Mine),
          Formula::exists(std::move(Bound), Formula::conj(std::move(Links)))};
}

} // namespace

PresburgerSet::PresburgerSet(const std::vector<std::string> &TupleNames,
                             Formula BodyF)
    : PresburgerSet(ByVars(), idsOf(TupleNames), std::move(BodyF)) {}

PresburgerSet::PresburgerSet(ByVars, std::vector<VarId> TupleVars,
                             Formula BodyF)
    : Tuple(std::move(TupleVars)), Body(std::move(BodyF)) {
  VarSet Seen;
  for (VarId V : Tuple)
    check(Seen.insert(V).second, "duplicate tuple variable");
}

PresburgerSet PresburgerSet::unionWith(const PresburgerSet &Other) const {
  auto [Out, Mine, Theirs] = align(*this, Other);
  return PresburgerSet(ByVars(), std::move(Out), Mine || Theirs);
}

PresburgerSet PresburgerSet::intersect(const PresburgerSet &Other) const {
  auto [Out, Mine, Theirs] = align(*this, Other);
  return PresburgerSet(ByVars(), std::move(Out), Mine && Theirs);
}

PresburgerSet PresburgerSet::subtract(const PresburgerSet &Other) const {
  auto [Out, Mine, Theirs] = align(*this, Other);
  return PresburgerSet(ByVars(), std::move(Out), Mine && !Theirs);
}

PresburgerSet PresburgerSet::chain(const PresburgerSet &Next,
                                   size_t Shared) const {
  const size_t Head = Tuple.size() - Shared, Tail = Head + Shared;
  VarSet Used = namesOf(*this, Next);
  Labels All(Tuple.begin(), Tuple.begin() + Head);
  for (size_t I = 0; I < Shared; ++I)
    All.push_back(freshVar("mid", Used));
  All.insert(All.end(), Next.Tuple.begin() + Shared, Next.Tuple.end());
  unclash(All, 0, Head, symbolsOf(Next), Used);
  VarSet Taken = symbolsOf(*this);
  Taken.insert(All.begin(), All.begin() + Head);
  unclash(All, Tail, All.size(), Taken, Used);
  Formula Both = renamedOnto(*this, All) && renamedOnto(Next, All, Head);
  VarSet Mid(All.begin() + Head, All.begin() + Tail);
  All.erase(All.begin() + Head, All.begin() + Tail);
  return PresburgerSet(ByVars(), std::move(All),
                       Formula::exists(std::move(Mid), std::move(Both)));
}

PresburgerSet PresburgerSet::project(const VarSet &Away) const {
  Labels Rest;
  for (VarId V : Tuple)
    if (!Away.contains(V))
      Rest.push_back(V);
  check(Rest.size() + Away.size() == Tuple.size(),
        "projected dimensions must be tuple variables");
  return PresburgerSet(ByVars(), std::move(Rest),
                       Formula::exists(Away, Body));
}

bool PresburgerSet::isEmpty() const { return isUnsatisfiable(Body); }

bool PresburgerSet::isSubsetOf(const PresburgerSet &Other) const {
  return subtract(Other).isEmpty();
}

bool PresburgerSet::isEqualTo(const PresburgerSet &Other) const {
  return isSubsetOf(Other) && Other.isSubsetOf(*this);
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
    for (const auto &[V, Value] : Symbols)
      Bound.substitute(V, AffineExpr(Value));
    if (std::optional<Assignment> P = samplePoint(Bound)) {
      // Report only the tuple dimensions.
      Assignment Out;
      for (VarId V : Tuple) {
        const BigInt *Value = P->lookup(V);
        // A tuple variable the clause does not mention is unconstrained;
        // return 0 for it.
        Out[V] = Value ? *Value : BigInt(0);
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
    OS << (I ? "," : "") << varName(Tuple[I]);
  OS << "] : " << Body << "}";
  return OS.str();
}
