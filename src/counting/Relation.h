//===- counting/Relation.h - Integer tuple relations ---------------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Integer tuple relations { [i1..in] -> [o1..om] : F } — the abstraction
/// the Omega project built on top of the Omega test ("unified frameworks
/// for reordering transformations", §9 of the paper).  Combined with this
/// paper's counting machinery, relations answer quantitative questions:
/// how many targets per source (fan-out), how many pairs in total.
///
/// As in the Omega library, a relation is a set of tuples with an input
/// arity: a PresburgerSet over [i1..in, o1..om].  The set aligns operands
/// by renaming only onto fresh names, so no operation captures a name.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_COUNTING_RELATION_H
#define OMEGA_COUNTING_RELATION_H

#include "counting/Set.h"

namespace omega {

/// A finite-arity integer relation with named input and output tuples.
class Relation : public PresburgerSet {
public:
  /// Builds { [Ins] -> [Outs] : Body }.  Free variables of Body outside
  /// the tuples are symbolic constants.
  Relation(std::vector<std::string> Ins, std::vector<std::string> Outs,
           Formula Body);

  std::vector<VarId> inputs() const;
  std::vector<VarId> outputs() const;

  /// { [o] -> [i] : R(i, o) }.
  Relation inverse() const;

  /// Composition (this ∘ Other): Other first, then this:
  /// { x -> z : ∃y. Other(x, y) ∧ this(y, z) }.  Arities must match.
  Relation compose(const Relation &Other) const;

  /// Pointwise union/intersection/difference and inclusion, as on sets;
  /// the input and output arities must match.
  Relation unionWith(const Relation &Other) const;
  Relation intersect(const Relation &Other) const;
  Relation subtract(const Relation &Other) const;
  bool isSubsetOf(const Relation &Other) const;

  /// { x : ∃z. R(x, z) } as a formula over the input names.
  Formula domain() const;
  /// { z : ∃x. R(x, z) } as a formula over the output names.
  Formula range() const;

  /// (Σ outs : R(ins, outs) : 1) — the fan-out of each input tuple,
  /// symbolic in the input names and the symbolic constants.
  PiecewiseValue countOutputsPerInput() const;

  /// (Σ ins, outs : R : 1) — total number of related pairs.
  PiecewiseValue countPairs() const { return count(); }

  /// Image of a set: { z : ∃x. Set(x) ∧ R(x, z) }; \p Set ranges over the
  /// input names.
  Formula image(const Formula &Set) const;

  std::string toString() const;

private:
  Relation(PresburgerSet Pairs, size_t Arity);

  /// \p Other, once checked to have this relation's arities.
  const Relation &sameArity(const Relation &Other) const;

  size_t InArity;
};

} // namespace omega

#endif // OMEGA_COUNTING_RELATION_H
