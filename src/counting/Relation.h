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
/// Operations keep value semantics; variables are renamed internally so
/// distinct relations never capture each other's names.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_COUNTING_RELATION_H
#define OMEGA_COUNTING_RELATION_H

#include "omega/Omega.h"
#include "omega/Omega.h"

namespace omega {

/// A finite-arity integer relation with named input and output tuples.
class Relation {
public:
  /// Builds { [Ins] -> [Outs] : Body }.  Free variables of Body outside
  /// the tuples are symbolic constants.
  Relation(std::vector<std::string> Ins, std::vector<std::string> Outs,
           Formula Body);

  const std::vector<std::string> &inputs() const { return Ins; }
  const std::vector<std::string> &outputs() const { return Outs; }
  const Formula &body() const { return Body; }

  /// { [o] -> [i] : R(i, o) }.
  Relation inverse() const;

  /// Composition (this ∘ Other): Other first, then this:
  /// { x -> z : ∃y. Other(x, y) ∧ this(y, z) }.  Arities must match.
  Relation compose(const Relation &Other) const;

  /// Pointwise union/intersection/difference; tuples must have the same
  /// arities (the result uses this relation's variable names).
  Relation unionWith(const Relation &Other) const;
  Relation intersect(const Relation &Other) const;
  Relation subtract(const Relation &Other) const;

  /// { x : ∃z. R(x, z) } as a formula over the input names.
  Formula domain() const;
  /// { z : ∃x. R(x, z) } as a formula over the output names.
  Formula range() const;

  /// True iff no (x, z) pair satisfies the relation (for any symbol
  /// values).
  bool isEmpty() const;

  /// True iff every pair of this relation belongs to \p Other.
  bool isSubsetOf(const Relation &Other) const;

  /// (Σ outs : R(ins, outs) : 1) — the fan-out of each input tuple,
  /// symbolic in the input names and the symbolic constants.
  PiecewiseValue countOutputsPerInput() const;

  /// (Σ ins, outs : R : 1) — total number of related pairs.
  PiecewiseValue countPairs() const;

  /// Image of a set: { z : ∃x. Set(x) ∧ R(x, z) }; \p Set ranges over the
  /// input names.
  Formula image(const Formula &Set) const;

  std::string toString() const;

private:
  /// Body with inputs/outputs renamed to the given fresh names.
  Formula renamedBody(const std::vector<std::string> &NewIns,
                      const std::vector<std::string> &NewOuts) const;

  std::vector<std::string> Ins;
  std::vector<std::string> Outs;
  Formula Body;
};

} // namespace omega

#endif // OMEGA_COUNTING_RELATION_H
