//===- counting/Set.h - Presburger-definable integer sets -------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Presburger-definable set of integer tuples { [v1..vk] : F } with the
/// full boolean algebra, projection, counting and sampling — the natural
/// front door for users who just want "how many points does this set have,
/// as a formula in n?".  A Relation is one of these plus an input arity.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_COUNTING_SET_H
#define OMEGA_COUNTING_SET_H

#include "omega/Omega.h"

#include <optional>

namespace omega {

/// { [Tuple] : Body }; free variables of Body outside the tuple are
/// symbolic constants.
class PresburgerSet {
public:
  /// Tuple labels by name: the boundary where user tuples come in.
  PresburgerSet(const std::vector<std::string> &Tuple, Formula Body);
  /// Selects the constructor over interned tuple variables (a tag, since a
  /// braced list of two names would also match an id vector's iterator
  /// pair).
  struct ByVars {};
  PresburgerSet(ByVars, std::vector<VarId> Tuple, Formula Body);

  const std::vector<VarId> &tuple() const { return Tuple; }
  const Formula &body() const { return Body; }

  /// Operands align by position; the arities must match.  The result keeps
  /// this set's labels, but one that is a free symbol of Other is replaced
  /// by a fresh name, so no symbol is ever bound.
  PresburgerSet unionWith(const PresburgerSet &Other) const;
  PresburgerSet intersect(const PresburgerSet &Other) const;
  PresburgerSet subtract(const PresburgerSet &Other) const;

  /// Projects away the named dimensions (they must be tuple variables).
  PresburgerSet project(const VarSet &Away) const;

  bool isEmpty() const;
  bool isSubsetOf(const PresburgerSet &Other) const;
  bool isEqualTo(const PresburgerSet &Other) const;

  /// True iff the point (tuple values plus symbol values) is in the set.
  bool contains(const Assignment &Point) const;

  /// |S| as a piecewise quasi-polynomial in the symbolic constants.
  PiecewiseValue count() const;

  /// Σ of a polynomial over the set.
  PiecewiseValue sum(const QuasiPolynomial &X) const;

  /// A concrete member at the given symbol values, or nullopt if empty.
  std::optional<Assignment> sample(const Assignment &Symbols) const;

  std::string toString() const;

protected:
  /// { [Head ++ Tail] : ∃Mid. this(Head ++ Mid) ∧ Next(Mid ++ Tail) } with
  /// fresh Mid: this set's last \p Shared positions meet Next's first (both
  /// arities are at least \p Shared).  A Head or Tail label that is a
  /// symbol of the other operand, or repeats a Head label, is freshened.
  PresburgerSet chain(const PresburgerSet &Next, size_t Shared) const;

private:
  std::vector<VarId> Tuple;
  Formula Body;
};

} // namespace omega

#endif // OMEGA_COUNTING_SET_H
