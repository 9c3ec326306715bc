//===- presburger/Var.h - Variable names and assignments -------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Variables are interned by name into VarIds (presburger/VarTable.h).  A
/// variable plays one of three roles per query, following the paper's
/// terminology:
///   * counted variables (the set V of a summation (Σ V : P : x)),
///   * symbolic constants (remaining free variables; answers are given in
///     terms of these),
///   * wildcards (existentially quantified clause-local auxiliaries, named
///     "$<n>" so they can never collide with user variables; the id is
///     the high role bit plus n, so a wildcard has no table entry).
///
/// VarSet and Assignment are flat id vectors: a VarSet is sorted by *name*
/// (so iteration order is the observable order everywhere clauses print or
/// canonically sort), while an Assignment is sorted by *id* (so evaluation
/// is a merge-join with AffineExpr's id-sorted terms).  Both iterate and
/// look up by VarId only.  Names come in at the boundary alone: a VarSet
/// built from names, and an Assignment built or bound by name, intern
/// them (DESIGN.md §16); every query works on ids from there on.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_PRESBURGER_VAR_H
#define OMEGA_PRESBURGER_VAR_H

#include "presburger/VarTable.h"
#include "support/BigInt.h"

#include <initializer_list>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace omega {

/// Deterministically ordered set of variables: a flat vector of VarIds
/// sorted by variable *name*, so iteration order is the observable order
/// everywhere clauses print or canonically sort.  Lookups binary-search
/// that order with compareVarNames, which reads names lock-free.
class VarSet {
public:
  using value_type = VarId;
  using iterator = std::vector<VarId>::const_iterator;
  using const_iterator = iterator;

  VarSet() = default;
  VarSet(std::initializer_list<std::string> Names) {
    for (const std::string &N : Names)
      insert(internVar(N));
  }
  /// From a range of names (interned) or of VarIds.
  template <typename It> VarSet(It First, It Last) {
    for (; First != Last; ++First) {
      if constexpr (std::is_convertible_v<decltype(*First), VarId>)
        insert(*First);
      else
        insert(internVar(*First));
    }
  }

  iterator begin() const { return Ids.begin(); }
  iterator end() const { return Ids.end(); }

  bool empty() const { return Ids.empty(); }
  size_t size() const { return Ids.size(); }
  void clear() { Ids.clear(); }
  void swap(VarSet &Other) { Ids.swap(Other.Ids); }

  std::pair<iterator, bool> insert(VarId V) {
    size_t Pos = lowerBoundPos(V);
    auto At = Ids.begin() + static_cast<std::ptrdiff_t>(Pos);
    if (Pos < Ids.size() && *At == V)
      return {At, false};
    return {Ids.insert(At, V), true};
  }
  template <typename It> void insert(It First, It Last) {
    for (; First != Last; ++First)
      insert(*First);
  }

  size_t erase(VarId V) {
    size_t Pos = lowerBoundPos(V);
    if (Pos >= Ids.size() || Ids[Pos] != V)
      return 0;
    Ids.erase(Ids.begin() + static_cast<std::ptrdiff_t>(Pos));
    return 1;
  }
  iterator erase(iterator It) { return Ids.erase(It); }

  bool contains(VarId V) const {
    size_t Pos = lowerBoundPos(V);
    return Pos < Ids.size() && Ids[Pos] == V;
  }

  /// Superset test: true iff every member of \p Sub is in this set.
  /// Two-pointer walk over the shared name order; compares names only to
  /// advance past non-members.
  bool includes(const VarSet &Sub) const {
    size_t I = 0;
    for (VarId V : Sub.Ids) {
      while (I < Ids.size() && Ids[I] != V &&
             compareVarNames(Ids[I], V) < 0)
        ++I;
      if (I >= Ids.size() || Ids[I] != V)
        return false;
      ++I;
    }
    return true;
  }

  friend bool operator==(const VarSet &L, const VarSet &R) {
    return L.Ids == R.Ids;
  }
  friend bool operator!=(const VarSet &L, const VarSet &R) {
    return !(L == R);
  }

private:
  /// First position whose name is not less than V's name.
  size_t lowerBoundPos(VarId V) const {
    size_t Lo = 0, Hi = Ids.size();
    while (Lo < Hi) {
      size_t Mid = Lo + (Hi - Lo) / 2;
      if (Ids[Mid] == V ? false : compareVarNames(Ids[Mid], V) < 0)
        Lo = Mid + 1;
      else
        Hi = Mid;
    }
    return Lo;
  }

  std::vector<VarId> Ids; ///< Sorted by name (the observable order).
};

/// A concrete integer valuation of variables: a flat vector of
/// (VarId, value) entries sorted by id, so AffineExpr::evaluate is a
/// linear merge-join.  Iteration yields std::pair<VarId, BigInt> in id
/// order — deterministic within a process, but NOT name order; callers
/// that print assignments sort by name themselves.
class Assignment {
public:
  using Entry = std::pair<VarId, BigInt>;
  using value_type = Entry;
  using iterator = std::vector<Entry>::iterator;
  using const_iterator = std::vector<Entry>::const_iterator;

  Assignment() = default;
  Assignment(std::initializer_list<std::pair<std::string, BigInt>> Init) {
    for (const auto &[Name, Value] : Init)
      (*this)[Name] = Value;
  }

  iterator begin() { return Entries.begin(); }
  iterator end() { return Entries.end(); }
  const_iterator begin() const { return Entries.begin(); }
  const_iterator end() const { return Entries.end(); }

  bool empty() const { return Entries.empty(); }
  size_t size() const { return Entries.size(); }
  void clear() { Entries.clear(); }

  BigInt &operator[](VarId V) {
    size_t Pos = lowerBoundPos(V);
    if (Pos < Entries.size() && Entries[Pos].first == V)
      return Entries[Pos].second;
    return Entries
        .emplace(Entries.begin() + static_cast<std::ptrdiff_t>(Pos), V,
                 BigInt(0))
        ->second;
  }
  /// Binds a user name (interned): for callers at the parser boundary.
  BigInt &operator[](const std::string &Name) {
    return (*this)[internVar(Name)];
  }

  /// Fast lookup: the stored value, or nullptr when unbound.
  const BigInt *lookup(VarId V) const {
    size_t Pos = lowerBoundPos(V);
    if (Pos < Entries.size() && Entries[Pos].first == V)
      return &Entries[Pos].second;
    return nullptr;
  }

  /// Checked access (std::map::at compatible): throws std::out_of_range
  /// when \p V is unbound.
  const BigInt &at(VarId V) const {
    if (const BigInt *P = lookup(V))
      return *P;
    throw std::out_of_range("Assignment::at: unbound variable");
  }



  /// Inserts (V, Value) if V is unbound; returns (position, inserted).
  std::pair<iterator, bool> emplace(VarId V, BigInt Value) {
    size_t Pos = lowerBoundPos(V);
    if (Pos < Entries.size() && Entries[Pos].first == V)
      return {Entries.begin() + static_cast<std::ptrdiff_t>(Pos), false};
    return {Entries.emplace(Entries.begin() +
                                static_cast<std::ptrdiff_t>(Pos),
                            V, std::move(Value)),
            true};
  }
  /// Range insert (std::map compatible): keeps existing bindings.
  template <typename It> void insert(It First, It Last) {
    for (; First != Last; ++First)
      emplace(First->first, First->second);
  }

  size_t erase(VarId V) {
    size_t Pos = lowerBoundPos(V);
    if (Pos >= Entries.size() || Entries[Pos].first != V)
      return 0;
    Entries.erase(Entries.begin() + static_cast<std::ptrdiff_t>(Pos));
    return 1;
  }

  friend bool operator==(const Assignment &L, const Assignment &R) {
    return L.Entries == R.Entries;
  }
  friend bool operator!=(const Assignment &L, const Assignment &R) {
    return !(L == R);
  }

private:
  size_t lowerBoundPos(VarId V) const {
    size_t Lo = 0, Hi = Entries.size();
    while (Lo < Hi) {
      size_t Mid = Lo + (Hi - Lo) / 2;
      if (Entries[Mid].first < V)
        Lo = Mid + 1;
      else
        Hi = Mid;
    }
    return Lo;
  }

  std::vector<Entry> Entries; ///< Sorted by id (merge-join order).
};

/// Returns true for wildcard names ("$<n>").  Prefer VarId::isWildcard()
/// — a bit test — when an id is at hand.
inline bool isWildcardName(const std::string &Name) {
  return !Name.empty() && Name[0] == '$';
}

} // namespace omega

#endif // OMEGA_PRESBURGER_VAR_H
