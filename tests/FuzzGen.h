//===- tests/FuzzGen.h - Seeded random Presburger formula generator ------===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates random but *enumerable* Presburger formulas for differential
/// and determinism testing.  Every case is constructed so the brute-force
/// oracle (baselines/Enumerator.h) is exact:
///
///   * each counted variable carries explicit interval bounds inside the
///     formula, all within [BoxLo, BoxHi];
///   * each existentially quantified variable is bounded inside its own
///     body, so every witness lies within [WitnessLo, WitnessHi] — this
///     also keeps negation sound for the oracle (outside the window the
///     bounded body is false, so the negation is decidable there too);
///   * at most two symbolic constants ("n", "m") appear, only in atom
///     right-hand sides, never in the bounds — so counts stay finite for
///     every symbol value.
///
/// Randomness uses mt19937_64 with modulo reduction rather than
/// <random> distributions: the raw engine sequence is mandated by the
/// standard, distributions are not, so seeds reproduce across platforms
/// and standard libraries.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_TESTS_FUZZGEN_H
#define OMEGA_TESTS_FUZZGEN_H

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace omega {
namespace fuzz {

/// One generated formula plus everything the oracle needs to check it.
struct FuzzCase {
  std::string Text;                 ///< Parsable formula text.
  std::vector<std::string> Vars;    ///< Counted variables ("i", "j").
  std::vector<std::string> Symbols; ///< Symbolic constants in use.
  int64_t BoxLo = 0, BoxHi = 0;     ///< Enumeration box for counted vars.
  int64_t WitnessLo = 0, WitnessHi = 0; ///< Search window for witnesses.
};

/// Two operands of one arity for the tuple algebra, named to collide:
/// B's tuple is often a permutation of A's, a label of one is often a
/// symbolic constant of the other, and binders reuse all of these names.
/// Every label is bounded within [-4, 8] in its own body.
struct TuplePair {
  std::vector<std::string> TupleA, TupleB;
  std::string TextA, TextB;
  std::vector<std::string> Symbols; ///< The symbols either body reads.
};

class Generator {
public:
  explicit Generator(uint64_t Seed) : Rng(Seed) {}

  FuzzCase next() {
    FuzzCase FC;
    FC.BoxLo = -8;
    FC.BoxHi = 14;
    FC.WitnessLo = -9;
    FC.WitnessHi = 12;
    QuantCount = 0;

    unsigned NumVars = 1 + range(0, 1);
    FC.Vars.assign({"i", "j"});
    FC.Vars.resize(NumVars);
    unsigned NumSyms = range(0, 2);
    FC.Symbols.assign({"n", "m"});
    FC.Symbols.resize(NumSyms);

    // The variable pool atoms draw from: counted vars + symbols.
    std::vector<std::string> Pool = FC.Vars;
    Pool.insert(Pool.end(), FC.Symbols.begin(), FC.Symbols.end());

    std::ostringstream OS;
    for (const std::string &V : FC.Vars) {
      int64_t Lo = range(-5, 3);
      int64_t Hi = Lo + range(3, 9);
      OS << Lo << " <= " << V << " <= " << Hi << " && ";
    }
    OS << "(" << tree(Pool, /*Depth=*/2) << ")";
    FC.Text = OS.str();
    return FC;
  }

  /// A body for a tuple with labels \p Labels, each bounded within [-4, 8],
  /// whose atoms also read \p Symbols and whose binders are named from
  /// \p Binders, so they may shadow a label or a symbol.
  std::string tupleBody(const std::vector<std::string> &Labels,
                        const std::vector<std::string> &Symbols,
                        const std::vector<std::string> &Binders) {
    QuantCount = 0;
    BinderNames = Binders;
    std::vector<std::string> Pool = Labels;
    Pool.insert(Pool.end(), Symbols.begin(), Symbols.end());
    std::ostringstream OS;
    for (const std::string &V : Labels) {
      int64_t Lo = range(-4, 0);
      OS << Lo << " <= " << V << " <= " << Lo + range(4, 8) << " && ";
    }
    OS << "(" << tree(Pool, /*Depth=*/2) << ")";
    BinderNames.clear();
    return OS.str();
  }

  /// \p K distinct names drawn from \p Names, in random order.
  std::vector<std::string> pick(std::vector<std::string> Names, unsigned K) {
    for (size_t I = Names.size(); I > 1; --I)
      std::swap(Names[I - 1], Names[range(0, int64_t(I) - 1)]);
    Names.resize(K);
    return Names;
  }

  /// A tupleBody over \p Tuple that reads up to two of the other
  /// \p Names as symbols (added to \p Symbols), with binders named from
  /// all of \p Names.
  std::string nextBody(const std::vector<std::string> &Tuple,
                       const std::vector<std::string> &Names,
                       std::set<std::string> &Symbols) {
    std::vector<std::string> Rest;
    for (const std::string &N : Names)
      if (std::find(Tuple.begin(), Tuple.end(), N) == Tuple.end())
        Rest.push_back(N);
    std::vector<std::string> Syms =
        pick(Rest, unsigned(range(0, std::min<int64_t>(2, Rest.size()))));
    Symbols.insert(Syms.begin(), Syms.end());
    return tupleBody(Tuple, Syms, Names);
  }

  /// Two operands of one arity for the tuple algebra (see TuplePair).
  TuplePair nextPair(unsigned Arity) {
    TuplePair P;
    P.TupleA = pick(TupleNames, Arity);
    P.TupleB = range(0, 1) ? pick(P.TupleA, Arity) : pick(TupleNames, Arity);
    std::set<std::string> Symbols;
    P.TextA = nextBody(P.TupleA, TupleNames, Symbols);
    P.TextB = nextBody(P.TupleB, TupleNames, Symbols);
    P.Symbols.assign(Symbols.begin(), Symbols.end());
    return P;
  }

  /// The names tuple-algebra cases draw labels, symbols and binders from.
  inline static const std::vector<std::string> TupleNames = {"x", "y", "n",
                                                              "m"};

private:
  std::mt19937_64 Rng;
  unsigned QuantCount = 0;
  std::vector<std::string> BinderNames;

  /// Uniform-ish in [Lo, Hi] via modulo; bias is irrelevant for fuzzing and
  /// the sequence is reproducible everywhere.
  int64_t range(int64_t Lo, int64_t Hi) {
    return Lo + static_cast<int64_t>(Rng() % static_cast<uint64_t>(Hi - Lo + 1));
  }

  /// A nonzero coefficient in [-3, 3].
  int64_t coef() {
    int64_t C = range(-3, 2);
    return C >= 0 ? C + 1 : C;
  }

  /// A random affine expression over 1-2 pool variables plus a constant.
  std::string affine(const std::vector<std::string> &Pool) {
    std::ostringstream OS;
    unsigned Terms = 1 + range(0, 1);
    for (unsigned T = 0; T < Terms; ++T) {
      int64_t C = coef();
      const std::string &V = Pool[range(0, int64_t(Pool.size()) - 1)];
      if (T)
        OS << (C < 0 ? " - " : " + ") << (C < 0 ? -C : C) << "*" << V;
      else
        OS << C << "*" << V;
    }
    int64_t K = range(-8, 8);
    OS << (K < 0 ? " - " : " + ") << (K < 0 ? -K : K);
    return OS.str();
  }

  /// A relational or stride atom.
  std::string atom(const std::vector<std::string> &Pool) {
    if (range(0, 4) == 0) { // stride: m | expr
      int64_t Mod = range(2, 4);
      std::ostringstream OS;
      OS << Mod << " | " << affine(Pool);
      return OS.str();
    }
    static const char *Ops[] = {"<=", ">=", "=", "!="};
    std::ostringstream OS;
    OS << affine(Pool) << " " << Ops[range(0, 3)] << " " << range(-8, 8);
    return OS.str();
  }

  /// A random formula tree with the given remaining depth budget.
  std::string tree(const std::vector<std::string> &Pool, unsigned Depth) {
    int64_t Pick = range(0, 9);
    if (Depth == 0 || Pick <= 4)
      return atom(Pool);
    if (Pick <= 6) { // binary connective
      const char *Op = range(0, 1) ? " && " : " || ";
      unsigned Kids = 2 + range(0, 1);
      std::ostringstream OS;
      for (unsigned K = 0; K < Kids; ++K) {
        if (K)
          OS << Op;
        OS << "(" << tree(Pool, Depth - 1) << ")";
      }
      return OS.str();
    }
    if (Pick == 7) // negation
      return "!(" + tree(Pool, Depth - 1) + ")";
    // Existential with an internally bounded witness (see file comment).
    if (QuantCount >= 2)
      return atom(Pool);
    std::string Q =
        BinderNames.empty()
            ? "q" + std::to_string(QuantCount)
            : BinderNames[range(0, int64_t(BinderNames.size()) - 1)];
    ++QuantCount;
    int64_t Lo = range(-6, 2);
    int64_t Hi = Lo + range(2, 8);
    std::vector<std::string> Inner = Pool;
    Inner.push_back(Q);
    std::ostringstream OS;
    OS << "exists(" << Q << ": " << Lo << " <= " << Q << " <= " << Hi
       << " && (" << tree(Inner, Depth - 1) << "))";
    return OS.str();
  }
};

/// A formula with floor, ceil and mod terms, distinct per \p K: a parse of
/// it lowers three auxiliaries (presburger/NonLinear.h).
inline FuzzCase nonLinearCase(unsigned K) {
  const std::string A = std::to_string(K % 7 + 2);
  const std::string B = std::to_string(K / 7 + 2);
  FuzzCase C;
  C.Text = "1 <= i <= n && floor(i/" + A + ") <= m && ceil(i/" + B +
           ") <= n && i mod " + B + " = 1";
  C.Vars = {"i"};
  C.Symbols = {"n", "m"};
  return C;
}

/// The identifiers \p Text spells outside the keywords: the user names a
/// parse of it interns.
inline std::set<std::string> userNames(const std::string &Text) {
  static const std::set<std::string> Keywords = {
      "exists", "forall", "mod",  "floor", "ceil", "true",
      "false",  "TRUE",   "FALSE", "and",  "or",   "not"};
  std::set<std::string> Out;
  std::string Word;
  for (char C : Text + " ") {
    if (std::isalnum(static_cast<unsigned char>(C)) || C == '_') {
      Word += C;
      continue;
    }
    if (!Word.empty() && !std::isdigit(static_cast<unsigned char>(Word[0])) &&
        !Keywords.count(Word))
      Out.insert(Word);
    Word.clear();
  }
  return Out;
}

} // namespace fuzz
} // namespace omega

#endif // OMEGA_TESTS_FUZZGEN_H
