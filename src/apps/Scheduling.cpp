//===- apps/Scheduling.cpp - Load balance & balanced chunks --------------===//

#include "apps/Scheduling.h"

#include "support/Error.h"

using namespace omega;

namespace {

/// Prefix work P(k) = Σ flops over iterations with OuterVar <= k, as a
/// symbolic value in k (named \p KVar) and the symbolic constants.
PiecewiseValue prefixWork(const LoopNest &Nest, const std::string &OuterVar,
                          const std::string &KVar,
                          const QuasiPolynomial &FlopsPerIter) {
  Formula Space = Nest.iterationSpace();
  Formula Bounded =
      Space && Formula::atom(Constraint::le(AffineExpr::variable(OuterVar),
                                            AffineExpr::variable(KVar)));
  return sumPolynomial(Bounded, Nest.vars(), FlopsPerIter).Value;
}

} // namespace

PiecewiseValue omega::perIterationWork(const LoopNest &Nest,
                                       const std::string &OuterVar,
                                       const QuasiPolynomial &FlopsPerIter) {
  // Sum over the inner variables only; the outer variable stays symbolic.
  VarSet Inner = Nest.vars();
  Inner.erase(internVar(OuterVar));
  return sumPolynomial(Nest.iterationSpace(), Inner, FlopsPerIter).Value;
}

bool omega::isLoadBalanced(const LoopNest &Nest, const std::string &OuterVar,
                           const QuasiPolynomial &FlopsPerIter,
                           const Assignment &Symbols, const BigInt &Lo,
                           const BigInt &Hi) {
  PiecewiseValue W = perIterationWork(Nest, OuterVar, FlopsPerIter);
  check(!W.isUnbounded(), "per-iteration work diverges");
  bool First = true;
  Rational Ref(0);
  for (BigInt K = Lo; K <= Hi; ++K) {
    Assignment A = Symbols;
    A[OuterVar] = K;
    Rational V = W.evaluate(A);
    if (First) {
      Ref = V;
      First = false;
    } else if (V != Ref) {
      return false;
    }
  }
  return true;
}

std::vector<Chunk> omega::balancedChunks(const LoopNest &Nest,
                                         const std::string &OuterVar,
                                         const QuasiPolynomial &FlopsPerIter,
                                         const Assignment &Symbols,
                                         const BigInt &Lo, const BigInt &Hi,
                                         unsigned NumProcs) {
  check(NumProcs > 0, "need at least one processor");
  // The chunk bound is a free symbol of the prefix sum, so a name neither
  // the nest nor the work uses.
  VarSet Taken = Nest.iterationSpace().vars();
  FlopsPerIter.collectVars(Taken);
  std::string KVar = varName(freshVar("chunkK", Taken));
  PiecewiseValue Prefix = prefixWork(Nest, OuterVar, KVar, FlopsPerIter);
  check(!Prefix.isUnbounded(), "prefix work diverges");

  auto PrefixAt = [&](const BigInt &K) {
    Assignment A = Symbols;
    A[KVar] = K;
    return Prefix.evaluate(A);
  };

  Rational Total = PrefixAt(Hi);
  Rational Before = PrefixAt(Lo - BigInt(1));
  std::vector<Chunk> Chunks;
  BigInt Begin = Lo;
  Rational Used = Before;
  for (unsigned P = 1; P <= NumProcs; ++P) {
    // Target cumulative work after this processor: Before + Total*p/procs.
    Rational Target =
        Before + (Total - Before) * Rational(BigInt(P), BigInt(NumProcs));
    // Smallest k in [Begin-1, Hi] with Prefix(k) >= Target.
    BigInt L = Begin - BigInt(1), H = Hi;
    while (L < H) {
      BigInt Mid = BigInt::floorDiv(L + H, BigInt(2));
      if (PrefixAt(Mid) >= Target)
        H = Mid;
      else
        L = Mid + BigInt(1);
    }
    BigInt End = P == NumProcs ? Hi : L;
    Rational Cum = PrefixAt(End);
    Chunk Ch;
    Ch.Begin = Begin;
    Ch.End = End;
    Rational Work = Cum - Used;
    check(Work.isInteger(), "flop counts must be integral");
    Ch.Flops = Work.asInteger();
    Chunks.push_back(Ch);
    Used = Cum;
    Begin = End + BigInt(1);
  }
  return Chunks;
}
