//===- omega/Simplify.cpp - Formula simplification and disjoint DNF ------===//
//
// §2.5/§2.6 of the paper: lowering arbitrary Presburger formulas (∧ ∨ ¬ ∃ ∀)
// into disjunctive normal form over wildcard-free clauses, and §5.3's
// conversion of DNF into *disjoint* DNF (connected components, articulation
// point extraction, gist-reduced disjoint negation).
//
//===----------------------------------------------------------------------===//

#include "omega/Omega.h"

#include "analysis/Validator.h"
#include "support/Budget.h"
#include "support/Error.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>

using namespace omega;

Formula omega::renameFreeVars(const Formula &F,
                              const std::map<VarId, VarId> &Map) {
  if (Map.empty())
    return F;
  switch (F.kind()) {
  case FormulaKind::True:
  case FormulaKind::False:
    return F;
  case FormulaKind::Atom: {
    Constraint K = F.constraint();
    for (const auto &[From, To] : Map)
      K.renameVar(From, To);
    return Formula::atom(std::move(K));
  }
  case FormulaKind::And:
  case FormulaKind::Or:
  case FormulaKind::Not: {
    std::vector<Formula> Kids;
    Kids.reserve(F.children().size());
    for (const Formula &C : F.children())
      Kids.push_back(renameFreeVars(C, Map));
    if (F.kind() == FormulaKind::And)
      return Formula::conj(std::move(Kids));
    if (F.kind() == FormulaKind::Or)
      return Formula::disj(std::move(Kids));
    return Formula::negation(std::move(Kids[0]));
  }
  case FormulaKind::Exists:
  case FormulaKind::Forall: {
    // Inner bindings shadow the renaming.
    std::map<VarId, VarId> Inner = Map;
    for (VarId V : F.quantified())
      Inner.erase(V);
    Formula Body = renameFreeVars(F.body(), Inner);
    if (F.kind() == FormulaKind::Exists)
      return Formula::exists(F.quantified(), std::move(Body));
    return Formula::forall(F.quantified(), std::move(Body));
  }
  }
  fatalError("renameFreeVars: unknown formula kind");
}

namespace {

/// Drops clauses that are infeasible; normalizes the rest.  Normalization
/// here keeps the DNF invariant that every surviving constraint is a
/// fixpoint of Constraint::normalize() with no trivial or duplicate
/// constraints and no unused wildcard declarations.
void pruneInfeasible(std::vector<Conjunct> &Clauses) {
  std::vector<Conjunct> Kept;
  Kept.reserve(Clauses.size());
  for (Conjunct &C : Clauses) {
    if (!normalizeConjunct(C))
      continue;
    C.pruneUnusedWildcards();
    if (feasible(C))
      Kept.push_back(std::move(C));
  }
  Clauses = std::move(Kept);
}

/// Cross-product conjunction of two clause unions, pruning infeasible
/// combinations as they are built.
std::vector<Conjunct> crossConjoin(const std::vector<Conjunct> &A,
                                   const std::vector<Conjunct> &B) {
  if (A.empty() || B.empty())
    return {};
  TraceSpan Span("crossConjoin");
  Span.count(TraceCounter::ClausesIn, A.size() * B.size());
  // The pair space is the quantity that blows up in DNF conversion, so it
  // is what the clause budget meters (a container-size check, so whether
  // it trips is a function of the query alone).
  chargeClauses(A.size() * B.size(), "simplify");
  std::vector<Conjunct> Out;
  for (const Conjunct &L : A)
    for (const Conjunct &R : B) {
      Conjunct M = Conjunct::merge(L, R);
      if (feasible(M))
        Out.push_back(std::move(M));
    }
  Span.count(TraceCounter::ClausesOut, Out.size());
  return Out;
}

std::vector<Conjunct> toDNF(const Formula &F, ShadowMode Mode);

std::vector<Conjunct> negateDNF(const std::vector<Conjunct> &D) {
  std::vector<Conjunct> Out{Conjunct::trueConjunct()};
  for (const Conjunct &C : D) {
    Out = crossConjoin(Out, negateConjunct(C));
    if (Out.empty())
      break;
  }
  return Out;
}

std::vector<Conjunct> toDNF(const Formula &F, ShadowMode Mode) {
  switch (F.kind()) {
  case FormulaKind::True:
    return {Conjunct::trueConjunct()};
  case FormulaKind::False:
    return {};
  case FormulaKind::Atom: {
    Conjunct C;
    C.add(F.constraint());
    if (!feasible(C))
      return {};
    return {std::move(C)};
  }
  case FormulaKind::And: {
    std::vector<Conjunct> Acc{Conjunct::trueConjunct()};
    for (const Formula &Child : F.children()) {
      Acc = crossConjoin(Acc, toDNF(Child, Mode));
      if (Acc.empty())
        break;
    }
    return Acc;
  }
  case FormulaKind::Or: {
    std::vector<Conjunct> Acc;
    for (const Formula &Child : F.children()) {
      std::vector<Conjunct> D = toDNF(Child, Mode);
      Acc.insert(Acc.end(), std::make_move_iterator(D.begin()),
                 std::make_move_iterator(D.end()));
    }
    chargeClauses(Acc.size(), "simplify");
    return Acc;
  }
  case FormulaKind::Not: {
    // Negation must be exact regardless of the requested approximation
    // direction (approximating inside a negation flips the direction;
    // handled conservatively by being exact).
    return negateDNF(toDNF(F.children()[0], ShadowMode::Exact));
  }
  case FormulaKind::Exists: {
    // Project the bound variables out of each clause of the body: they
    // are free there and nowhere else, and the result is wildcard-free.
    std::vector<Conjunct> Out;
    for (const Conjunct &C : toDNF(F.body(), Mode)) {
      std::vector<Conjunct> P = projectVars(C, F.quantified(), Mode);
      Out.insert(Out.end(), std::make_move_iterator(P.begin()),
                 std::make_move_iterator(P.end()));
    }
    return Out;
  }
  case FormulaKind::Forall:
    // ∀x.F == ¬∃x.¬F.
    return toDNF(Formula::negation(Formula::exists(
                     F.quantified(), Formula::negation(F.body()))),
                 Mode);
  }
  fatalError("toDNF: unknown formula kind");
}

/// Effective support of a clause: variables whose value can change the
/// truth of some constraint.  For Ge/Eq any nonzero coefficient counts;
/// for a stride m | e a coefficient divisible by m is inert (changing that
/// variable moves e by a multiple of m).  Computed from the raw constraint
/// list, so it is sound for unnormalized input too.
VarSet effectiveSupport(const Conjunct &C) {
  VarSet Out;
  for (const Constraint &K : C.constraints())
    for (const auto &[V, Coeff] : K.expr().terms()) {
      if (K.isStride() && BigInt::floorMod(Coeff, K.modulus()).isZero())
        continue;
      Out.insert(V);
    }
  return Out;
}

/// A ⊆ B over sorted variable sets.
bool supportSubset(const VarSet &A, const VarSet &B) { return B.includes(A); }

/// Removes clauses subsumed by another clause (step 1 of §5.3).  Callers
/// run this after pruneInfeasible, so every clause is feasible — which
/// licenses the support prefilter: a feasible clause I is invariant along
/// any variable outside its effective support, so I ⊆ J is impossible
/// unless effsupp(J) ⊆ effsupp(I) (J would have to exclude some shift of
/// a point of I along a variable I cannot see).
void removeSubsumed(std::vector<Conjunct> &Clauses) {
  std::vector<VarSet> Supp;
  Supp.reserve(Clauses.size());
  for (const Conjunct &C : Clauses)
    Supp.push_back(effectiveSupport(C));
  for (size_t I = 0; I < Clauses.size();) {
    bool Subsumed = false;
    for (size_t J = 0; J < Clauses.size() && !Subsumed; ++J) {
      if (I == J || !supportSubset(Supp[J], Supp[I]))
        continue;
      if (implies(Clauses[I], Clauses[J])) {
        // Tie-break identical clauses: drop the later one.  The reverse
        // implication needs no probes unless the supports allow it.
        if (!(supportSubset(Supp[I], Supp[J]) &&
              implies(Clauses[J], Clauses[I]) && J > I))
          Subsumed = true;
      }
    }
    if (Subsumed) {
      Clauses.erase(Clauses.begin() + I);
      Supp.erase(Supp.begin() + I);
    } else
      ++I;
  }
}

/// Brute-force articulation check: does removing node \p Skip disconnect
/// the component \p Nodes of the overlap graph \p Adj?
bool isArticulation(const std::vector<size_t> &Nodes,
                    const std::vector<std::vector<bool>> &Adj, size_t Skip) {
  std::vector<size_t> Rest;
  for (size_t N : Nodes)
    if (N != Skip)
      Rest.push_back(N);
  if (Rest.size() <= 1)
    return false;
  // BFS over Rest.
  std::vector<bool> Seen(Adj.size(), false);
  std::vector<size_t> Work{Rest[0]};
  Seen[Rest[0]] = true;
  size_t Count = 1;
  while (!Work.empty()) {
    size_t N = Work.back();
    Work.pop_back();
    for (size_t M : Rest)
      if (!Seen[M] && Adj[N][M]) {
        Seen[M] = true;
        ++Count;
        Work.push_back(M);
      }
  }
  return Count != Rest.size();
}

std::vector<Conjunct> makeDisjointComponent(std::vector<Conjunct> Clauses);
std::vector<Conjunct> makeDisjointImpl(std::vector<Conjunct> Clauses);

/// Per-variable bounds harvested syntactically from single-variable
/// inequalities and equalities.  The box over-approximates the clause
/// (couplings and strides are ignored), so two clauses whose boxes are
/// disjoint in any shared dimension provably share no integer point — an
/// overlap edge answered with no feasible() call.
using SyntacticBox =
    std::map<VarId, std::pair<std::optional<BigInt>, std::optional<BigInt>>>;

SyntacticBox syntacticBox(const Conjunct &C) {
  SyntacticBox Box;
  for (const Constraint &K : C.constraints()) {
    if (K.isStride() || K.expr().numVars() != 1)
      continue;
    const auto &[V, A] = *K.expr().terms().begin();
    const BigInt &Cst = K.expr().constant();
    auto &[Lo, Hi] = Box[V];
    // a*v + c >= 0 bounds v below when a > 0 (v >= ceil(-c/a)) and above
    // when a < 0 (v <= floor(c/-a)); an equality contributes both sides.
    auto ApplyGe = [&](const BigInt &Coeff, const BigInt &Konst) {
      if (Coeff.isPositive()) {
        BigInt Bound = BigInt::ceilDiv(-Konst, Coeff);
        if (!Lo || Bound > *Lo)
          Lo = std::move(Bound);
      } else {
        BigInt Bound = BigInt::floorDiv(Konst, -Coeff);
        if (!Hi || Bound < *Hi)
          Hi = std::move(Bound);
      }
    };
    ApplyGe(A, Cst);
    if (K.isEq())
      ApplyGe(-A, -Cst);
  }
  return Box;
}

/// True iff the boxes cannot intersect: some variable bounded in both has
/// non-overlapping ranges.  A sound "no shared point" proof, never a
/// proof of overlap.
bool boxesDisjoint(const SyntacticBox &A, const SyntacticBox &B) {
  for (const auto &[V, RA] : A) {
    auto It = B.find(V);
    if (It == B.end())
      continue;
    const auto &RB = It->second;
    if ((RA.second && RB.first && *RA.second < *RB.first) ||
        (RB.second && RA.first && *RB.second < *RA.first))
      return true;
  }
  return false;
}

/// Builds the symmetric clause-overlap graph (edge iff two clauses share an
/// integer point).  Pairs whose syntactic boxes are disjoint are rejected
/// up front; the rest run the feasibility test.
std::vector<std::vector<bool>>
overlapGraph(const std::vector<Conjunct> &Clauses) {
  size_t N = Clauses.size();
  std::vector<std::vector<bool>> Adj(N, std::vector<bool>(N, false));
  std::vector<SyntacticBox> Boxes;
  Boxes.reserve(N);
  for (const Conjunct &C : Clauses)
    Boxes.push_back(syntacticBox(C));
  for (size_t I = 0; I < N; ++I)
    for (size_t J = I + 1; J < N; ++J) {
      if (boxesDisjoint(Boxes[I], Boxes[J]))
        continue;
      if (feasible(Conjunct::merge(Clauses[I], Clauses[J])))
        Adj[I][J] = Adj[J][I] = true;
    }
  return Adj;
}

#ifdef OMEGA_VALIDATE
/// Shared boundary check: clauses out of simplify / makeDisjoint must be
/// wildcard-free, normalized, feasible, and (when promised) disjoint.
void validateBoundary(const std::vector<Conjunct> &Clauses, bool Disjoint,
                      const char *Boundary) {
  ValidatorOptions VO;
  VO.RequireWildcardFree = true;
  VO.RequireNormalized = true;
  VO.RequireDisjoint = Disjoint;
  VO.Overlaps = [](const Conjunct &A, const Conjunct &B) {
    return feasible(Conjunct::merge(A, B));
  };
  validateOrDie(validateDnf(Clauses, std::move(VO)), Boundary);
}
#endif

} // namespace

std::vector<Conjunct> omega::negateConjunct(const Conjunct &C) {
  check(C.wildcards().empty(),
        "negateConjunct requires a wildcard-free clause (simplify first)");
  // Disjoint negation (§5.3 step 4):
  //   ¬(c1 ∧ c2 ∧ ...) = ¬c1 + (c1 ∧ ¬c2) + (c1 ∧ c2 ∧ ¬c3) + ...
  // and each ¬ci expands into branches that are themselves disjoint.
  std::vector<Conjunct> Out;
  Conjunct Prefix;
  for (const Constraint &K : C.constraints()) {
    std::vector<Constraint> Branches;
    switch (K.kind()) {
    case ConstraintKind::Ge:
      Branches.push_back(Constraint::ge(-K.expr() - AffineExpr(1)));
      break;
    case ConstraintKind::Eq:
      Branches.push_back(Constraint::ge(K.expr() - AffineExpr(1)));
      Branches.push_back(Constraint::ge(-K.expr() - AffineExpr(1)));
      break;
    case ConstraintKind::Stride:
      for (BigInt R(1); R < K.modulus(); ++R)
        Branches.push_back(
            Constraint::stride(K.modulus(), K.expr() - AffineExpr(R)));
      break;
    }
    for (Constraint &B : Branches) {
      Conjunct Piece = Prefix;
      Piece.add(std::move(B));
      if (feasible(Piece))
        Out.push_back(std::move(Piece));
    }
    Prefix.add(K);
  }
  return Out;
}

std::vector<Conjunct> omega::simplify(const Formula &F, SimplifyOptions Opts) {
  check((!Opts.Disjoint || Opts.Mode == ShadowMode::Exact),
        "disjoint DNF requires exact simplification");
  TraceSpan Span("simplify");
  std::vector<Conjunct> D;
  {
    PhaseTimer Timer(pipelineStats().SimplifyNanos);
    {
      TraceSpan DnfSpan("toDNF");
      D = toDNF(F, Opts.Mode);
      DnfSpan.count(TraceCounter::ClausesOut, D.size());
    }
    pruneInfeasible(D);
    pipelineStats().ClausesSimplified += D.size();
    for (Conjunct &C : D)
      removeRedundant(C, /*Aggressive=*/true);
    removeSubsumed(D);
  }
  if (Opts.Disjoint) {
    PhaseTimer Timer(pipelineStats().DisjointNanos);
    TraceSpan DisjointSpan("makeDisjoint");
    DisjointSpan.count(TraceCounter::ClausesIn, D.size());
    D = makeDisjointImpl(std::move(D));
    DisjointSpan.count(TraceCounter::ClausesOut, D.size());
  }
  coalesceClauses(D);
#ifdef OMEGA_VALIDATE
  validateBoundary(D, Opts.Disjoint, "omega::simplify");
#endif
  Span.count(TraceCounter::ClausesOut, D.size());
  return D;
}

namespace {

/// True iff every variable of \p K is bound by \p Values and K fails
/// there.  Unbound variables make the answer "unknown", reported as
/// false (not a proven violation).
bool violatesAt(const Constraint &K, const Assignment &Values) {
  for (const auto &[V, Coeff] : K.expr().terms()) {
    (void)Coeff;
    if (!Values.lookup(V))
      return false;
  }
  return !K.holds(Values);
}

/// Shared pair-merge core: candidate construction plus the union-equality
/// check, with the per-clause disjoint negations hoisted to the caller
/// and (optionally) a known sample point of each clause.  A sample of B
/// refutes "B implies K" arithmetically whenever K fails at it, skipping
/// the Omega probe; the answer is unchanged because the probe would have
/// returned false (the sample is a point of B violating K).
std::optional<Conjunct>
coalescePairImpl(const Conjunct &A, const Conjunct &B,
                 const std::vector<Conjunct> &NegA,
                 const std::vector<Conjunct> &NegB, const Assignment *SA,
                 const Assignment *SB) {
  pipelineStats().CoalescePairs += 1;
  // Candidate: constraints of one side the other side also satisfies.  It
  // contains A ∨ B by construction; it equals the union iff it has no
  // point outside both.  Cross-side duplicates are dropped via an ordered
  // constraint set (operator< is consistent with operator==) instead of a
  // linear scan of the candidate per constraint.
  Conjunct Candidate;
  std::set<Constraint> Present;
  for (const Constraint &K : A.constraints()) {
    if (SB && violatesAt(K, *SB))
      continue;
    if (impliesConstraint(B, K)) {
      Present.insert(K);
      Candidate.add(K);
    }
  }
  for (const Constraint &K : B.constraints()) {
    if (Present.count(K))
      continue;
    if (SA && violatesAt(K, *SA))
      continue;
    if (impliesConstraint(A, K)) {
      Present.insert(K);
      Candidate.add(K);
    }
  }
  // Candidate \ (A ∨ B) must be empty: for every branch pair of the two
  // negations, Candidate ∧ ¬A-branch ∧ ¬B-branch must be infeasible.
  for (const Conjunct &NA : NegA)
    for (const Conjunct &NB : NegB) {
      Conjunct Test = Candidate;
      Test.addAll(NA);
      Test.addAll(NB);
      if (feasible(Test))
        return std::nullopt;
    }
  removeRedundant(Candidate, /*Aggressive=*/true);
  return Candidate;
}

/// Tries to prove, by pure arithmetic, that coalescing \p A and \p B must
/// fail.  U over-approximates every possible candidate's constraint list:
/// a constraint enters the candidate only if the other clause implies it,
/// which that clause's sample point refutes whenever the constraint fails
/// there — so U (the constraints *not* refuted) is a superset, and
/// region(U) ⊆ region(candidate).  Any point satisfying U but neither A
/// nor B therefore witnesses candidate \ (A ∨ B) ≠ ∅, which is exactly
/// the condition under which the full evaluation rejects the pair.  Trial
/// points are a small battery built from the two samples:
/// single-coordinate exchanges and the floored midpoint with ±1 nudges —
/// the places a "gap" between two clauses shows up.
bool witnessSeparates(const Conjunct &A, const Conjunct &B,
                      const Assignment &SA, const Assignment &SB) {
  std::vector<const Constraint *> U;
  for (const Constraint &K : A.constraints())
    if (!violatesAt(K, SB))
      U.push_back(&K);
  for (const Constraint &K : B.constraints())
    if (!violatesAt(K, SA))
      U.push_back(&K);

  // Each sample binds its own clause's variables; extending each with the
  // other's bindings makes every trial point evaluable against A, B and U.
  Assignment BaseA = SA, BaseB = SB;
  for (const auto &[V, Val] : SB)
    BaseA.emplace(V, Val); // keeps SA's value where both bind
  for (const auto &[V, Val] : SA)
    BaseB.emplace(V, Val);

  auto Separates = [&](const Assignment &P) {
    for (const Constraint *K : U)
      if (!K->holds(P))
        return false;
    return !A.contains(P) && !B.contains(P);
  };

  std::vector<Assignment> Trials;
  // Single-coordinate exchanges, both directions.
  for (const auto &[V, ValB] : SB) {
    const BigInt *ValA = SA.lookup(V);
    if (!ValA || *ValA == ValB)
      continue;
    Assignment P = BaseA;
    P[V] = ValB;
    Trials.push_back(std::move(P));
    Assignment Q = BaseB;
    Q[V] = *ValA;
    Trials.push_back(std::move(Q));
  }
  // The floored midpoint, plus single-coordinate ±1 nudges of it.
  Assignment Mid = BaseA;
  bool AnyDiff = false;
  for (auto &[V, Val] : Mid) {
    const BigInt *InA = SA.lookup(V), *InB = SB.lookup(V);
    if (InA && InB && *InA != *InB) {
      Val = BigInt::floorDiv(*InA + *InB, BigInt(2));
      AnyDiff = true;
    }
  }
  if (AnyDiff) {
    for (const auto &[V, Val] : Mid) {
      Assignment P = Mid;
      P[V] = Val + BigInt(1);
      Trials.push_back(std::move(P));
      Assignment Q = Mid;
      Q[V] = Val - BigInt(1);
      Trials.push_back(std::move(Q));
    }
    Trials.push_back(std::move(Mid));
  }

  for (const Assignment &P : Trials)
    if (Separates(P))
      return true;
  return false;
}

/// Per-clause state for the coalesce worklist: cheap syntactic facts
/// eagerly, Omega-derived facts (sample point, disjoint negation) lazily
/// and at most once per clause — the seed algorithm recomputed both
/// negations inside every pair test.
struct CoalesceClauseInfo {
  bool HasWildcards = false;
  VarSet Support;
  bool SampleReady = false;
  std::optional<Assignment> Sample;
  bool NegReady = false;
  std::vector<Conjunct> Negation;
};

/// The coalesce engine (DESIGN.md §15): an indexed incremental worklist
/// that reproduces the seed algorithm's merge sequence exactly.  Every
/// clause carries a stable id; evaluated pair outcomes are memoized by
/// id-pair, so the restart-scan after a merge costs hash lookups instead
/// of re-running pair tests, and only pairs involving the merged clause
/// are ever evaluated afresh.  Pair evaluations are pure functions of the
/// two clauses, so prefiltering and memoization cannot change which merge
/// the position-ordered scan applies first.
class CoalesceWorklist {
public:
  explicit CoalesceWorklist(std::vector<Conjunct> &Clauses)
      : Clauses(Clauses) {
    Ids.reserve(Clauses.size());
    for (const Conjunct &C : Clauses)
      Ids.push_back(newInfo(C));
  }

  void run() {
    while (applyFirstMerge())
      ;
  }

private:
  std::vector<Conjunct> &Clauses;
  std::vector<size_t> Ids; ///< Position -> stable clause id.
  std::vector<CoalesceClauseInfo> Infos;        ///< Indexed by id.
  std::unordered_map<uint64_t, std::optional<Conjunct>> Memo;

  size_t newInfo(const Conjunct &C) {
    CoalesceClauseInfo Info;
    Info.HasWildcards = !C.wildcards().empty();
    if (!Info.HasWildcards)
      Info.Support = effectiveSupport(C);
    Infos.push_back(std::move(Info));
    return Infos.size() - 1;
  }

  CoalesceClauseInfo &info(size_t Pos) { return Infos[Ids[Pos]]; }

  uint64_t pairKey(size_t I, size_t J) const {
    uint64_t A = Ids[I], B = Ids[J];
    if (A > B)
      std::swap(A, B);
    return (A << 32) | B;
  }

  void ensureSample(size_t Pos) {
    CoalesceClauseInfo &I = info(Pos);
    if (!I.SampleReady) {
      I.Sample = samplePoint(Clauses[Pos]);
      I.SampleReady = true;
    }
  }

  void ensureNegation(size_t Pos) {
    CoalesceClauseInfo &I = info(Pos);
    if (!I.NegReady) {
      I.Negation = negateConjunct(Clauses[Pos]);
      I.NegReady = true;
    }
  }

  /// Clause-index prefilter: proves "no merge" with no per-pair Omega
  /// call, or returns false when a full evaluation is needed.  Sound
  /// shortcuts only — the full test would reach the same verdict.
  bool prefilterRejects(size_t I, size_t J) {
    const CoalesceClauseInfo &IA = info(I), &IB = info(J);
    // coalescePair is defined on wildcard-free clauses only.
    if (IA.HasWildcards || IB.HasWildcards)
      return true;
    ensureSample(I);
    ensureSample(J);
    const std::optional<Assignment> &SA = info(I).Sample;
    const std::optional<Assignment> &SB = info(J).Sample;
    // The shortcuts below assume both clauses are nonempty; without a
    // sample (infeasible clause) fall through to the full test.
    if (!SA || !SB)
      return false;
    // Incomparable effective supports: a successful merge would force
    // each side to contain the other (each is invariant along a variable
    // the other constrains), i.e. A = B — contradicting incomparability.
    if (!supportSubset(IA.Support, IB.Support) &&
        !supportSubset(IB.Support, IA.Support))
      return true;
    return witnessSeparates(Clauses[I], Clauses[J], *SA, *SB);
  }

  std::optional<Conjunct> evaluate(size_t I, size_t J) {
    ensureNegation(I);
    ensureNegation(J);
    const CoalesceClauseInfo &IA = info(I), &IB = info(J);
    return coalescePairImpl(Clauses[I], Clauses[J], IA.Negation, IB.Negation,
                            IA.Sample ? &*IA.Sample : nullptr,
                            IB.Sample ? &*IB.Sample : nullptr);
  }

  /// Computes and memoizes the outcome for the pair at positions (I, J).
  void decide(size_t I, size_t J) {
    if (prefilterRejects(I, J)) {
      pipelineStats().CoalescePrefiltered += 1;
      Memo.emplace(pairKey(I, J), std::nullopt);
      return;
    }
    Memo.emplace(pairKey(I, J), evaluate(I, J));
  }

  /// One step of the seed algorithm: find the first mergeable pair in
  /// position order and apply it.  Returns false when no pair merges.
  bool applyFirstMerge() {
    for (size_t I = 0; I < Clauses.size(); ++I)
      for (size_t J = I + 1; J < Clauses.size(); ++J) {
        auto It = Memo.find(pairKey(I, J));
        if (It == Memo.end()) {
          decide(I, J);
          It = Memo.find(pairKey(I, J));
        }
        if (!It->second)
          continue;
        // First mergeable pair in scan order — identical to the seed
        // algorithm's restart-scan choice, because pair outcomes are pure
        // and skipped pairs are skipped only on a memoized "no merge".
        Clauses[I] = std::move(*It->second);
        Clauses.erase(Clauses.begin() + J);
        Ids[I] = newInfo(Clauses[I]);
        Ids.erase(Ids.begin() + J);
        pipelineStats().CoalesceMerges += 1;
        return true;
      }
    return false;
  }
};

} // namespace

std::optional<Conjunct> omega::coalescePair(const Conjunct &A,
                                            const Conjunct &B) {
  if (!A.wildcards().empty() || !B.wildcards().empty())
    return std::nullopt;
  return coalescePairImpl(A, B, negateConjunct(A), negateConjunct(B),
                          /*SA=*/nullptr, /*SB=*/nullptr);
}

void omega::coalesceClauses(std::vector<Conjunct> &Clauses) {
  PhaseTimer Timer(pipelineStats().CoalesceNanos);
  TraceSpan Span("coalesce");
  Span.count(TraceCounter::ClausesIn, Clauses.size());
  if (Clauses.size() >= 2)
    CoalesceWorklist(Clauses).run();
  Span.count(TraceCounter::ClausesOut, Clauses.size());
}

bool omega::pairwiseDisjoint(const std::vector<Conjunct> &Clauses) {
  for (size_t I = 0; I < Clauses.size(); ++I)
    for (size_t J = I + 1; J < Clauses.size(); ++J)
      if (feasible(Conjunct::merge(Clauses[I], Clauses[J])))
        return false;
  return true;
}

namespace {

std::vector<Conjunct> makeDisjointComponent(std::vector<Conjunct> Clauses) {
  if (Clauses.size() <= 1)
    return Clauses;

  // Rebuild the overlap graph for this component.
  size_t N = Clauses.size();
  std::vector<std::vector<bool>> Adj = overlapGraph(Clauses);

  std::vector<size_t> Nodes(N);
  for (size_t I = 0; I < N; ++I)
    Nodes[I] = I;

  // Step 3: prefer an articulation point; tie-break on fewest constraints.
  size_t Pick = N;
  bool PickArt = false;
  for (size_t I = 0; I < N; ++I) {
    bool Art = isArticulation(Nodes, Adj, I);
    size_t Size = Clauses[I].constraints().size();
    if (Pick == N || (Art && !PickArt) ||
        (Art == PickArt && Size < Clauses[Pick].constraints().size())) {
      Pick = I;
      PickArt = Art;
    }
  }

  Conjunct C1 = std::move(Clauses[Pick]);
  Clauses.erase(Clauses.begin() + Pick);

  // Step 4: reduce C1 against the rest via gist, then distribute its
  // disjoint negation.
  Conjunct Reduced;
  {
    // gist C1 given (C2 ∨ ... ∨ Cq) = ∧ gist(C1 given Cj), deduped via an
    // ordered set (operator< is consistent with operator==) while keeping
    // first-seen order.
    std::vector<Constraint> Acc;
    std::set<Constraint> Seen;
    for (const Conjunct &Cj : Clauses) {
      Conjunct G = gist(C1, Cj);
      for (const Constraint &K : G.constraints())
        if (Seen.insert(K).second)
          Acc.push_back(K);
    }
    for (Constraint &K : Acc)
      Reduced.add(std::move(K));
  }

  // Groups from distinct negation pieces are disjoint; each is made
  // disjoint within itself by recursion and appended in piece order.
  std::vector<Conjunct> Result{std::move(C1)};
  for (const Conjunct &Piece : negateConjunct(Reduced)) {
    std::vector<Conjunct> Group;
    for (const Conjunct &Cj : Clauses) {
      Conjunct M = Conjunct::merge(Cj, Piece);
      if (feasible(M)) {
        removeRedundant(M, /*Aggressive=*/true);
        Group.push_back(std::move(M));
      }
    }
    Group = makeDisjointImpl(std::move(Group));
    Result.insert(Result.end(), std::make_move_iterator(Group.begin()),
                  std::make_move_iterator(Group.end()));
  }
  return Result;
}

std::vector<Conjunct> makeDisjointImpl(std::vector<Conjunct> Clauses) {
  chargeClauses(Clauses.size(), "disjoint");
  pruneInfeasible(Clauses);
  removeSubsumed(Clauses);
  if (Clauses.size() <= 1)
    return Clauses;

  // Step 2: connected components of the overlap graph.
  size_t N = Clauses.size();
  std::vector<std::vector<bool>> Adj = overlapGraph(Clauses);

  std::vector<int> Comp(N, -1);
  int NumComps = 0;
  for (size_t I = 0; I < N; ++I) {
    if (Comp[I] >= 0)
      continue;
    std::vector<size_t> Work{I};
    Comp[I] = NumComps;
    while (!Work.empty()) {
      size_t K = Work.back();
      Work.pop_back();
      for (size_t J = 0; J < N; ++J)
        if (Adj[K][J] && Comp[J] < 0) {
          Comp[J] = NumComps;
          Work.push_back(J);
        }
    }
    ++NumComps;
  }

  std::vector<Conjunct> Result;
  for (int G = 0; G < NumComps; ++G) {
    std::vector<Conjunct> Group;
    for (size_t I = 0; I < N; ++I)
      if (Comp[I] == G)
        Group.push_back(Clauses[I]);
    for (Conjunct &C : makeDisjointComponent(std::move(Group)))
      Result.push_back(std::move(C));
  }
  return Result;
}

} // namespace

std::vector<Conjunct> omega::makeDisjoint(std::vector<Conjunct> Clauses) {
  PhaseTimer Timer(pipelineStats().DisjointNanos);
  TraceSpan Span("makeDisjoint");
  Span.count(TraceCounter::ClausesIn, Clauses.size());
  std::vector<Conjunct> Result = makeDisjointImpl(std::move(Clauses));
  Span.count(TraceCounter::ClausesOut, Result.size());
#ifdef OMEGA_VALIDATE
  // Validate only at the public entry: the recursion above would otherwise
  // re-check every suffix of the clause list, turning the O(n²) overlap
  // test into O(depth · n²).
  validateBoundary(Result, /*Disjoint=*/true, "omega::makeDisjoint");
#endif
  return Result;
}

