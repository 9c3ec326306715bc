//===- counting/Backend.cpp - Pluggable counting backends ----------------===//
//
// The CountBackend registry and dispatcher (DESIGN.md §14), plus the two
// concrete-set backends: the constraint-automaton path counter and the
// volume-capped brute-force enumerator.  The pugh backend is a thin
// adapter over the §4 summation pipeline.
//
//===----------------------------------------------------------------------===//

#include "counting/Backend.h"

#include "counting/Summation.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <optional>
#include <utility>
#include <vector>

using namespace omega;

const char *omega::backendKindName(BackendKind K) {
  switch (K) {
  case BackendKind::Pugh:
    return "pugh";
  case BackendKind::Automaton:
    return "automaton";
  case BackendKind::Enumerate:
    return "enumerate";
  case BackendKind::Auto:
    return "auto";
  }
  fatalError("backendKindName: unknown BackendKind");
}

bool omega::backendKindFromName(const std::string &Name, BackendKind &Out) {
  if (Name == "pugh")
    Out = BackendKind::Pugh;
  else if (Name == "automaton")
    Out = BackendKind::Automaton;
  else if (Name == "enumerate")
    Out = BackendKind::Enumerate;
  else if (Name == "auto")
    Out = BackendKind::Auto;
  else
    return false;
  return true;
}

namespace {

CountResult refuse(const char *Layer, std::string Msg) {
  CountResult Out;
  Out.Status = CountStatus::Error;
  Out.Err = Error{ErrorKind::Unsupported, Layer, std::move(Msg), ""};
  return Out;
}

CountResult exactConstant(Rational Value) {
  CountResult Out;
  Out.Status = CountStatus::Exact;
  Out.Value = PiecewiseValue(QuasiPolynomial(std::move(Value)));
  return Out;
}

CountResult unboundedResult() {
  CountResult Out;
  Out.Status = CountStatus::Unbounded;
  Out.Value = PiecewiseValue::unbounded();
  return Out;
}

/// True iff \p F contains no Exists/Forall node.
bool quantifierFree(const Formula &F) {
  switch (F.kind()) {
  case FormulaKind::True:
  case FormulaKind::False:
  case FormulaKind::Atom:
    return true;
  case FormulaKind::And:
  case FormulaKind::Or:
  case FormulaKind::Not:
    for (const Formula &C : F.children())
      if (!quantifierFree(C))
        return false;
    return true;
  case FormulaKind::Exists:
  case FormulaKind::Forall:
    return false;
  }
  fatalError("quantifierFree: unknown formula kind");
}

/// Symbolic constants of the query: free variables of F or X outside Vars.
bool hasSymbols(const Formula &F, const VarSet &Vars,
                const QuasiPolynomial &X) {
  VarSet Free = F.freeVars();
  X.collectVars(Free);
  for (VarId V : Free)
    if (!Vars.contains(V))
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Bounding-box derivation
//===----------------------------------------------------------------------===//

/// Exact [lo, hi] hull of variable \p V over one wildcard-free clause, by
/// projecting away every other counted variable and reading the affine
/// bounds off the resulting one-variable clauses.
struct VarHull {
  bool Unbounded = false;
  bool Empty = true; ///< No projected clause contributed a range.
  BigInt Lo, Hi;
};

VarHull hullOfVar(const Conjunct &C, VarId V, const VarSet &Vars) {
  VarSet Others = Vars;
  Others.erase(V);
  VarHull H;
  for (const Conjunct &P : projectVars(C, Others)) {
    std::optional<BigInt> Lo, Hi;
    bool Infeasible = false;
    for (const Constraint &K : P.constraints()) {
      if (K.isTriviallyFalse()) {
        Infeasible = true;
        break;
      }
      BigInt A = K.expr().coeff(V);
      if (K.isStride() || A.isZero())
        continue; // strides never bound; constants were handled above
      BigInt NegK = -K.expr().constant();
      if (K.isEq()) {
        // A*v + k = 0: v = -k/A when integral, else the clause is empty.
        BigInt L = BigInt::ceilDiv(NegK, A), U = BigInt::floorDiv(NegK, A);
        if (!Lo || L > *Lo)
          Lo = L;
        if (!Hi || U < *Hi)
          Hi = U;
      } else if (A.isPositive()) {
        BigInt L = BigInt::ceilDiv(NegK, A);
        if (!Lo || L > *Lo)
          Lo = L;
      } else {
        BigInt U = BigInt::floorDiv(NegK, A);
        if (!Hi || U < *Hi)
          Hi = U;
      }
    }
    if (Infeasible || (Lo && Hi && *Lo > *Hi))
      continue; // this projected clause is empty
    if (!Lo || !Hi) {
      // Missing bound on a nonempty clause: the direction is unbounded —
      // unless the clause is infeasible for a non-affine reason.
      if (!feasible(P))
        continue;
      H.Unbounded = true;
      return H;
    }
    if (H.Empty) {
      H.Lo = *Lo;
      H.Hi = *Hi;
      H.Empty = false;
    } else {
      if (*Lo < H.Lo)
        H.Lo = *Lo;
      if (*Hi > H.Hi)
        H.Hi = *Hi;
    }
  }
  return H;
}

DerivedBox deriveBoxFromClauses(const std::vector<Conjunct> &Clauses,
                                const VarSet &Vars) {
  DerivedBox Out;
  if (Clauses.empty()) {
    Out.Outcome = BoxOutcome::Empty;
    return Out;
  }
  for (VarId V : Vars) {
    bool Any = false;
    BigInt Lo, Hi;
    for (const Conjunct &C : Clauses) {
      VarHull H = hullOfVar(C, V, Vars);
      if (H.Unbounded) {
        Out.Outcome = BoxOutcome::Unbounded;
        return Out;
      }
      if (H.Empty)
        continue;
      if (!Any) {
        Lo = H.Lo;
        Hi = H.Hi;
        Any = true;
      } else {
        if (H.Lo < Lo)
          Lo = H.Lo;
        if (H.Hi > Hi)
          Hi = H.Hi;
      }
    }
    if (!Any) {
      // Every clause's projection onto V came back empty; simplify()
      // only emits feasible clauses, so treat defensively as a refusal
      // rather than claiming the set is empty.
      Out.Outcome = BoxOutcome::Refused;
      Out.Reason = "no finite range derivable for " + varName(V);
      return Out;
    }
    if (!Lo.fitsInt64() || !Hi.fitsInt64()) {
      Out.Outcome = BoxOutcome::Refused;
      Out.Reason = "bounds of " + varName(V) + " exceed int64";
      return Out;
    }
    Out.Box[varName(V)] = VarBounds{Lo.toInt64(), Hi.toInt64()};
  }
  Out.Outcome = BoxOutcome::Bounded;
  return Out;
}

//===----------------------------------------------------------------------===//
// The pugh backend: adapter over the §4 splinter-summation pipeline.
//===----------------------------------------------------------------------===//

class PughBackend final : public CountBackend {
public:
  BackendKind kind() const override { return BackendKind::Pugh; }

  CountResult count(const Formula &F, const VarSet &Vars,
                    const QuasiPolynomial &X,
                    const CountOptions &Opts) const override {
    return pughCount(F, Vars, X, Opts);
  }
};

//===----------------------------------------------------------------------===//
// The automaton backend (counting/Automaton.h).
//===----------------------------------------------------------------------===//

class AutomatonBackend final : public CountBackend {
public:
  BackendKind kind() const override { return BackendKind::Automaton; }

  CountResult count(const Formula &F, const VarSet &Vars,
                    const QuasiPolynomial &X,
                    const CountOptions &Opts) const override {
    (void)Opts; // exact-or-refuse: budgets never degrade this backend
    if (!X.isConstant())
      return refuse("automaton", "non-constant summand (automaton backends "
                                 "count; they do not sum polynomials)");
    if (hasSymbols(F, Vars, X))
      return refuse("automaton",
                    "symbolic constants (only pugh answers symbolically)");

    TraceSpan Span("automaton");
    std::vector<Conjunct> Clauses = simplify(F);
    DerivedBox DB = deriveBoxFromClauses(Clauses, Vars);
    switch (DB.Outcome) {
    case BoxOutcome::Empty:
      return exactConstant(Rational(0));
    case BoxOutcome::Unbounded:
      return unboundedResult();
    case BoxOutcome::Refused:
      return refuse("automaton", DB.Reason);
    case BoxOutcome::Bounded:
      break;
    }

    // Run on the original structure when it is already quantifier-free
    // (And/Or/Not combine per-atom acceptance exactly); otherwise on the
    // disjunction of the simplified clauses, which is wildcard-free —
    // overlap between clauses is fine, the product DP never adds per
    // clause.
    Formula Target = F;
    if (!quantifierFree(F)) {
      std::vector<Formula> Parts;
      Parts.reserve(Clauses.size());
      for (const Conjunct &C : Clauses)
        Parts.push_back(Formula::fromConjunct(C));
      Target = Formula::disj(std::move(Parts));
    }

    AutomatonRunStats RS;
    Result<BigInt> N = automatonCount(Target, DB.Box, &RS);
    PipelineCounters &PS = pipelineStats();
    PS.AutomatonDfaStates += RS.DfaStates;
    PS.AutomatonProductStates += RS.ProductStates;
    PS.AutomatonTransitions += RS.Transitions;
    if (Span.active()) {
      Span.annotate("dfa_states", std::to_string(RS.DfaStates));
      Span.annotate("product_states", std::to_string(RS.ProductStates));
    }
    if (!N) {
      CountResult Out;
      Out.Status = CountStatus::Error;
      Out.Err = N.error();
      return Out;
    }
    return exactConstant(Rational(*N) * X.constantValue());
  }
};

//===----------------------------------------------------------------------===//
// The enumerate backend: brute-force sweep of the derived box.
//===----------------------------------------------------------------------===//

/// Volume cap: a sweep is O(volume × clauses), so this bounds wall time.
constexpr uint64_t MaxEnumeratePoints = uint64_t(1) << 21;

class EnumerateBackend final : public CountBackend {
public:
  BackendKind kind() const override { return BackendKind::Enumerate; }

  CountResult count(const Formula &F, const VarSet &Vars,
                    const QuasiPolynomial &X,
                    const CountOptions &Opts) const override {
    (void)Opts; // exact-or-refuse: budgets never degrade this backend
    if (hasSymbols(F, Vars, X))
      return refuse("enumerate",
                    "symbolic constants (only pugh answers symbolically)");

    TraceSpan Span("enumerate");
    std::vector<Conjunct> Clauses = simplify(F);
    DerivedBox DB = deriveBoxFromClauses(Clauses, Vars);
    switch (DB.Outcome) {
    case BoxOutcome::Empty:
      return exactConstant(Rational(0));
    case BoxOutcome::Unbounded:
      return unboundedResult();
    case BoxOutcome::Refused:
      return refuse("enumerate", DB.Reason);
    case BoxOutcome::Bounded:
      break;
    }

    BigInt Volume(1);
    for (const auto &[Name, B] : DB.Box)
      Volume *= BigInt(B.Hi) - BigInt(B.Lo) + BigInt(1);
    if (Volume > BigInt(MaxEnumeratePoints))
      return refuse("enumerate", "box volume " + Volume.toString() +
                                     " exceeds the sweep cap " +
                                     std::to_string(MaxEnumeratePoints));

    // Odometer sweep over the box.  A point counts once when *any* clause
    // contains it (clauses from simplify() may overlap).
    std::vector<std::string> Names;
    std::vector<int64_t> Lo, Hi, Cur;
    for (const auto &[Name, B] : DB.Box) {
      Names.push_back(Name);
      Lo.push_back(B.Lo);
      Hi.push_back(B.Hi);
      Cur.push_back(B.Lo);
    }
    Rational Sum(0);
    uint64_t Points = 0;
    bool Done = false;
    while (!Done) {
      ++Points;
      Assignment Values;
      for (size_t I = 0; I < Names.size(); ++I)
        Values[Names[I]] = BigInt(Cur[I]);
      for (const Conjunct &C : Clauses)
        if (C.contains(Values)) {
          Sum += X.evaluate(Values);
          break;
        }
      Done = true;
      for (size_t I = 0; I < Cur.size(); ++I) {
        if (Cur[I] < Hi[I]) {
          ++Cur[I];
          for (size_t J = 0; J < I; ++J)
            Cur[J] = Lo[J];
          Done = false;
          break;
        }
      }
    }
    pipelineStats().EnumeratedPoints += Points;
    if (Span.active())
      Span.annotate("points", std::to_string(Points));
    return exactConstant(std::move(Sum));
  }
};

} // namespace

const CountBackend &omega::countBackend(BackendKind K) {
  static const PughBackend Pugh;
  static const AutomatonBackend Automaton;
  static const EnumerateBackend Enumerate;
  switch (K) {
  case BackendKind::Pugh:
    return Pugh;
  case BackendKind::Automaton:
    return Automaton;
  case BackendKind::Enumerate:
    return Enumerate;
  case BackendKind::Auto:
    break;
  }
  fatalError("countBackend: Auto is a dispatch policy, not a backend");
}

DerivedBox omega::deriveCountingBox(const Formula &F, const VarSet &Vars) {
  TraceSpan Span("deriveBox");
  return deriveBoxFromClauses(simplify(F), Vars);
}

BackendKind omega::chooseBackend(const Formula &F, const VarSet &Vars,
                                 const QuasiPolynomial &X,
                                 const CountOptions &Opts,
                                 std::string *Reason) {
  auto Pick = [&](BackendKind K, std::string Why) {
    if (Reason)
      *Reason = std::move(Why);
    return K;
  };
  if (!Opts.Budget.unlimited())
    return Pick(BackendKind::Pugh,
                "budgeted query: only pugh degrades to certified bounds");
  if (hasSymbols(F, Vars, X))
    return Pick(BackendKind::Pugh,
                "symbolic constants: only pugh answers symbolically");
  if (!X.isConstant())
    return Pick(BackendKind::Pugh,
                "non-constant summand: only pugh sums polynomials");
  if (Vars.size() > AutomatonLimits{}.MaxVars)
    return Pick(BackendKind::Pugh,
                "more counted variables than automaton tracks");
  return Pick(BackendKind::Automaton,
              "concrete constant-summand query: constraint DFAs avoid "
              "splintering");
}

CountResult omega::dispatchCount(const Formula &F, const VarSet &Vars,
                                 const QuasiPolynomial &X,
                                 const CountOptions &Opts) {
  BackendKind K = Opts.Backend;
  std::string Reason;
  if (K == BackendKind::Auto)
    K = chooseBackend(F, Vars, X, Opts, &Reason);

  const CountBackend &B = countBackend(K);
  CountResult R = B.count(F, Vars, X, Opts);
  if (Opts.Backend == BackendKind::Auto && K != BackendKind::Pugh &&
      R.Status == CountStatus::Error &&
      R.Err.Kind == ErrorKind::Unsupported) {
    // The heuristic's pick refused; Auto promises totality, so rerun on
    // the total backend and record why.
    pipelineStats().BackendFallbacks += 1;
    std::string Why =
        std::string(B.name()) + " refused (" + R.Err.Message + ")";
    R = countBackend(BackendKind::Pugh).count(F, Vars, X, Opts);
    R.Backend = backendKindName(BackendKind::Pugh);
    R.BackendReason = std::move(Why);
    return R;
  }
  R.Backend = B.name();
  R.BackendReason = std::move(Reason);
  return R;
}
