//===- counting/Backend.h - Pluggable counting backends --------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CountBackend seam (DESIGN.md §14): one interface, three registered
/// algorithms that share no counting code —
///
///   pugh       §4 splinter summation.  *Total*: symbolic answers, budget
///              degradation to certified bounds, never refuses.
///   automaton  Per-constraint binary DFAs intersected by product DP
///              (counting/Automaton.h).  *Exact-or-refuses*: concrete
///              bounded sets only; anything else is a typed Unsupported
///              error, never a wrong count.
///   enumerate  Brute-force sweep of a derived bounding box.  Same
///              exact-or-refuses contract, volume-capped.
///
/// The unified entry points (omega::sumPolynomial / countSolutions with
/// CountOptions) dispatch through here; BackendKind::Auto applies a cheap
/// heuristic and falls back to pugh whenever the preferred backend
/// refuses, so Auto inherits pugh's totality.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_COUNTING_BACKEND_H
#define OMEGA_COUNTING_BACKEND_H

#include "counting/Automaton.h"
#include "omega/Omega.h"
#include "poly/QuasiPolynomial.h"

#include <string>

namespace omega {

/// One counting algorithm behind the unified query API.
class CountBackend {
public:
  virtual ~CountBackend() = default;

  /// Which algorithm this is (never BackendKind::Auto — Auto is a
  /// dispatcher policy, not a backend).
  virtual BackendKind kind() const = 0;

  const char *name() const { return backendKindName(kind()); }

  /// Answers (Σ Vars : F : X) under \p Opts.  A total backend returns
  /// Exact/Bounded/Unbounded; an exact-or-refuse backend may additionally
  /// return Status::Error with ErrorKind::Unsupported — a refusal, never a
  /// wrong count.  Opts.Backend is ignored (the dispatcher consumed it);
  /// the effort budget and the summation knobs (Strategy,
  /// EliminateRedundant, FreeVariableOrder) only apply to pugh.
  virtual CountResult count(const Formula &F, const VarSet &Vars,
                            const QuasiPolynomial &X,
                            const CountOptions &Opts) const = 0;
};

/// The registered singleton for \p K.  K must name a concrete backend,
/// not Auto.
const CountBackend &countBackend(BackendKind K);

/// Parses a --backend value ("pugh", "automaton", "enumerate", "auto").
bool backendKindFromName(const std::string &Name, BackendKind &Out);

/// Outcome of bounding-box derivation for the concrete backends.
enum class BoxOutcome {
  Bounded,   ///< Box covers every solution; Box is valid.
  Empty,     ///< The formula is infeasible: the count is zero.
  Unbounded, ///< Some variable is unbounded over a feasible clause: the
             ///< solution set is provably infinite.
  Refused,   ///< Bounds exist but are unusable (e.g. beyond int64);
             ///< Reason says why.
};

struct DerivedBox {
  BoxOutcome Outcome = BoxOutcome::Refused;
  VarBox Box;         ///< Valid when Outcome == Bounded.
  std::string Reason; ///< Valid when Outcome == Refused.
};

/// Derives inclusive per-variable bounds covering every solution of \p F
/// over \p Vars, by exact projection (§2.3): each variable's range is read
/// off the one-variable clauses of projectVars over each simplified
/// clause.  \p F must be concrete (free variables ⊆ Vars).  The box is the
/// exact hull per clause union, so Bounded really certifies finiteness and
/// Unbounded really certifies an infinite set.
DerivedBox deriveCountingBox(const Formula &F, const VarSet &Vars);

/// The BackendKind::Auto policy, exposed for tests: returns the concrete
/// backend a query would dispatch to and (optionally) the one-line
/// rationale.  Never returns Auto.
BackendKind chooseBackend(const Formula &F, const VarSet &Vars,
                          const QuasiPolynomial &X, const CountOptions &Opts,
                          std::string *Reason = nullptr);

/// Dispatches (Σ Vars : F : X) to Opts.Backend, resolving Auto via
/// chooseBackend and falling back to pugh when an Auto-chosen backend
/// refuses.  Fills CountResult::Backend/BackendReason.  This is the core
/// the sumPolynomial envelope (counting/Query.cpp) wraps with knob
/// scoping, stats deltas, and trace sessions.
CountResult dispatchCount(const Formula &F, const VarSet &Vars,
                          const QuasiPolynomial &X, const CountOptions &Opts);

} // namespace omega

#endif // OMEGA_COUNTING_BACKEND_H
