//===- support/Budget.h - Effort budgets and deadlines --------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Resource budgets for counting queries, in the spirit of isl's
/// --max-operations.  An EffortBudget caps the structural quantities that
/// drive worst-case blowup in the Omega test — coefficient bit-width,
/// splinters per elimination (§2.3.3), DNF clauses (§5.3), recursion
/// depth (§4) — plus a wall-clock deadline.  Checks happen at the same
/// pipeline boundaries OMEGA_VALIDATE hooks; tripping any limit throws
/// BudgetExceeded, which unwinds the query's pass and discards its partial
/// results.
///
/// Determinism contract (DESIGN.md §9): the counter limits are charged
/// against per-instance or container-size quantities, so whether a query
/// trips is a function of the query alone.  DeadlineMs is the one
/// inherently nondeterministic knob and is excluded from determinism
/// guarantees.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_SUPPORT_BUDGET_H
#define OMEGA_SUPPORT_BUDGET_H

#include "support/Status.h"

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace omega {

/// Limits on a single counting query.  0 means unlimited for every knob.
struct EffortBudget {
  /// Largest bit-width of any constraint coefficient or constant the
  /// projector may produce while normalizing / eliminating.
  uint64_t MaxCoefficientBits = 0;
  /// Largest number of splinters one variable elimination may generate
  /// (§2.3.3 dark-shadow splintering; per Projector instance).
  uint64_t MaxSplintersPerElimination = 0;
  /// Largest number of clauses any DNF may hold during simplification or
  /// disjoint decomposition (§5.3).
  uint64_t MaxDnfClauses = 0;
  /// Deepest nesting of eliminations / summations (per instance).
  uint64_t MaxRecursionDepth = 0;
  /// Wall-clock deadline for the whole query, in milliseconds.
  /// Nondeterministic by nature; see the determinism contract above.
  uint64_t DeadlineMs = 0;

  [[nodiscard]] bool unlimited() const {
    return MaxCoefficientBits == 0 && MaxSplintersPerElimination == 0 &&
           MaxDnfClauses == 0 && MaxRecursionDepth == 0 && DeadlineMs == 0;
  }

  /// A copy with every non-zero counter knob multiplied by \p Factor and
  /// the deadline extended likewise, for the degraded bounds passes.
  [[nodiscard]] EffortBudget relaxed(uint64_t Factor) const;

  /// Parses "splinters=8,clauses=64,depth=12,bits=128,ms=500" (any subset,
  /// any order).  Keys: bits, splinters, clauses, depth, ms.
  [[nodiscard]] static Result<EffortBudget> parse(const std::string &Spec);

  /// Inverse of parse(); "unlimited" when every knob is 0.
  [[nodiscard]] std::string toString() const;
};

/// Thrown when an EffortBudget limit trips.  Derives from std::exception
/// so the tools' and omegad's catch-all handlers report it as a diagnostic.
class BudgetExceeded : public std::runtime_error {
public:
  BudgetExceeded(std::string Limit, std::string Where)
      : std::runtime_error("budget exhausted at " + Where + ": " + Limit),
        Limit(std::move(Limit)), Where(std::move(Where)) {}

  /// Which knob tripped, e.g. "splinters=8".
  const std::string Limit;
  /// Pipeline boundary that noticed, e.g. "projection".
  const std::string Where;

  Error toError() const {
    return Error{ErrorKind::BudgetExhausted, Where, Limit, ""};
  }
};

/// State of one active budget: the limits plus the resolved deadline.
/// Every member is const, so the struct needs no mutex and no
/// OMEGA_GUARDED_BY annotations (DESIGN.md §13).
struct BudgetState {
  explicit BudgetState(EffortBudget Limits);

  const EffortBudget Limits;
  /// Steady-clock expiry in nanoseconds since epoch; 0 when no deadline.
  const uint64_t DeadlineNanos;

  /// Records the trip and raises BudgetExceeded.
  [[noreturn]] void trip(const std::string &Limit,
                         const std::string &Where) const;
};

/// Installs a fresh BudgetState for \p Limits as this thread's active
/// budget for the scope's lifetime (restores the previous one on exit).
/// An unlimited budget installs none, which still masks any outer budget:
/// inside the scope, nothing trips.
class BudgetScope {
public:
  explicit BudgetScope(const EffortBudget &Limits);
  ~BudgetScope();

  BudgetScope(const BudgetScope &) = delete;
  BudgetScope &operator=(const BudgetScope &) = delete;

private:
  std::optional<BudgetState> State;
  const BudgetState *Prev;
};

/// This thread's active budget, or null when none is installed.
const BudgetState *activeBudget();

/// Cheap deadline check; call at pipeline boundaries.  Throws
/// BudgetExceeded when the deadline has passed.  No-op without an active
/// budget.
void budgetCheckpoint(const char *Where);

/// Charge helpers: each checks one knob against a current magnitude and
/// trips (throws) when the limit is exceeded.  All are no-ops without an
/// active budget, and all begin with a budgetCheckpoint so the deadline
/// is observed even when the local quantity is within limits.
void chargeSplinters(uint64_t Count, const char *Where);
void chargeClauses(uint64_t Count, const char *Where);
void chargeDepth(uint64_t Depth, const char *Where);
void chargeCoefficientBits(uint64_t Bits, const char *Where);

} // namespace omega

#endif // OMEGA_SUPPORT_BUDGET_H
