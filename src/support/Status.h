//===- support/Status.h - Recoverable error channel ------------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The recoverable-error channel of the counting pipeline.  Pugh motivates
/// counting as a subroutine inside compilers and runtime systems (§6),
/// where a query that aborts the host process is unacceptable; like
/// isl_ctx's error state, every failure a *caller's input* can provoke is
/// reported as a structured Error value (kind, layer, location) through
/// Result<T> instead of a process abort.  fatalError (support/Error.h)
/// remains only for genuinely unreachable internal states — see
/// DESIGN.md §9 for the taxonomy and the list of surviving sites.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_SUPPORT_STATUS_H
#define OMEGA_SUPPORT_STATUS_H

#include "support/Error.h"

#include <optional>
#include <string>
#include <utility>

namespace omega {

/// What went wrong, at the coarsest level callers dispatch on.
enum class ErrorKind {
  Parse,           ///< Malformed formula or file text.
  InvalidInput,    ///< Well-formed text with unusable content (bad flags,
                   ///< bad directives, inconsistent arities).
  Unsupported,     ///< Valid input outside an API's contract (e.g.
                   ///< Formula::tryEvaluate on a quantified formula).
  Io,              ///< File system failure.
  BudgetExhausted, ///< An EffortBudget limit tripped (support/Budget.h).
  Internal,        ///< Invariant violation surfaced as a value (rare).
};

const char *errorKindName(ErrorKind K);

/// One recoverable diagnostic: what, where in the pipeline, and where in
/// the input.
struct [[nodiscard]] Error {
  ErrorKind Kind = ErrorKind::Internal;
  std::string Layer;    ///< Pipeline layer, e.g. "parser", "summation".
  std::string Message;  ///< Human-readable description.
  std::string Location; ///< Input position, e.g. "offset 12", "line 3".

  /// Renders "parse error in parser at offset 12: unexpected character".
  std::string toString() const;
};

/// Outcome of a whole counting query, for callers that want to dispatch
/// without inspecting the value (the CountStatus channel of DESIGN.md §9).
enum class [[nodiscard]] CountStatus {
  Exact,     ///< The answer is the exact count / sum.
  Bounded,   ///< Budget exhausted: answer UNKNOWN, certified bounds given.
  Unbounded, ///< The solution set is provably infinite.
  Error,     ///< The query never produced a value; see the Error.
};

/// The machine-readable outcome vocabulary shared by every query surface:
/// CountResult::outcome() produces one, the omegad wire protocol carries
/// it verbatim (one byte), and the tools derive their exit codes from it
/// (queryOutcomeExitCode) — so a scripted client and a socket client
/// dispatch on the same codes.  Values are wire format: never renumber,
/// only append.
///
/// Three bands: answers (0-9, query produced a usable result), input
/// diagnostics (10-19, this query can never succeed as posed), transient
/// service conditions (20-29, the same query may succeed later).
enum class QueryOutcome : unsigned char {
  // Answers.
  Exact = 0,           ///< Exact count / sum.
  Bounded = 1,         ///< Budget tripped; certified bounds returned.
  Unbounded = 2,       ///< Provably infinite solution set.
  // Input diagnostics (map 1:1 from ErrorKind).
  ParseError = 10,
  InvalidInput = 11,
  Unsupported = 12,
  IoError = 13,
  BudgetExhausted = 14, ///< Budget tripped with no usable bounds.
  InternalError = 15,
  // Transient service conditions (omegad admission control).
  Overloaded = 20,     ///< Queue full; resubmit later.
  MalformedFrame = 21, ///< Request frame undecodable; connection closed.
  ShuttingDown = 22,   ///< Server draining; resubmit elsewhere/later.
};

const char *queryOutcomeName(QueryOutcome O);

/// True for the 0-9 band: the query produced a usable result.
inline bool queryOutcomeIsAnswer(QueryOutcome O) {
  return static_cast<unsigned>(O) < 10;
}

/// The process exit code a tool reports for a query with this outcome:
/// answers exit 0, input diagnostics exit 1, transient conditions exit 75
/// (EX_TEMPFAIL — "try again later", the sendmail convention).
/// MalformedFrame exits 1, not 75: it reports a client bug.
int queryOutcomeExitCode(QueryOutcome O);

/// Maps a non-Error CountStatus into the answer band.
QueryOutcome queryOutcomeForStatus(CountStatus S);

/// Maps an ErrorKind into the diagnostic band.
QueryOutcome queryOutcomeForError(ErrorKind K);

/// A value or an Error — the pipeline's expected-like return channel.
template <typename T> class [[nodiscard]] Result {
public:
  Result(T Value) : Val(std::move(Value)) {}
  Result(Error E) : Err(std::move(E)) {}

  [[nodiscard]] explicit operator bool() const { return Val.has_value(); }
  [[nodiscard]] bool ok() const { return Val.has_value(); }

  [[nodiscard]] T &value() {
    check(Val.has_value(), "value() on an error Result");
    return *Val;
  }
  [[nodiscard]] const T &value() const {
    check(Val.has_value(), "value() on an error Result");
    return *Val;
  }
  T &operator*() { return value(); }
  const T &operator*() const { return value(); }
  T *operator->() { return &value(); }
  const T *operator->() const { return &value(); }

  [[nodiscard]] const Error &error() const {
    check(!Val.has_value(), "error() on an ok Result");
    return Err;
  }

  /// The value, or \p Fallback when this holds an error.
  [[nodiscard]] T valueOr(T Fallback) const { return Val ? *Val : std::move(Fallback); }

private:
  std::optional<T> Val;
  Error Err;
};

} // namespace omega

#endif // OMEGA_SUPPORT_STATUS_H
