//===- support/Status.cpp - Recoverable error channel --------------------===//

#include "support/Status.h"

using namespace omega;

const char *omega::errorKindName(ErrorKind K) {
  switch (K) {
  case ErrorKind::Parse:
    return "parse error";
  case ErrorKind::InvalidInput:
    return "invalid input";
  case ErrorKind::Unsupported:
    return "unsupported";
  case ErrorKind::Io:
    return "io error";
  case ErrorKind::BudgetExhausted:
    return "budget exhausted";
  case ErrorKind::Internal:
    return "internal error";
  }
  return "unknown error";
}

const char *omega::queryOutcomeName(QueryOutcome O) {
  switch (O) {
  case QueryOutcome::Exact:
    return "exact";
  case QueryOutcome::Bounded:
    return "bounded";
  case QueryOutcome::Unbounded:
    return "unbounded";
  case QueryOutcome::ParseError:
    return "parse-error";
  case QueryOutcome::InvalidInput:
    return "invalid-input";
  case QueryOutcome::Unsupported:
    return "unsupported";
  case QueryOutcome::IoError:
    return "io-error";
  case QueryOutcome::BudgetExhausted:
    return "budget-exhausted";
  case QueryOutcome::InternalError:
    return "internal-error";
  case QueryOutcome::Overloaded:
    return "overloaded";
  case QueryOutcome::MalformedFrame:
    return "malformed-frame";
  case QueryOutcome::ShuttingDown:
    return "shutting-down";
  }
  return "unknown";
}

int omega::queryOutcomeExitCode(QueryOutcome O) {
  // A malformed frame is a client bug, not a condition that clears up on
  // retry — it exits like a diagnostic despite living in the service band.
  if (O == QueryOutcome::MalformedFrame)
    return 1;
  unsigned V = static_cast<unsigned>(O);
  if (V < 10)
    return 0;
  if (V < 20)
    return 1;
  return 75; // EX_TEMPFAIL: transient, retry may succeed.
}

QueryOutcome omega::queryOutcomeForStatus(CountStatus S) {
  switch (S) {
  case CountStatus::Exact:
    return QueryOutcome::Exact;
  case CountStatus::Bounded:
    return QueryOutcome::Bounded;
  case CountStatus::Unbounded:
    return QueryOutcome::Unbounded;
  case CountStatus::Error:
    break; // Callers map the ErrorKind instead.
  }
  return QueryOutcome::InternalError;
}

QueryOutcome omega::queryOutcomeForError(ErrorKind K) {
  switch (K) {
  case ErrorKind::Parse:
    return QueryOutcome::ParseError;
  case ErrorKind::InvalidInput:
    return QueryOutcome::InvalidInput;
  case ErrorKind::Unsupported:
    return QueryOutcome::Unsupported;
  case ErrorKind::Io:
    return QueryOutcome::IoError;
  case ErrorKind::BudgetExhausted:
    return QueryOutcome::BudgetExhausted;
  case ErrorKind::Internal:
    return QueryOutcome::InternalError;
  }
  return QueryOutcome::InternalError;
}

std::string Error::toString() const {
  std::string Out = errorKindName(Kind);
  if (!Layer.empty()) {
    Out += " in ";
    Out += Layer;
  }
  if (!Location.empty()) {
    Out += " at ";
    Out += Location;
  }
  Out += ": ";
  Out += Message;
  return Out;
}
