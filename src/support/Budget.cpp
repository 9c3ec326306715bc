//===- support/Budget.cpp - Effort budgets and deadlines ----------------===//

#include "support/Budget.h"

#include "support/Stats.h"
#include "support/Trace.h"

#include <chrono>

using namespace omega;

namespace {

thread_local const BudgetState *ActiveBudget = nullptr;

uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

EffortBudget EffortBudget::relaxed(uint64_t Factor) const {
  EffortBudget R = *this;
  if (R.MaxCoefficientBits)
    R.MaxCoefficientBits *= Factor;
  if (R.MaxSplintersPerElimination)
    R.MaxSplintersPerElimination *= Factor;
  if (R.MaxDnfClauses)
    R.MaxDnfClauses *= Factor;
  if (R.MaxRecursionDepth)
    R.MaxRecursionDepth *= Factor;
  if (R.DeadlineMs)
    R.DeadlineMs *= Factor;
  return R;
}

Result<EffortBudget> EffortBudget::parse(const std::string &Spec) {
  EffortBudget B;
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t End = Spec.find(',', Pos);
    if (End == std::string::npos)
      End = Spec.size();
    std::string Item = Spec.substr(Pos, End - Pos);
    size_t Eq = Item.find('=');
    if (Eq == std::string::npos || Eq == 0 || Eq + 1 == Item.size())
      return Error{ErrorKind::InvalidInput, "budget",
                   "expected key=value, got '" + Item + "'",
                   "offset " + std::to_string(Pos)};
    std::string Key = Item.substr(0, Eq);
    std::string Val = Item.substr(Eq + 1);
    uint64_t Num = 0;
    for (char C : Val) {
      if (C < '0' || C > '9')
        return Error{ErrorKind::InvalidInput, "budget",
                     "value for '" + Key + "' is not a number: '" + Val + "'",
                     "offset " + std::to_string(Pos)};
      uint64_t Digit = static_cast<uint64_t>(C - '0');
      if (Num > (UINT64_MAX - Digit) / 10)
        return Error{ErrorKind::InvalidInput, "budget",
                     "value for '" + Key + "' overflows: '" + Val + "'",
                     "offset " + std::to_string(Pos)};
      Num = Num * 10 + Digit;
    }
    if (Key == "bits")
      B.MaxCoefficientBits = Num;
    else if (Key == "splinters")
      B.MaxSplintersPerElimination = Num;
    else if (Key == "clauses")
      B.MaxDnfClauses = Num;
    else if (Key == "depth")
      B.MaxRecursionDepth = Num;
    else if (Key == "ms")
      B.DeadlineMs = Num;
    else
      return Error{ErrorKind::InvalidInput, "budget",
                   "unknown budget knob '" + Key +
                       "' (expected bits, splinters, clauses, depth, ms)",
                   "offset " + std::to_string(Pos)};
    Pos = End + 1;
  }
  return B;
}

std::string EffortBudget::toString() const {
  if (unlimited())
    return "unlimited";
  std::string Out;
  auto Emit = [&Out](const char *Key, uint64_t Val) {
    if (!Val)
      return;
    if (!Out.empty())
      Out += ',';
    Out += Key;
    Out += '=';
    Out += std::to_string(Val);
  };
  Emit("bits", MaxCoefficientBits);
  Emit("splinters", MaxSplintersPerElimination);
  Emit("clauses", MaxDnfClauses);
  Emit("depth", MaxRecursionDepth);
  Emit("ms", DeadlineMs);
  return Out;
}

BudgetState::BudgetState(EffortBudget L)
    : Limits(L),
      DeadlineNanos(L.DeadlineMs ? nowNanos() + L.DeadlineMs * 1000000 : 0) {}

void BudgetState::trip(const std::string &Limit,
                       const std::string &Where) const {
  pipelineStats().BudgetTrips += 1;
  traceAnnotate("budget_trip", Limit + " at " + Where);
  throw BudgetExceeded(Limit, Where);
}

BudgetScope::BudgetScope(const EffortBudget &Limits) : Prev(ActiveBudget) {
  if (!Limits.unlimited())
    State.emplace(Limits);
  ActiveBudget = State ? &*State : nullptr;
}

BudgetScope::~BudgetScope() { ActiveBudget = Prev; }

const BudgetState *omega::activeBudget() { return ActiveBudget; }

void omega::budgetCheckpoint(const char *Where) {
  const BudgetState *B = ActiveBudget;
  if (!B)
    return;
  if (B->DeadlineNanos && nowNanos() > B->DeadlineNanos)
    B->trip("ms=" + std::to_string(B->Limits.DeadlineMs), Where);
}

void omega::chargeSplinters(uint64_t Count, const char *Where) {
  budgetCheckpoint(Where);
  traceCount(TraceCounter::BudgetCharges);
  const BudgetState *B = ActiveBudget;
  if (!B)
    return;
  uint64_t Max = B->Limits.MaxSplintersPerElimination;
  if (Max && Count > Max)
    B->trip("splinters=" + std::to_string(Max), Where);
}

void omega::chargeClauses(uint64_t Count, const char *Where) {
  budgetCheckpoint(Where);
  traceCount(TraceCounter::BudgetCharges);
  const BudgetState *B = ActiveBudget;
  if (!B)
    return;
  uint64_t Max = B->Limits.MaxDnfClauses;
  if (Max && Count > Max)
    B->trip("clauses=" + std::to_string(Max), Where);
}

void omega::chargeDepth(uint64_t Depth, const char *Where) {
  budgetCheckpoint(Where);
  traceCount(TraceCounter::BudgetCharges);
  const BudgetState *B = ActiveBudget;
  if (!B)
    return;
  uint64_t Max = B->Limits.MaxRecursionDepth;
  if (Max && Depth > Max)
    B->trip("depth=" + std::to_string(Max), Where);
}

void omega::chargeCoefficientBits(uint64_t Bits, const char *Where) {
  budgetCheckpoint(Where);
  traceCount(TraceCounter::BudgetCharges);
  const BudgetState *B = ActiveBudget;
  if (!B)
    return;
  uint64_t Max = B->Limits.MaxCoefficientBits;
  if (Max && Bits > Max)
    B->trip("bits=" + std::to_string(Max), Where);
}
