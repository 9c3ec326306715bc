//===- support/Trace.cpp - Hierarchical pipeline tracing -----------------===//
//
// Storage layout: everything lives in the TraceSession that records it.
// Open spans are a vector of records used as a stack, completed spans a
// ring of records; both are written only by the session's own thread, so
// no path here takes a lock or touches an atomic.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <sstream>

using namespace omega;

namespace {

/// Spans a session keeps before its ring wraps (oldest overwritten).
constexpr size_t RingCapacity = size_t(1) << 16;

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char *counterName(unsigned I) {
  static const char *Names[NumTraceCounters] = {
      "constraints_in", "clauses_in",    "clauses_out",   "splinters",
      "cache_hits",     "cache_misses",  "bigint_spills", "budget_charges"};
  return Names[I];
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Hex[8];
        std::snprintf(Hex, sizeof(Hex), "\\u%04x", C);
        Out += Hex;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

} // namespace

TraceSpanRecord *TraceSession::innermost() {
  TraceSession *S = trace_detail::ActiveSession;
  return S && !S->Open.empty() ? &S->Open.back() : nullptr;
}

TraceSession::TraceSession()
    : Prev(trace_detail::ActiveSession), EpochNs(nowNs()) {
  trace_detail::ActiveSession = this;
}

TraceSession::~TraceSession() { trace_detail::ActiveSession = Prev; }

size_t TraceSession::open(const char *Name) {
  TraceSpanRecord &R = Open.emplace_back();
  R.Id = NextId++;
  R.Parent = Open.size() > 1 ? Open[Open.size() - 2].Id : 0;
  R.Name = Name;
  R.StartNs = nowNs() - EpochNs;
  return Open.size() - 1;
}

void TraceSession::close() {
  TraceSpanRecord R = std::move(Open.back());
  Open.pop_back();
  R.DurNs = nowNs() - EpochNs - R.StartNs;
  if (Done.size() < RingCapacity) {
    Done.push_back(std::move(R));
    return;
  }
  Done[Head] = std::move(R);
  Head = (Head + 1) % RingCapacity;
  ++Dropped;
}

std::shared_ptr<const TraceData> TraceSession::data() const {
  auto Data = std::make_shared<TraceData>();
  Data->Spans = Done;
  Data->Dropped = Dropped;
  std::sort(Data->Spans.begin(), Data->Spans.end(),
            [](const TraceSpanRecord &A, const TraceSpanRecord &B) {
              return A.StartNs != B.StartNs ? A.StartNs < B.StartNs
                                            : A.Id < B.Id;
            });
  return Data;
}

void TraceSpan::count(TraceCounter C, uint64_t N) {
  if (Session)
    Session->Open[Slot].Counters[static_cast<unsigned>(C)] += N;
}

void TraceSpan::annotate(const char *Key, std::string Value) {
  if (Session)
    Session->Open[Slot].Annotations.emplace_back(Key, std::move(Value));
}

void omega::traceCount(TraceCounter C, uint64_t N) {
  if (TraceSpanRecord *R = TraceSession::innermost())
    R->Counters[static_cast<unsigned>(C)] += N;
}

void omega::traceAnnotate(const char *Key, std::string Value) {
  if (TraceSpanRecord *R = TraceSession::innermost())
    R->Annotations.emplace_back(Key, std::move(Value));
}

uint64_t omega::currentTraceSpan() {
  TraceSpanRecord *R = TraceSession::innermost();
  return R ? R->Id : 0;
}

const TraceSpanRecord *TraceData::find(uint64_t Id) const {
  for (const TraceSpanRecord &R : Spans)
    if (R.Id == Id)
      return &R;
  return nullptr;
}

std::string TraceData::toChromeJson() const {
  std::ostringstream OS;
  OS << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":2,"
     << "\"dropped_spans\":" << Dropped << "},\"traceEvents\":[";
  bool First = true;
  for (const TraceSpanRecord &R : Spans) {
    if (!First)
      OS << ",";
    First = false;
    // Chrome complete events use microsecond doubles.
    OS << "{\"name\":\"" << jsonEscape(R.Name) << "\",\"cat\":\"omega\","
       << "\"ph\":\"X\",\"ts\":" << static_cast<double>(R.StartNs) / 1e3
       << ",\"dur\":" << static_cast<double>(R.DurNs) / 1e3
       << ",\"pid\":1,\"tid\":0,\"args\":{\"id\":" << R.Id
       << ",\"parent\":" << R.Parent;
    for (unsigned I = 0; I < NumTraceCounters; ++I)
      if (R.Counters[I])
        OS << ",\"" << counterName(I) << "\":" << R.Counters[I];
    for (const auto &[Key, Value] : R.Annotations)
      OS << ",\"" << jsonEscape(Key) << "\":\"" << jsonEscape(Value) << "\"";
    OS << "}}";
  }
  OS << "]}";
  return OS.str();
}

std::string TraceData::toSummary() const {
  // Self time: a span's duration minus the duration of its direct
  // children.
  std::map<uint64_t, uint64_t> ChildNs;
  for (const TraceSpanRecord &R : Spans)
    if (R.Parent)
      ChildNs[R.Parent] += R.DurNs;

  struct Agg {
    uint64_t Spans = 0, TotalNs = 0, SelfNs = 0;
    uint64_t Counters[NumTraceCounters] = {};
  };
  std::map<std::string, Agg> ByName;
  for (const TraceSpanRecord &R : Spans) {
    Agg &A = ByName[R.Name];
    A.Spans += 1;
    A.TotalNs += R.DurNs;
    uint64_t Sub = 0;
    if (auto It = ChildNs.find(R.Id); It != ChildNs.end())
      Sub = std::min(It->second, R.DurNs);
    A.SelfNs += R.DurNs - Sub;
    for (unsigned I = 0; I < NumTraceCounters; ++I)
      A.Counters[I] += R.Counters[I];
  }
  // Every instrumented phase appears even with zero spans, so consumers
  // (the ci.sh trace leg greps for all nine) can tell "phase never ran"
  // from "phase missing from the format".
  static const char *Phases[] = {"simplify",  "toDNF",      "crossConjoin",
                                 "projectVars", "splinter", "makeDisjoint",
                                 "coalesce",  "summation",  "snfReparam"};
  for (const char *P : Phases)
    ByName.emplace(P, Agg{});

  auto Ms = [](uint64_t Ns) { return static_cast<double>(Ns) / 1e6; };
  std::ostringstream OS;
  OS << "trace summary: " << Spans.size() << " span"
     << (Spans.size() == 1 ? "" : "s");
  if (Dropped)
    OS << " (+" << Dropped << " dropped)";
  OS << "\n  phase            spans    total ms     self ms  counters\n";
  // Order by self time (descending), name as tie-break, zero-span phases
  // last in name order.
  std::vector<std::pair<std::string, Agg>> Rows(ByName.begin(), ByName.end());
  std::stable_sort(Rows.begin(), Rows.end(),
                   [](const auto &A, const auto &B) {
                     return A.second.SelfNs > B.second.SelfNs;
                   });
  for (const auto &[Name, A] : Rows) {
    OS << "  " << Name;
    for (size_t Pad = Name.size(); Pad < 17; ++Pad)
      OS << ' ';
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%5llu %11.3f %11.3f",
                  static_cast<unsigned long long>(A.Spans), Ms(A.TotalNs),
                  Ms(A.SelfNs));
    OS << Buf;
    bool AnyCounter = false;
    for (unsigned I = 0; I < NumTraceCounters; ++I)
      if (A.Counters[I]) {
        OS << (AnyCounter ? " " : "  ") << counterName(I) << "="
           << A.Counters[I];
        AnyCounter = true;
      }
    OS << "\n";
  }
  return OS.str();
}
