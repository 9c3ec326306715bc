//===- support/Trace.h - Hierarchical pipeline tracing ---------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured tracing for the counting pipeline: RAII spans form a tree
/// that mirrors where a query spends its effort — Pugh's §6 "how and why"
/// question asked of a single run.  Each span records wall time plus a
/// small fixed set of counters (constraints in, clauses out, splinters,
/// cache hits/misses, BigInt spills, budget charges) and optional string
/// annotations (budget exhaustion, degradation).
///
/// Thread model (DESIGN.md §12): a TraceSession belongs to the thread that
/// opens it and records only the spans that thread opens while it is the
/// innermost session.  Sessions stack: a traced query inside an open
/// session gets a session of its own, and the outer one resumes when it
/// ends.  No state is shared between threads, so nothing here locks.
///
/// Cost model: with no session open (the default) every instrumentation
/// site is one thread-local load and a predictable branch — the ci.sh
/// trace leg gates this at <= 1% on bench_pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_SUPPORT_TRACE_H
#define OMEGA_SUPPORT_TRACE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace omega {

/// Per-span counters.  The enum indexes a fixed array in every span, so
/// adding a counter is O(1) space per span and needs no per-site strings.
enum class TraceCounter : unsigned {
  ConstraintsIn,  ///< Constraints entering the phase.
  ClausesIn,      ///< Clauses (or clause pairs) entering the phase.
  ClausesOut,     ///< Clauses leaving the phase.
  Splinters,      ///< Splinters produced (§2.3.3).
  CacheHits,      ///< Conjunct-cache hits charged to this span.
  CacheMisses,    ///< Conjunct-cache misses charged to this span.
  BigIntSpills,   ///< Limb representations materialized under this span.
  BudgetCharges,  ///< Budget charge/checkpoint calls under this span.
};
constexpr unsigned NumTraceCounters = 8;

class TraceSession;

namespace trace_detail {
/// The session recording on this thread; null when tracing is off.  Read
/// by every instrumentation site, so it is constant-initialized and
/// visible here: the check compiles to a TLS load, not a wrapper call.
inline thread_local TraceSession *ActiveSession = nullptr;
} // namespace trace_detail

/// True iff a TraceSession is recording on this thread.  The single cheap
/// check every tracing site is gated on.
inline bool tracingEnabled() { return trace_detail::ActiveSession != nullptr; }

/// One completed span, as exported.
struct TraceSpanRecord {
  uint64_t Id = 0;     ///< Unique per trace session, starts at 1.
  uint64_t Parent = 0; ///< Id of the parent span; 0 = root.
  const char *Name = nullptr; ///< Static phase name ("simplify", ...).
  uint64_t StartNs = 0, DurNs = 0; ///< Relative to the session's start.
  uint64_t Counters[NumTraceCounters] = {};
  /// Rare string notes, e.g. {"budget_trip", "splinters=8 at projection"}.
  std::vector<std::pair<const char *, std::string>> Annotations;
};

/// Everything one tracing session collected; returned by
/// TraceSession::data().
struct TraceData {
  std::vector<TraceSpanRecord> Spans; ///< Sorted by StartNs.
  uint64_t Dropped = 0; ///< Spans lost to ring-buffer overwrite.

  /// Chrome trace_event JSON (load in chrome://tracing or Perfetto):
  /// one complete ("ph":"X") event per span, counters and parent id under
  /// "args".  Always a single JSON object that json.load()s.
  std::string toChromeJson() const;

  /// Human-readable per-phase aggregation: span count, total and *self*
  /// wall time (total minus time in child spans), and counter sums.
  std::string toSummary() const;

  /// The record with the given id, or nullptr.
  const TraceSpanRecord *find(uint64_t Id) const;
};

/// Adds to a counter of the innermost open span of this thread's session
/// (no-op when tracing is off or no span is open).  This is how leaf
/// subsystems — the conjunct cache, BigInt spills, budget charges —
/// attribute events to whichever phase is running without knowing about
/// it.
void traceCount(TraceCounter C, uint64_t N = 1);

/// Annotates the innermost open span of this thread's session (same
/// contract as traceCount).  Used for budget exhaustion and degradation
/// notes.
void traceAnnotate(const char *Key, std::string Value);

/// Id of the innermost open span of this thread's session (0 when none /
/// tracing off).
uint64_t currentTraceSpan();

/// RAII: records the spans this thread opens for the session's lifetime.
/// Construction installs the session as this thread's recorder, and
/// destruction restores whichever session (or none) was recording before,
/// so sessions nest like the stack objects they are.  Spans opened inside
/// a session must close before it ends (stack objects guarantee this).
class TraceSession {
public:
  TraceSession();
  ~TraceSession();

  /// The spans completed so far, sorted by start time.  Spans still open
  /// are not included.
  std::shared_ptr<const TraceData> data() const;

  TraceSession(const TraceSession &) = delete;
  TraceSession &operator=(const TraceSession &) = delete;

private:
  friend class TraceSpan;
  friend void traceCount(TraceCounter C, uint64_t N);
  friend void traceAnnotate(const char *Key, std::string Value);
  friend uint64_t currentTraceSpan();

  size_t open(const char *Name);
  void close();
  /// The innermost open span of this thread's session, or null.
  static TraceSpanRecord *innermost();

  TraceSession *Prev;
  uint64_t EpochNs;
  uint64_t NextId = 1;
  /// Records of the spans open on this thread, innermost last.
  std::vector<TraceSpanRecord> Open;
  /// Completed spans: a ring that overwrites oldest-first once full.
  std::vector<TraceSpanRecord> Done;
  size_t Head = 0;      ///< Next overwrite position once Done is full.
  uint64_t Dropped = 0; ///< Records overwritten.
};

/// RAII span.  Constructing with tracing disabled is the fast path: one
/// thread-local load, no id allocation, destructor does nothing.  Spans
/// must be strictly nested per thread (stack objects guarantee this).
/// Name must point to storage that outlives the session (string literals).
class TraceSpan {
public:
  explicit TraceSpan(const char *Name)
      : Session(trace_detail::ActiveSession),
        Slot(Session ? Session->open(Name) : 0) {}
  ~TraceSpan() {
    if (Session)
      Session->close();
  }

  /// True when this span is live (tracing was enabled at construction).
  bool active() const { return Session != nullptr; }

  /// Adds to one of this span's counters.  No-op when inactive.
  void count(TraceCounter C, uint64_t N = 1);

  /// Attaches a key=value note.  Key must be a string literal.
  void annotate(const char *Key, std::string Value);

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

private:
  /// The session this span records into; null when tracing was off.
  TraceSession *Session;
  /// This span's index in Session->Open.
  size_t Slot;
};

} // namespace omega

#endif // OMEGA_SUPPORT_TRACE_H
