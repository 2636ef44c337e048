// Causal tracing for simulated operations.
//
// A trace is a tree of spans minted at a client operation and carried
// through every asynchronous hop the operation causes: coordinator service,
// replica messages, hinted handoff, anti-entropy, and view-propagation tasks
// (including chain hops and lock waits). Spans record simulated timestamps
// into a bounded per-cluster ring buffer, so one ViewGet-after-Put can be
// reconstructed as a complete causal timeline — and because everything is
// simulated, two same-seed runs produce identical traces.
//
// Propagation is hybrid. The Tracer keeps an AMBIENT current context, saved
// and restored by the RAII Scope: the network and the service queues wrap
// each delivery in a Scope for the hop's span, so a chain of sends and
// enqueues nests automatically with no per-call plumbing. The ambient
// context does NOT survive a bare Simulation::After (a timer is not a causal
// hop); code that defers work across a timer and wants the causality edge
// captures the context explicitly (propagation dispatch, retries, read
// spins, freshness waits).

#ifndef MVSTORE_COMMON_TRACE_H_
#define MVSTORE_COMMON_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace mvstore {

using TraceId = std::uint64_t;  ///< 0 = not traced
using SpanId = std::uint64_t;   ///< 0 = none

/// The pair that travels with work: which trace, and which span new child
/// spans should hang off.
struct TraceContext {
  TraceId trace = 0;
  SpanId span = 0;
  explicit operator bool() const { return trace != 0; }
};

/// One recorded span. `end == 0` means the span never finished (dropped
/// message, crashed server, still running at collection time).
struct TraceEvent {
  TraceId trace = 0;
  SpanId span = 0;
  SpanId parent = 0;  ///< 0 = root of its trace
  std::string name;
  int where = -1;  ///< endpoint id the span executed at; -1 = unknown/client
  SimTime start = 0;
  SimTime end = 0;
  std::string note;
};

class Tracer {
 public:
  /// `capacity` bounds the event ring buffer; 0 disables tracing entirely
  /// (every operation becomes a no-op returning a null context).
  explicit Tracer(std::size_t capacity = 65536);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return capacity_ > 0; }

  /// Opens a new root span in a fresh trace.
  TraceContext StartTrace(const std::string& name, int where, SimTime now);

  /// Opens a child span of `parent`. Null parent (or disabled tracer) is a
  /// no-op returning a null context, so call sites need no guards.
  TraceContext StartSpan(const TraceContext& parent, const std::string& name,
                         int where, SimTime now);

  void EndSpan(const TraceContext& ctx, SimTime now);

  /// Appends a note to the span's annotation string ("; "-separated).
  void Annotate(const TraceContext& ctx, const std::string& note);

  /// An instant marker: a child span of `parent` opened and ended at `now`,
  /// annotated with `note` unless it is empty. No-op for a null parent.
  void Mark(const TraceContext& parent, const std::string& name, int where,
            SimTime now, const std::string& note);

  /// The ambient context new hops inherit (see file comment).
  const TraceContext& current() const { return current_; }

  /// RAII installer for the ambient context.
  class Scope {
   public:
    Scope(Tracer* tracer, const TraceContext& ctx) : tracer_(tracer) {
      if (tracer_ != nullptr) {
        saved_ = tracer_->current_;
        tracer_->current_ = ctx;
      }
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->current_ = saved_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    TraceContext saved_;
  };

  /// All still-buffered events of `trace`, ordered by (start, span id).
  std::vector<TraceEvent> Collect(TraceId trace) const;

  /// True when the trace is non-empty, has exactly one root, and every
  /// non-root event's parent is itself present — i.e. the events form one
  /// connected span tree.
  bool IsConnected(TraceId trace) const;

  /// Deterministic JSON dump: {"trace": id, "events": [...]}.
  std::string DumpJson(TraceId trace) const;

  std::size_t capacity() const { return capacity_; }
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t evicted() const { return evicted_; }

 private:
  /// Slot of a still-buffered span, or nullptr if evicted/unknown.
  TraceEvent* Find(const TraceContext& ctx);

  TraceContext Append(TraceEvent event);

  std::size_t capacity_;
  TraceContext current_;
  std::uint64_t next_trace_ = 0;
  std::uint64_t next_span_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t evicted_ = 0;
  /// Fixed-capacity ring. Span ids are minted sequentially and appended in
  /// order, so span s lives in slot (s - 1) % capacity until a newer span
  /// evicts it.
  std::vector<TraceEvent> ring_;
};

}  // namespace mvstore

#endif  // MVSTORE_COMMON_TRACE_H_
