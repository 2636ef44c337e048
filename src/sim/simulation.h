// Discrete-event simulation core.
//
// The entire cluster (servers, network, clients) runs inside one Simulation:
// a virtual clock plus an ordered queue of events. Events scheduled for the
// same instant execute in scheduling order, so runs are fully deterministic.
//
// This is the substrate substitution described in DESIGN.md section 4: the
// paper evaluates on a physical 4-node Cassandra cluster; we reproduce the
// relevant behaviour (message latencies, per-server service demand, and the
// interleavings that make multi-master view maintenance hard) in simulated
// time.
//
// The event queue is a bucketed calendar queue (sim/event_queue.h): O(1)
// amortized push/pop for the near-future events that dominate, a sorted
// overflow heap for long timers, and the exact (time, seq) execution order
// of the priority queue it replaced — seeded runs replay byte-identically.
// Closures are move-only (common/unique_fn.h), so events can carry payload
// buffers without copies and the typical closure schedules allocation-free.

#ifndef MVSTORE_SIM_SIMULATION_H_
#define MVSTORE_SIM_SIMULATION_H_

#include <cstddef>
#include <cstdint>

#include "common/types.h"
#include "common/unique_fn.h"
#include "sim/event_queue.h"

namespace mvstore::sim {

/// Cancellation handle for a scheduled event: the queue, the event's pool
/// slot and the slot's generation. Default-constructed handles are inert.
/// Cancelling after the event fired is a no-op, also when its slot has
/// since been reused by another event.
///
/// Cancelling destroys the closure, and everything it captured, at once;
/// only an inert (time, seq) tombstone stays queued until the fire time. A
/// handle must not be used after its Simulation is destroyed.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the event from running (if it has not run yet).
  void Cancel() {
    if (queue_ != nullptr) queue_->Cancel(ticket_);
  }
  /// True while the event is pending and not cancelled.
  bool active() const { return queue_ != nullptr && queue_->Live(ticket_); }

 private:
  friend class Simulation;
  EventHandle(CalendarQueue* queue, CalendarQueue::Ticket ticket)
      : queue_(queue), ticket_(ticket) {}
  CalendarQueue* queue_ = nullptr;
  CalendarQueue::Ticket ticket_;
};

/// Calendar-queue tuning (see sim/event_queue.h). The defaults suit the
/// microsecond-scale latencies every cluster in this repo simulates; they
/// only affect speed, never event order.
struct SimulationOptions {
  /// Virtual-time span of one calendar bucket.
  SimTime bucket_width = Micros(128);
  /// Ring length; bucket_width * num_buckets is the near-future horizon
  /// (events past it wait in the sorted overflow heap).
  std::size_t num_buckets = 4096;
};

class Simulation {
 public:
  explicit Simulation(SimulationOptions options = SimulationOptions())
      : queue_(options.bucket_width, options.num_buckets) {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current virtual time (microseconds since simulation start).
  SimTime Now() const { return now_; }

  /// Schedules `fn` at absolute virtual time `t` (>= Now()).
  void At(SimTime t, UniqueFn<void()> fn);

  /// Schedules `fn` after a delay of `dt` (>= 0).
  void After(SimTime dt, UniqueFn<void()> fn);

  /// Like After, but returns a handle that can cancel the event.
  EventHandle AfterCancelable(SimTime dt, UniqueFn<void()> fn);

  /// Runs events until the queue is empty.
  void Run();

  /// Executes the next event. Returns false when the queue is empty.
  /// (Cancelled events are skipped but still count as progress.)
  bool Step();

  /// Runs all events with time <= `t`, then sets the clock to `t`.
  void RunUntil(SimTime t);

  /// Runs for `dt` more virtual time.
  void RunFor(SimTime dt) { RunUntil(now_ + dt); }

  /// Total events executed (for tests and debugging).
  std::uint64_t steps() const { return steps_; }

  /// Number of pending events (cancelled-but-unpopped ones included).
  std::size_t pending() const { return queue_.size(); }

 private:
  CalendarQueue::Ticket Push(SimTime t, UniqueFn<void()> fn);

  CalendarQueue queue_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t steps_ = 0;
};

}  // namespace mvstore::sim

#endif  // MVSTORE_SIM_SIMULATION_H_
