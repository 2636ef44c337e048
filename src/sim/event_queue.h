// Bucketed calendar queue for simulation events.
//
// The global std::priority_queue the simulator started with pays O(log n)
// comparisons and Event moves per push AND per pop; at millions of pending
// events the constant is what bounds simulated-ops-per-wall-second. Event
// times in this simulator cluster tightly (network latencies and service
// times are tens of microseconds), so a calendar layout fits (Brown,
// "Calendar queues", CACM 1988): the near future is a ring of fixed-width
// day buckets addressed by t / width, and only events beyond the ring's
// horizon (long timers: rpc timeouts, hint replay, anti-entropy ticks) fall
// through to a sorted overflow heap, which migrates into the ring as the
// horizon slides forward.
//
// Storage: every pending event lives in ONE slot pool (a vector of
// SimEvent plus a free list of vacated slots). The bucket heaps and the
// overflow heap hold only u32 slot indices, compared through the pool, so
// a heap sift moves four bytes and migrating an event from the overflow
// into the ring moves only its index. A popped slot goes back on the free
// list and the next push reuses it, so the pool never holds more slots than
// the peak number of simultaneously pending events (capacity at most twice
// that, from vector growth). Per-bucket event storage would instead keep
// the sum of every bucket's own peak alive, which grows with event
// throughput rather than with the pending population.
//
// Cancellation: each slot carries a generation that a pop bumps, so a
// Ticket (slot, generation) names one occupancy of a slot and a stale
// ticket can never touch the event that reused it. Cancel() destroys the
// closure at once and leaves a tombstone — the (time, seq) entry with an
// empty closure — which pops in order and is skipped by the simulator.
//
// Ordering contract (the determinism guarantee): events execute in strictly
// increasing (time, seq) order, where seq is the global scheduling counter
// — exactly the order the old priority queue produced, so seeded runs
// replay byte-identically across the swap. Within a bucket the order is
// kept by the bucket's heap of slot indices; across buckets by the day
// cursor, which only accepts a bucket when its earliest event belongs to
// the cursor's day (a bucket may hold events from several calendar laps);
// against the overflow by the horizon invariant (every overflow event is at
// or past the horizon, which never shrinks).

#ifndef MVSTORE_SIM_EVENT_QUEUE_H_
#define MVSTORE_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "common/unique_fn.h"

namespace mvstore::sim {

struct SimEvent {
  SimTime time = 0;
  std::uint64_t seq = 0;  // tie-breaker: FIFO within an instant
  /// Empty once the event was cancelled (a tombstone).
  UniqueFn<void()> fn;
};

class CalendarQueue {
 public:
  /// Names one pending event: its pool slot and the slot's generation when
  /// the event was pushed.
  struct Ticket {
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
  };

  /// `bucket_width` is the span of virtual time one bucket covers;
  /// `num_buckets` sets how far ahead of the cursor the ring reaches
  /// (width * buckets). Events past that horizon wait in the overflow heap.
  explicit CalendarQueue(SimTime bucket_width = Micros(128),
                         std::size_t num_buckets = 4096);

  CalendarQueue(const CalendarQueue&) = delete;
  CalendarQueue& operator=(const CalendarQueue&) = delete;

  /// Adds an event. The simulator guarantees event.time >= the time of the
  /// last popped event (no scheduling into the past); pushes earlier than
  /// the cursor's current day rewind the cursor, which is safe because the
  /// skipped days hold no events of their own lap.
  Ticket Push(SimEvent event);

  /// Time of the earliest pending event; kSimTimeMax when empty. May slide
  /// the calendar window (hence non-const).
  SimTime MinTime();

  /// Removes and returns the earliest pending event (a tombstone comes back
  /// with an empty closure). Precondition: !empty().
  SimEvent PopMin();

  /// Destroys the closure of the event `ticket` names, if that event is
  /// still pending and not yet cancelled; otherwise a no-op. The event keeps
  /// its place (and counts in size()) until it pops.
  void Cancel(Ticket ticket);

  /// True while the event `ticket` names is pending and not cancelled.
  bool Live(Ticket ticket) const;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  SimTime bucket_width() const { return width_; }

  /// Event slots the pool has allocated: bounded by twice the peak pending
  /// count, whatever the event throughput.
  std::size_t slot_capacity() const { return pool_.capacity(); }

 private:
  /// Binary min-heap of pool slot indices ordered by (time, seq).
  using SlotHeap = std::vector<std::uint32_t>;

  /// Strict (time, seq) order on slots; seq is unique, so this is total.
  /// "Later" makes the std::*_heap algorithms build a min-heap.
  bool Later(std::uint32_t a, std::uint32_t b) const {
    const SimEvent& x = pool_[a];
    const SimEvent& y = pool_[b];
    return x.time != y.time ? x.time > y.time : x.seq > y.seq;
  }
  std::int64_t DayOf(SimTime t) const { return t / width_; }
  SlotHeap& BucketOf(std::int64_t day) {
    return buckets_[static_cast<std::size_t>(day) % buckets_.size()];
  }

  void HeapPush(SlotHeap& heap, std::uint32_t slot);
  std::uint32_t HeapPop(SlotHeap& heap);
  /// Positions `day_` at the day of the globally earliest event and returns
  /// its bucket; nullptr when the queue is empty.
  SlotHeap* Position();
  /// Extends the horizon to cover `day_ + num_buckets` and moves every
  /// overflow event inside it into its bucket.
  void ExtendHorizon();

  SimTime width_;
  /// The slot pool. A vacated slot holds a moved-from event until reused.
  std::vector<SimEvent> pool_;
  /// generation_[slot] is bumped every time the slot's event pops.
  std::vector<std::uint32_t> generation_;
  /// Vacated slots, reused last-in first-out.
  std::vector<std::uint32_t> free_;
  std::vector<SlotHeap> buckets_;
  SlotHeap overflow_;
  /// Pop cursor: the day currently being drained. Pushes may rewind it.
  std::int64_t day_ = 0;
  /// First day NOT admitted to the ring (overflow events are all >= this).
  /// Never shrinks.
  std::int64_t horizon_day_ = 0;
  std::size_t ring_size_ = 0;
  std::size_t size_ = 0;
};

}  // namespace mvstore::sim

#endif  // MVSTORE_SIM_EVENT_QUEUE_H_
