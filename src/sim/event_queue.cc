#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace mvstore::sim {

CalendarQueue::CalendarQueue(SimTime bucket_width, std::size_t num_buckets)
    : width_(bucket_width), buckets_(num_buckets) {
  MVSTORE_CHECK_GT(bucket_width, 0);
  MVSTORE_CHECK_GT(num_buckets, 0u);
  horizon_day_ = static_cast<std::int64_t>(num_buckets);
}

CalendarQueue::Ticket CalendarQueue::Push(SimEvent event) {
  ++size_;
  const std::int64_t day = DayOf(event.time);
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(std::move(event));
    generation_.push_back(0);
  } else {
    slot = free_.back();
    free_.pop_back();
    pool_[slot] = std::move(event);
  }
  const Ticket ticket{slot, generation_[slot]};
  if (day >= horizon_day_) {
    HeapPush(overflow_, slot);
    return ticket;
  }
  // A push may land before the cursor's day: RunUntil peeks ahead, then
  // hands control back with the clock behind the peeked event, and the next
  // scheduled event can be earlier than where the peek walked the cursor.
  // Rewinding is safe — the days between hold no events, or Position()'s
  // min-day check re-skips them.
  if (day < day_) day_ = day;
  HeapPush(BucketOf(day), slot);
  ++ring_size_;
  return ticket;
}

void CalendarQueue::Cancel(Ticket ticket) {
  if (!Live(ticket)) return;
  // Move the closure out before it dies: its captures' destructors may
  // schedule events, which can grow (and move) the pool.
  UniqueFn<void()> dead = std::move(pool_[ticket.slot].fn);
}

bool CalendarQueue::Live(Ticket ticket) const {
  return ticket.slot < pool_.size() &&
         generation_[ticket.slot] == ticket.generation &&
         static_cast<bool>(pool_[ticket.slot].fn);
}

void CalendarQueue::HeapPush(SlotHeap& heap, std::uint32_t slot) {
  heap.push_back(slot);
  std::push_heap(heap.begin(), heap.end(),
                 [this](std::uint32_t a, std::uint32_t b) {
                   return Later(a, b);
                 });
}

std::uint32_t CalendarQueue::HeapPop(SlotHeap& heap) {
  std::pop_heap(heap.begin(), heap.end(),
                [this](std::uint32_t a, std::uint32_t b) {
                  return Later(a, b);
                });
  const std::uint32_t slot = heap.back();
  heap.pop_back();
  return slot;
}

void CalendarQueue::ExtendHorizon() {
  const std::int64_t reach =
      day_ + static_cast<std::int64_t>(buckets_.size());
  if (reach <= horizon_day_) return;
  horizon_day_ = reach;
  while (!overflow_.empty() &&
         DayOf(pool_[overflow_.front()].time) < horizon_day_) {
    const std::uint32_t slot = HeapPop(overflow_);
    HeapPush(BucketOf(DayOf(pool_[slot].time)), slot);
    ++ring_size_;
  }
}

CalendarQueue::SlotHeap* CalendarQueue::Position() {
  if (size_ == 0) return nullptr;
  while (true) {
    if (ring_size_ == 0) {
      // Nothing in the ring: jump the cursor straight to the overflow's
      // earliest day instead of walking empty buckets toward it.
      day_ = std::max(day_, DayOf(pool_[overflow_.front()].time));
      ExtendHorizon();
      continue;
    }
    SlotHeap& bucket = BucketOf(day_);
    // The bucket counts only when its earliest event belongs to the
    // cursor's day — it may also hold events a whole lap (or more) ahead.
    if (!bucket.empty() && DayOf(pool_[bucket.front()].time) == day_) {
      return &bucket;
    }
    ++day_;
    ExtendHorizon();
  }
}

SimTime CalendarQueue::MinTime() {
  SlotHeap* bucket = Position();
  if (bucket == nullptr) return kSimTimeMax;
  return pool_[bucket->front()].time;
}

SimEvent CalendarQueue::PopMin() {
  SlotHeap* bucket = Position();
  MVSTORE_CHECK(bucket != nullptr);
  --ring_size_;
  --size_;
  const std::uint32_t slot = HeapPop(*bucket);
  ++generation_[slot];
  free_.push_back(slot);
  return std::move(pool_[slot]);
}

}  // namespace mvstore::sim
