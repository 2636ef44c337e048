#include "sim/simulation.h"

#include <utility>

#include "common/logging.h"

namespace mvstore::sim {

CalendarQueue::Ticket Simulation::Push(SimTime t, UniqueFn<void()> fn) {
  MVSTORE_CHECK_GE(t, now_);
  // An empty closure marks a cancelled event; a live one must not be empty.
  MVSTORE_CHECK(static_cast<bool>(fn));
  return queue_.Push(SimEvent{t, next_seq_++, std::move(fn)});
}

void Simulation::At(SimTime t, UniqueFn<void()> fn) { Push(t, std::move(fn)); }

void Simulation::After(SimTime dt, UniqueFn<void()> fn) {
  MVSTORE_CHECK_GE(dt, 0);
  Push(now_ + dt, std::move(fn));
}

EventHandle Simulation::AfterCancelable(SimTime dt, UniqueFn<void()> fn) {
  MVSTORE_CHECK_GE(dt, 0);
  return EventHandle(&queue_, Push(now_ + dt, std::move(fn)));
}

bool Simulation::Step() {
  if (queue_.empty()) return false;
  SimEvent ev = queue_.PopMin();
  now_ = ev.time;
  if (ev.fn) {  // a cancelled event is an empty tombstone
    ++steps_;
    ev.fn();
  }
  return true;
}

void Simulation::Run() {
  while (Step()) {
  }
}

void Simulation::RunUntil(SimTime t) {
  MVSTORE_CHECK_GE(t, now_);
  while (!queue_.empty() && queue_.MinTime() <= t) Step();
  now_ = t;
}

}  // namespace mvstore::sim
