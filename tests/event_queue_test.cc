// The calendar event queue: must produce exactly the (time, seq) order the
// old global priority queue produced — FIFO within an instant, overflow
// events migrating into the ring as the horizon slides, cursor rewinds when
// a pop's successor schedules into an earlier day — because seeded runs
// replay byte-identically only if the swap is order-invisible.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"

namespace mvstore::sim {
namespace {

SimEvent Event(SimTime t, std::uint64_t seq) {
  return SimEvent{t, seq, [] {}};
}

TEST(CalendarQueueTest, EmptyQueueReportsMaxTime) {
  CalendarQueue q(Micros(10), 8);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.MinTime(), kSimTimeMax);
}

TEST(CalendarQueueTest, SameInstantPopsInSeqOrder) {
  CalendarQueue q(Micros(10), 8);
  // Insert out of seq order at one instant; pops must come back FIFO.
  q.Push(Event(Micros(5), 2));
  q.Push(Event(Micros(5), 0));
  q.Push(Event(Micros(5), 1));
  EXPECT_EQ(q.PopMin().seq, 0u);
  EXPECT_EQ(q.PopMin().seq, 1u);
  EXPECT_EQ(q.PopMin().seq, 2u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTest, OverflowEventsMigrateIntoRing) {
  // Horizon is 10us * 4 buckets = 40us; everything past it starts in the
  // overflow heap and must surface in order as the window slides.
  CalendarQueue q(Micros(10), 4);
  std::vector<SimTime> times = {Micros(2),    Micros(39),   Micros(41),
                                Micros(400),  Micros(4000), Micros(40000),
                                Micros(40001)};
  std::uint64_t seq = 0;
  for (SimTime t : times) q.Push(Event(t, seq++));
  std::vector<SimTime> got;
  while (!q.empty()) {
    EXPECT_EQ(q.MinTime(), times[got.size()]);
    got.push_back(q.PopMin().time);
  }
  EXPECT_EQ(got, times);
}

TEST(CalendarQueueTest, PushBehindCursorRewinds) {
  CalendarQueue q(Micros(10), 8);
  q.Push(Event(Micros(55), 0));
  EXPECT_EQ(q.PopMin().time, Micros(55));  // cursor is now on day 5
  // A consequence of popping at t=55 schedules at t=57, same day...
  q.Push(Event(Micros(57), 1));
  // ...and another at t=56 lands ahead of a later-pushed t=70.
  q.Push(Event(Micros(70), 2));
  q.Push(Event(Micros(56), 3));
  EXPECT_EQ(q.PopMin().time, Micros(56));
  EXPECT_EQ(q.PopMin().time, Micros(57));
  EXPECT_EQ(q.PopMin().time, Micros(70));
}

TEST(CalendarQueueTest, FuzzMatchesReferenceOrder) {
  // Interleaved pushes and pops against a sorted reference model, with
  // monotone non-decreasing push times (the simulator never schedules into
  // the past) spanning many calendar laps and the overflow heap.
  Rng rng(7);
  CalendarQueue q(Micros(16), 8);
  std::vector<std::pair<SimTime, std::uint64_t>> model;
  std::uint64_t seq = 0;
  SimTime now = 0;
  for (int round = 0; round < 20000; ++round) {
    const bool push = model.empty() || rng.UniformInt(0, 99) < 55;
    if (push) {
      // Mostly near-future, occasionally far past the horizon (timeouts).
      const SimTime delay = rng.UniformInt(0, 99) < 90
                                ? Micros(rng.UniformInt(0, 200))
                                : Micros(rng.UniformInt(1000, 100000));
      q.Push(Event(now + delay, seq));
      model.emplace_back(now + delay, seq);
      ++seq;
    } else {
      auto min_it = std::min_element(model.begin(), model.end());
      const SimEvent popped = q.PopMin();
      EXPECT_EQ(popped.time, min_it->first);
      EXPECT_EQ(popped.seq, min_it->second);
      now = popped.time;
      model.erase(min_it);
    }
    EXPECT_EQ(q.size(), model.size());
  }
  while (!model.empty()) {
    auto min_it = std::min_element(model.begin(), model.end());
    EXPECT_EQ(q.MinTime(), min_it->first);
    const SimEvent popped = q.PopMin();
    EXPECT_EQ(popped.seq, min_it->second);
    model.erase(min_it);
  }
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTest, SlotPoolIsBoundedByPeakPendingNotThroughput) {
  // A steady pending population — mostly near-future events plus long
  // timers that start in the overflow heap — driven over many laps of the
  // ring. Popped slots are reused, so the pool stays within vector growth
  // (2x) of the peak pending count however many events pass through.
  CalendarQueue q(Micros(16), 64);  // horizon: 1024 us
  const SimTime horizon = Micros(16) * 64;
  Rng rng(11);
  std::uint64_t seq = 0;
  for (int i = 0; i < 300; ++i) {
    q.Push(Event(Micros(rng.UniformInt(0, 1000)), seq++));
  }
  for (int i = 0; i < 40; ++i) {
    q.Push(Event(Micros(rng.UniformInt(5000, 20000)), seq++));
  }
  std::size_t peak = q.size();
  std::uint64_t popped = 0;
  SimTime now = 0;
  while (now < 20 * horizon) {
    const SimEvent event = q.PopMin();
    ASSERT_GE(event.time, now);
    now = event.time;
    ++popped;
    // Replace it in kind: one in eight is a long (overflow) timer.
    const SimTime delay = rng.UniformInt(0, 7) == 0
                              ? Micros(rng.UniformInt(5000, 20000))
                              : Micros(rng.UniformInt(0, 1000));
    q.Push(Event(now + delay, seq++));
    peak = std::max(peak, q.size());
  }
  EXPECT_GT(popped, 10 * peak);  // many slot reuses per slot
  EXPECT_LE(q.slot_capacity(), 2 * peak);
}

TEST(CalendarQueueSimulationTest, TinyRingPreservesExecutionOrder) {
  // The same schedule must execute identically under a pathologically small
  // ring (everything overflows) and the default geometry.
  auto run = [](SimulationOptions options) {
    Simulation sim(options);
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.At(Micros((i * 7919) % 1000), [&order, i] { order.push_back(i); });
    }
    sim.At(Micros(500000), [&order] { order.push_back(-1); });
    sim.Run();
    return order;
  };
  SimulationOptions tiny;
  tiny.bucket_width = Micros(1);
  tiny.num_buckets = 2;
  EXPECT_EQ(run(tiny), run(SimulationOptions()));
}

TEST(CalendarQueueSimulationTest, CancelledOverflowEventStaysDead) {
  SimulationOptions tiny;
  tiny.bucket_width = Micros(2);
  tiny.num_buckets = 2;
  Simulation sim(tiny);
  bool ran = false;
  // Far past the horizon: the handle must keep working after the event
  // migrates from the overflow heap into the ring.
  EventHandle handle = sim.AfterCancelable(Micros(10000), [&ran] { ran = true; });
  sim.After(Micros(5000), [&handle] { handle.Cancel(); });
  sim.Run();
  EXPECT_FALSE(ran);
}

TEST(CalendarQueueSimulationTest, RunUntilAdvancesPastIdleDays) {
  SimulationOptions tiny;
  tiny.bucket_width = Micros(4);
  tiny.num_buckets = 4;
  Simulation sim(tiny);
  int fired = 0;
  sim.At(Micros(3), [&fired] { ++fired; });
  sim.At(Micros(90000), [&fired] { ++fired; });
  sim.RunUntil(Micros(50000));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), Micros(50000));
  // Scheduling "now" after the idle fast-forward still works (the cursor
  // rewound from the far-future day it peeked at).
  sim.At(Micros(50001), [&fired] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 3);
}

}  // namespace
}  // namespace mvstore::sim
