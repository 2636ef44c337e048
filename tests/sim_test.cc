// Unit tests for the discrete-event core: event ordering, cancellation,
// the network model (latency, drops, partitions, downed endpoints), and the
// multi-core service queue.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "sim/network.h"
#include "sim/service_queue.h"
#include "sim/simulation.h"

namespace mvstore::sim {
namespace {

TEST(SimulationTest, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.At(30, [&] { order.push_back(3); });
  sim.At(10, [&] { order.push_back(1); });
  sim.At(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
  EXPECT_EQ(sim.steps(), 3u);
}

TEST(SimulationTest, SameInstantIsFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.At(7, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulationTest, AfterSchedulesRelative) {
  Simulation sim;
  SimTime observed = -1;
  sim.At(100, [&] {
    sim.After(50, [&] { observed = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(observed, 150);
}

TEST(SimulationTest, EventsCanScheduleMoreEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sim.After(1, recurse);
  };
  sim.After(1, recurse);
  sim.Run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.Now(), 10);
}

TEST(SimulationTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulation sim;
  int ran = 0;
  sim.At(10, [&] { ++ran; });
  sim.At(20, [&] { ++ran; });
  sim.RunUntil(15);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.Now(), 15);
  sim.RunUntil(25);
  EXPECT_EQ(ran, 2);
}

TEST(SimulationTest, CancelledEventDoesNotRun) {
  Simulation sim;
  bool ran = false;
  EventHandle handle = sim.AfterCancelable(10, [&] { ran = true; });
  EXPECT_TRUE(handle.active());
  handle.Cancel();
  EXPECT_FALSE(handle.active());
  sim.Run();
  EXPECT_FALSE(ran);
}

TEST(SimulationTest, CancelAfterFireIsNoop) {
  Simulation sim;
  bool ran = false;
  EventHandle handle = sim.AfterCancelable(10, [&] { ran = true; });
  sim.Run();
  EXPECT_TRUE(ran);
  handle.Cancel();  // must not crash
}

TEST(SimulationTest, CancelReleasesTheClosureBeforeItsFireTime) {
  Simulation sim;
  auto payload = std::make_shared<int>(7);
  std::weak_ptr<int> watch = payload;
  EventHandle handle =
      sim.AfterCancelable(Micros(5000), [payload = std::move(payload)] {});
  sim.RunFor(Micros(10));
  EXPECT_FALSE(watch.expired());
  handle.Cancel();
  // The captures die with the cancel, not at the fire time; the inert
  // tombstone still counts as pending until it pops.
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_EQ(sim.steps(), 0u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulationTest, StaleHandleCannotCancelTheSlotsNextEvent) {
  Simulation sim;
  int first = 0;
  int second = 0;
  int third = 0;
  EventHandle stale = sim.AfterCancelable(10, [&] { ++first; });
  sim.Run();
  EXPECT_EQ(first, 1);
  EXPECT_FALSE(stale.active());
  // The fired event's slot is reused by the next one scheduled.
  EventHandle fresh = sim.AfterCancelable(10, [&] { ++second; });
  stale.Cancel();
  EXPECT_TRUE(fresh.active());
  sim.Run();
  EXPECT_EQ(second, 1);
  // Same for a plain (non-cancelable) event in the reused slot.
  sim.After(10, [&] { ++third; });
  stale.Cancel();
  fresh.Cancel();
  sim.Run();
  EXPECT_EQ(third, 1);
}

TEST(SimulationTest, StepExecutesOneEvent) {
  Simulation sim;
  int ran = 0;
  sim.At(1, [&] { ++ran; });
  sim.At(2, [&] { ++ran; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(ran, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(NetworkTest, DeliversAfterLatency) {
  Simulation sim;
  NetworkConfig config;
  config.base_latency = 100;
  config.jitter_mean = 0;
  Network net(&sim, Rng(1), config);
  SimTime delivered_at = -1;
  net.Send(0, 1, [&] { delivered_at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(delivered_at, 100);
}

TEST(NetworkTest, JitterAddsVariableDelay) {
  Simulation sim;
  NetworkConfig config;
  config.base_latency = 100;
  config.jitter_mean = 50;
  Network net(&sim, Rng(2), config);
  std::vector<SimTime> deliveries;
  for (int i = 0; i < 50; ++i) {
    net.Send(0, 1, [&] { deliveries.push_back(sim.Now()); });
  }
  sim.Run();
  ASSERT_EQ(deliveries.size(), 50u);
  bool saw_variation = false;
  for (SimTime t : deliveries) {
    EXPECT_GE(t, 100);
    if (t != deliveries[0]) saw_variation = true;
  }
  EXPECT_TRUE(saw_variation);
}

TEST(NetworkTest, SelfSendStillAsynchronous) {
  Simulation sim;
  Network net(&sim, Rng(3), NetworkConfig{});
  bool delivered = false;
  net.Send(2, 2, [&] { delivered = true; });
  EXPECT_FALSE(delivered) << "self-sends must go through the event queue";
  sim.Run();
  EXPECT_TRUE(delivered);
}

TEST(NetworkTest, DropProbabilityDropsEverythingAtOne) {
  Simulation sim;
  NetworkConfig config;
  config.drop_probability = 1.0;
  Network net(&sim, Rng(4), config);
  bool delivered = false;
  net.Send(0, 1, [&] { delivered = true; });
  sim.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.messages_dropped(), 1u);
}

TEST(NetworkTest, PartitionCutsBothDirectionsAndRestores) {
  Simulation sim;
  Network net(&sim, Rng(5), NetworkConfig{});
  net.PartitionLink(0, 1);
  int delivered = 0;
  net.Send(0, 1, [&] { ++delivered; });
  net.Send(1, 0, [&] { ++delivered; });
  net.Send(0, 2, [&] { ++delivered; });  // unaffected link
  sim.Run();
  EXPECT_EQ(delivered, 1);

  net.RestoreLink(0, 1);
  net.Send(0, 1, [&] { ++delivered; });
  sim.Run();
  EXPECT_EQ(delivered, 2);
}

TEST(NetworkTest, DownEndpointDropsAllTraffic) {
  Simulation sim;
  Network net(&sim, Rng(6), NetworkConfig{});
  net.SetEndpointDown(1, true);
  EXPECT_TRUE(net.IsEndpointDown(1));
  int delivered = 0;
  net.Send(0, 1, [&] { ++delivered; });
  net.Send(1, 2, [&] { ++delivered; });
  sim.Run();
  EXPECT_EQ(delivered, 0);
  net.SetEndpointDown(1, false);
  net.Send(0, 1, [&] { ++delivered; });
  sim.Run();
  EXPECT_EQ(delivered, 1);
}

TEST(ServiceQueueTest, SingleCoreSerializesWork) {
  Simulation sim;
  ServiceQueue queue(&sim, 1);
  std::vector<SimTime> completions;
  sim.At(0, [&] {
    for (int i = 0; i < 3; ++i) {
      queue.Submit(100, [&] { completions.push_back(sim.Now()); });
    }
  });
  sim.Run();
  EXPECT_EQ(completions, (std::vector<SimTime>{100, 200, 300}));
}

TEST(ServiceQueueTest, MultiCoreRunsInParallel) {
  Simulation sim;
  ServiceQueue queue(&sim, 2);
  std::vector<SimTime> completions;
  sim.At(0, [&] {
    for (int i = 0; i < 4; ++i) {
      queue.Submit(100, [&] { completions.push_back(sim.Now()); });
    }
  });
  sim.Run();
  // Two cores: pairs complete at 100 and 200.
  EXPECT_EQ(completions, (std::vector<SimTime>{100, 100, 200, 200}));
}

TEST(ServiceQueueTest, IdleQueueStartsImmediately) {
  Simulation sim;
  ServiceQueue queue(&sim, 2);
  sim.At(500, [&] {
    EXPECT_EQ(queue.QueueDelay(), 0);
    queue.Submit(10, [] {});
  });
  sim.Run();
  EXPECT_EQ(queue.busy_time(), 10);
  EXPECT_EQ(queue.tasks(), 1u);
}

TEST(ServiceQueueTest, QueueDelayReflectsBacklog) {
  Simulation sim;
  ServiceQueue queue(&sim, 1);
  sim.At(0, [&] {
    queue.Submit(100, [] {});
    EXPECT_EQ(queue.QueueDelay(), 100);
  });
  sim.Run();
}

}  // namespace
}  // namespace mvstore::sim
