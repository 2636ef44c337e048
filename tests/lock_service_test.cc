// Lock service semantics: shared/exclusive compatibility, FIFO fairness,
// per-resource independence, and network-delay behaviour.

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulation.h"
#include "view/lock_service.h"

namespace mvstore::view {
namespace {

struct Fixture {
  Fixture() : locks(&sim) {}
  sim::Simulation sim;
  LockService locks;
};

TEST(LockServiceTest, ExclusiveExcludesEveryone) {
  Fixture f;
  std::vector<int> order;
  f.locks.Acquire(0, "r", LockMode::kExclusive, [&] { order.push_back(1); });
  f.locks.Acquire(1, "r", LockMode::kExclusive, [&] { order.push_back(2); });
  f.locks.Acquire(2, "r", LockMode::kShared, [&] { order.push_back(3); });
  f.sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1}));

  f.locks.Release(0, "r", LockMode::kExclusive);
  f.sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  f.locks.Release(1, "r", LockMode::kExclusive);
  f.sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(LockServiceTest, SharedLocksCoexist) {
  Fixture f;
  int granted = 0;
  for (int i = 0; i < 5; ++i) {
    f.locks.Acquire(static_cast<sim::EndpointId>(i), "r", LockMode::kShared,
                    [&granted] { ++granted; });
  }
  f.sim.Run();
  EXPECT_EQ(granted, 5);
  EXPECT_EQ(f.locks.grants(), 5u);
  EXPECT_EQ(f.locks.waits(), 0u);
}

TEST(LockServiceTest, ExclusiveWaitsForAllSharedHolders) {
  Fixture f;
  bool exclusive_granted = false;
  f.locks.Acquire(0, "r", LockMode::kShared, [] {});
  f.locks.Acquire(1, "r", LockMode::kShared, [] {});
  f.sim.Run();
  f.locks.Acquire(2, "r", LockMode::kExclusive,
                  [&] { exclusive_granted = true; });
  f.sim.Run();
  EXPECT_FALSE(exclusive_granted);
  f.locks.Release(0, "r", LockMode::kShared);
  f.sim.Run();
  EXPECT_FALSE(exclusive_granted);
  f.locks.Release(1, "r", LockMode::kShared);
  f.sim.Run();
  EXPECT_TRUE(exclusive_granted);
}

TEST(LockServiceTest, FifoPreventsSharedStreamStarvingExclusive) {
  Fixture f;
  std::vector<char> order;
  f.locks.Acquire(0, "r", LockMode::kShared, [&] { order.push_back('a'); });
  f.sim.Run();
  f.locks.Acquire(1, "r", LockMode::kExclusive,
                  [&] { order.push_back('X'); });
  f.sim.Run();
  // A later shared request must queue BEHIND the waiting exclusive.
  f.locks.Acquire(2, "r", LockMode::kShared, [&] { order.push_back('b'); });
  f.sim.Run();
  EXPECT_EQ(order, (std::vector<char>{'a'}));
  f.locks.Release(0, "r", LockMode::kShared);
  f.sim.Run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'X'}));
  f.locks.Release(1, "r", LockMode::kExclusive);
  f.sim.Run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'X', 'b'}));
}

TEST(LockServiceTest, ResourcesAreIndependent) {
  Fixture f;
  int granted = 0;
  f.locks.Acquire(0, "r1", LockMode::kExclusive, [&granted] { ++granted; });
  f.locks.Acquire(1, "r2", LockMode::kExclusive, [&granted] { ++granted; });
  f.sim.Run();
  EXPECT_EQ(granted, 2);
}

TEST(LockServiceTest, GrantCrossesTheNetwork) {
  Fixture f;
  SimTime granted_at = -1;
  f.sim.At(0, [&] {
    f.locks.Acquire(0, "r", LockMode::kShared,
                    [&] { granted_at = f.sim.Now(); });
  });
  f.sim.Run();
  // Request + grant = two network hops: strictly positive virtual time.
  EXPECT_GT(granted_at, 0);
}

TEST(LockServiceTest, WouldGrantImmediatelyReflectsState) {
  Fixture f;
  EXPECT_TRUE(f.locks.WouldGrantImmediately("r", LockMode::kExclusive));
  f.locks.Acquire(0, "r", LockMode::kShared, [] {});
  f.sim.Run();
  EXPECT_TRUE(f.locks.WouldGrantImmediately("r", LockMode::kShared));
  EXPECT_FALSE(f.locks.WouldGrantImmediately("r", LockMode::kExclusive));
  f.locks.Release(0, "r", LockMode::kShared);
  f.sim.Run();
  EXPECT_TRUE(f.locks.WouldGrantImmediately("r", LockMode::kExclusive));
}

TEST(LockServiceTest, WaitsCounterCountsQueuedRequests) {
  Fixture f;
  f.locks.Acquire(0, "r", LockMode::kExclusive, [] {});
  f.sim.Run();
  f.locks.Acquire(1, "r", LockMode::kShared, [] {});
  f.sim.Run();
  EXPECT_EQ(f.locks.waits(), 1u);
}

}  // namespace
}  // namespace mvstore::view
