// The propagation-task lifecycle: every started propagation ends exactly
// once — completed, abandoned, or orphaned by a crash — in every
// propagation mode and crash window, and the tasks coalescing absorbed into
// a winner end (and settle their freshness intents) together with it.

#include <gtest/gtest.h>

#include <string>

#include "store/client.h"
#include "tests/test_util.h"

namespace mvstore {
namespace {

using store::PropagationMode;
using test::TestCluster;

constexpr int kRows = 8;
constexpr int kRounds = 4;

class PropagationLifecycleTest
    : public ::testing::TestWithParam<PropagationMode> {
 protected:
  static store::ClusterConfig Config() {
    store::ClusterConfig config = test::DefaultTestConfig();
    config.propagation_mode = GetParam();
    // Recovery for the crash case: stranded lock holds expire, and each
    // server's owned-range scrub audits the orphaned families.
    config.lock_lease_ttl = Millis(50);
    config.view_scrub_interval = Millis(200);
    return config;
  }

  static void LoadRows(store::Cluster& cluster) {
    for (int k = 0; k < kRows; ++k) {
      cluster.BootstrapLoadRow("ticket", "t" + std::to_string(k),
                               {{"assigned_to", "a" + std::to_string(k % 3)},
                                {"status", std::string("open")}},
                               100 + k);
    }
  }

  /// A same-row burst from one coordinator: kRounds updates of every row,
  /// issued at one instant, so later rounds find the first round's tasks
  /// still waiting out their dispatch delay and coalesce into them.
  static int IssueBurst(store::Client& client) {
    int puts = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (int k = 0; k < kRows; ++k) {
        store::Mutation mutation = {
            {"assigned_to", "b" + std::to_string((k + round) % 5)}};
        if (round % 2 == 1) {
          mutation["status"] = "round" + std::to_string(round);
        }
        client.Put("ticket", "t" + std::to_string(k), mutation, {},
                   [](store::WriteResult) {});
        ++puts;
      }
    }
    return puts;
  }
};

INSTANTIATE_TEST_SUITE_P(
    Modes, PropagationLifecycleTest,
    ::testing::Values(PropagationMode::kUnsynchronized,
                      PropagationMode::kLockService,
                      PropagationMode::kDedicatedPropagators),
    [](const auto& info) {
      switch (info.param) {
        case PropagationMode::kUnsynchronized:
          return "Unsynchronized";
        case PropagationMode::kLockService:
          return "LockService";
        case PropagationMode::kDedicatedPropagators:
          return "DedicatedPropagators";
      }
      return "Unknown";
    });

TEST_P(PropagationLifecycleTest, EveryStartedPropagationEndsOnce) {
  TestCluster t(Config());
  LoadRows(t.cluster);
  auto client = t.cluster.NewClient(/*coordinator=*/0);
  IssueBurst(*client);
  t.Quiesce();

  const store::Metrics& m = t.cluster.metrics();
  EXPECT_GT(m.prop_batched, 0u) << "the burst must coalesce";
  EXPECT_EQ(t.views->active_propagations(), 0u);
  EXPECT_EQ(m.propagations_started,
            m.propagations_completed + m.propagations_abandoned);
  EXPECT_EQ(m.propagations_orphaned, 0u);
  // Absorbed tasks settle their intents with their winner.
  EXPECT_EQ(t.cluster.freshness().pending_intents(), 0u);
}

TEST_P(PropagationLifecycleTest, CrashOrphansAndScrubSettlesEveryIntent) {
  TestCluster t(Config());
  LoadRows(t.cluster);
  auto client = t.cluster.NewClient(/*coordinator=*/0);
  client->set_request_timeout(Millis(100));
  const int puts = IssueBurst(*client);

  // Step until every Put has started its propagation (so none is still in
  // the issue->collection window) and coalescing has merged some of them,
  // then crash the origin with its tasks in flight.
  const store::Metrics& m = t.cluster.metrics();
  while (m.propagations_started < static_cast<std::uint64_t>(puts) ||
         m.prop_batched == 0) {
    ASSERT_TRUE(t.cluster.simulation().Step()) << "the burst never started";
  }
  ASSERT_GT(t.views->active_propagations(), 0u);
  ASSERT_TRUE(t.cluster.CrashServer(0));
  EXPECT_GT(m.propagations_orphaned, 0u);

  t.cluster.RunFor(Millis(100));
  ASSERT_TRUE(t.cluster.RestartServer(0));
  t.Quiesce();
  t.cluster.RunFor(Millis(800));  // > 2 scrub periods on every server

  EXPECT_EQ(t.views->active_propagations(), 0u);
  EXPECT_EQ(m.propagations_started, m.propagations_completed +
                                        m.propagations_abandoned +
                                        m.propagations_orphaned);
  EXPECT_EQ(t.cluster.freshness().pending_intents(), 0u);
}

TEST_P(PropagationLifecycleTest, CrashBeforeCollectionCountsOrphansAsStarted) {
  TestCluster t(Config());
  LoadRows(t.cluster);
  auto client = t.cluster.NewClient(/*coordinator=*/0);
  client->set_request_timeout(Millis(100));
  const int puts = IssueBurst(*client);

  // Crash the origin at the first coalescing, while most of the burst's
  // Puts are still in the issue->collection window: the crash delivers
  // their collected pre-images to a dead coordinator, whose propagations
  // start and are orphaned at once.
  const store::Metrics& m = t.cluster.metrics();
  while (m.prop_batched == 0) {
    ASSERT_TRUE(t.cluster.simulation().Step()) << "the burst never coalesced";
  }
  ASSERT_LT(m.propagations_started, static_cast<std::uint64_t>(puts));
  ASSERT_TRUE(t.cluster.CrashServer(0));
  EXPECT_GT(m.propagations_orphaned, 0u);

  t.cluster.RunFor(Millis(100));
  ASSERT_TRUE(t.cluster.RestartServer(0));
  t.Quiesce();
  t.cluster.RunFor(Millis(800));  // > 2 scrub periods on every server

  EXPECT_EQ(t.views->active_propagations(), 0u);
  EXPECT_EQ(m.propagations_started, m.propagations_completed +
                                        m.propagations_abandoned +
                                        m.propagations_orphaned);
  EXPECT_EQ(t.cluster.freshness().pending_intents(), 0u);
}

}  // namespace
}  // namespace mvstore
