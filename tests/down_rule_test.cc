// The view engine's down rule: a propagation task dies with the server that
// holds its volatile state (its home) — the origin, until a dedicated
// handoff lands; then the propagator that queued it — whether that server
// crashes or leaves, in every propagation mode. And in dedicated-propagator
// mode a handoff lost at a dead propagator is re-sent until it lands, and a
// task whose primary moved is handed over the network again.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "sim/network.h"
#include "store/client.h"
#include "tests/test_util.h"
#include "view/scrub.h"

namespace mvstore {
namespace {

using store::MembershipState;
using store::PropagationMode;
using test::TestCluster;

constexpr ServerId kPropagator = 1;
constexpr int kRows = 60;

class DownRuleTest : public ::testing::TestWithParam<PropagationMode> {
 protected:
  static store::ClusterConfig Config() {
    store::ClusterConfig config = test::DefaultTestConfig();
    config.propagation_mode = GetParam();
    config.rpc_timeout = Millis(50);
    config.hint_replay_interval = Millis(10);
    // Failed attempts stay parked long enough to be caught parked.
    config.perf.propagation_retry_delay = Millis(20);
    // Recovery: stranded lock holds expire, and each server's owned-range
    // scrub audits the orphaned families.
    config.lock_lease_ttl = Millis(50);
    config.view_scrub_interval = Millis(200);
    return config;
  }

  /// Loads kRows tickets whose base key kPropagator primarily owns, then
  /// updates each of them once from every coordinator, staggered: different
  /// origins cannot coalesce, so each family has a running task and others
  /// queued behind it (at kPropagator, in dedicated-propagator mode). Then
  /// kPropagator loses two of its three peers for longer than rpc_timeout,
  /// so the attempts it runs fail and park, and its row queues back up.
  /// Returns once the partition's hints have replayed; `loaded`, if set,
  /// receives the keys.
  static void BuildBacklogAtPropagator(TestCluster& t,
                                       std::vector<Key>* loaded = nullptr) {
    std::vector<Key> keys;
    for (int k = 0; keys.size() < static_cast<std::size_t>(kRows); ++k) {
      const Key key = "t" + std::to_string(k);
      if (t.cluster.ring().PrimaryFor(key) != kPropagator) continue;
      t.cluster.BootstrapLoadRow("ticket", key,
                                 {{"assigned_to", "a" + std::to_string(k % 3)},
                                  {"status", std::string("open")}},
                                 100 + k);
      keys.push_back(key);
    }
    for (ServerId coordinator : {0, 1, 2, 3}) {
      auto client = t.cluster.NewClient(coordinator);
      for (std::size_t k = 0; k < keys.size(); ++k) {
        client->Put("ticket", keys[k],
                    {{"assigned_to", "c" + std::to_string(coordinator) + "_" +
                                         std::to_string(k % 2)},
                     {"status", "s" + std::to_string(coordinator)}},
                    {}, [](store::WriteResult) {});
      }
      t.cluster.RunFor(Micros(150));
    }
    const store::Metrics& m = t.cluster.metrics();
    while (m.propagations_started < 4 * keys.size()) {
      ASSERT_TRUE(t.cluster.simulation().Step()) << "the burst never started";
    }
    t.cluster.RunFor(Millis(2));
    sim::Network& net = t.cluster.network();
    net.PartitionLink(kPropagator, 2);
    net.PartitionLink(kPropagator, 3);
    t.cluster.RunFor(Millis(70));
    net.RestoreLink(kPropagator, 2);
    net.RestoreLink(kPropagator, 3);
    t.cluster.RunFor(Millis(15));
    ASSERT_EQ(t.cluster.server(kPropagator).hints_outstanding(), 0u);
    ASSERT_GT(m.propagation_failures, 0u) << "no attempt failed and parked";
    ASSERT_GT(t.views->active_propagations(), 0u);
    if (loaded != nullptr) *loaded = std::move(keys);
  }

  /// After scrubs: nothing active, every started propagation ended once,
  /// every intent settled, and the view is Definition 1 of the base table.
  static void ExpectSettled(TestCluster& t) {
    t.Quiesce();
    t.cluster.RunFor(Millis(800));  // > 2 scrub periods on every server
    const store::Metrics& m = t.cluster.metrics();
    EXPECT_EQ(t.views->active_propagations(), 0u);
    EXPECT_EQ(m.propagations_started, m.propagations_completed +
                                          m.propagations_abandoned +
                                          m.propagations_orphaned);
    EXPECT_EQ(t.cluster.freshness().pending_intents(), 0u);
    EXPECT_TRUE(
        view::CheckView(t.cluster, test::TicketView(t.cluster)).clean());
  }
};

INSTANTIATE_TEST_SUITE_P(
    Modes, DownRuleTest,
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

TEST_P(DownRuleTest, LeavingPropagatorOrphansWhatItHolds) {
  TestCluster t(Config());
  BuildBacklogAtPropagator(t);
  // Cut off again, the propagator keeps failing the attempts it holds
  // until its drain deadline forces the leave; the links heal after it.
  t.cluster.network().PartitionLink(kPropagator, 2);
  t.cluster.network().PartitionLink(kPropagator, 3);
  ASSERT_TRUE(t.cluster.DecommissionServer(kPropagator));
  while (t.cluster.server(kPropagator).membership() !=
         MembershipState::kLeft) {
    ASSERT_TRUE(t.cluster.simulation().Step());
  }
  t.cluster.network().RestoreLink(kPropagator, 2);
  t.cluster.network().RestoreLink(kPropagator, 3);
  // What it still held when it left: its own Puts' tasks, and in dedicated
  // mode the tasks queued or running at it.
  EXPECT_GT(t.cluster.metrics().propagations_orphaned, 0u);
  ExpectSettled(t);
}

TEST_P(DownRuleTest, CrashedPropagatorOrphansWhatItHolds) {
  TestCluster t(Config());
  BuildBacklogAtPropagator(t);
  ASSERT_TRUE(t.cluster.CrashServer(kPropagator));
  EXPECT_GT(t.cluster.metrics().propagations_orphaned, 0u);
  t.cluster.RunFor(Millis(100));
  ASSERT_TRUE(t.cluster.RestartServer(kPropagator));
  ExpectSettled(t);
}

// Dedicated-propagator mode only: the one mode whose tasks move between
// servers once dispatched.
class DedicatedDownRuleTest : public DownRuleTest {};

INSTANTIATE_TEST_SUITE_P(
    Modes, DedicatedDownRuleTest,
    ::testing::Values(PropagationMode::kDedicatedPropagators),
    [](const auto&) { return "DedicatedPropagators"; });

// A join moves some of kPropagator's keys to a joiner that crashes at once,
// and their parked tasks wake while it is down. A task whose primary moved
// is handed over the network from kPropagator, which holds it, so the dead
// joiner receives none: when kPropagator crashes too, every task dies with
// it. Once both are back, every family is recovered.
TEST_P(DedicatedDownRuleTest, TaskMovesToANewPrimaryOverTheNetwork) {
  store::ClusterConfig config = Config();
  config.max_servers = 5;  // a spare slot for the joiner
  TestCluster t(config);
  std::vector<Key> keys;
  BuildBacklogAtPropagator(t, &keys);
  const std::optional<ServerId> joiner = t.cluster.JoinServer();
  ASSERT_TRUE(joiner.has_value());
  ASSERT_TRUE(t.cluster.CrashServer(*joiner));
  std::size_t moved = 0;
  for (const Key& key : keys) {
    if (t.cluster.ring().PrimaryFor(key) == *joiner) ++moved;
  }
  ASSERT_GT(moved, 0u) << "the join moved none of the backlog's keys";
  t.cluster.RunFor(Millis(100));  // > propagation_retry_delay: tasks wake

  ASSERT_TRUE(t.cluster.CrashServer(kPropagator));
  EXPECT_EQ(t.views->active_propagations(), 0u)
      << "a task moved to the crashed joiner without a network hop";
  t.cluster.RunFor(Millis(100));
  ASSERT_TRUE(t.cluster.RestartServer(kPropagator));
  ASSERT_TRUE(t.cluster.RestartServer(*joiner));
  ExpectSettled(t);
}

// A task dispatched while its propagator is down: the handoff is dropped at
// the dead endpoint, so the origin re-sends it until it lands after the
// restart, and the task ends like any other.
TEST(DedicatedHandoffTest, HandoffLostAtCrashedPropagatorIsResent) {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.propagation_mode = PropagationMode::kDedicatedPropagators;
  TestCluster t(config);
  ASSERT_TRUE(t.cluster.CrashServer(kPropagator));
  auto client = t.cluster.NewClient(/*coordinator=*/0);
  for (int k = 0; k < 40; ++k) {
    ASSERT_TRUE(client
                    ->PutSync("ticket", "t" + std::to_string(k),
                              {{"assigned_to", "a" + std::to_string(k % 5)},
                               {"status", std::string("open")}},
                              {})
                    .ok());
  }
  ASSERT_TRUE(t.cluster.RestartServer(kPropagator));
  t.cluster.RunFor(Seconds(5));

  // Checked before Quiesce, which would spin forever on a stranded task.
  ASSERT_EQ(t.views->active_propagations(), 0u);
  t.Quiesce();
  const store::Metrics& m = t.cluster.metrics();
  EXPECT_EQ(m.propagations_started, 40u);
  EXPECT_EQ(m.propagations_started, m.propagations_completed +
                                        m.propagations_abandoned +
                                        m.propagations_orphaned);
  EXPECT_EQ(t.cluster.freshness().pending_intents(), 0u);
}

}  // namespace
}  // namespace mvstore
