// Elastic membership, end to end: runtime bootstrap (join syncs the
// joiner's ranges, resumable across a crash), decommission (ranges sync to
// their new owners in two passes, hinted handoffs drain before the server
// leaves), hint rerouting, in-flight op retargeting, coordination rejection
// while draining, and a join -> leave -> rejoin lifecycle that must
// converge.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/nemesis.h"
#include "store/client.h"
#include "store/cluster.h"
#include "store/config.h"
#include "store/ring.h"
#include "store/server.h"
#include "tests/test_util.h"
#include "view/scrub.h"

namespace mvstore {
namespace {

using store::MembershipState;

store::ClusterConfig ChurnConfig() {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.max_servers = 6;  // spare slots for joins
  config.anti_entropy_interval = Millis(200);
  config.hint_replay_interval = Millis(100);
  config.rpc_timeout = Millis(50);
  return config;
}

/// Runs the simulation until `server` reaches `state` (or fails the test),
/// for up to 40 s: past the 30 s drain deadline of a forced decommission.
void AwaitMembership(store::Cluster& cluster, ServerId server,
                     MembershipState state) {
  for (int i = 0; i < 400; ++i) {
    if (cluster.server(server).membership() == state) return;
    cluster.RunFor(Millis(100));
  }
  FAIL() << "server " << server << " never reached the expected state";
}

/// Keys of `table` that `server` holds locally.
std::set<Key> LocalKeys(store::Cluster& cluster, ServerId server,
                        const std::string& table) {
  std::set<Key> keys;
  cluster.server(server).EngineFor(table).ForEach(
      [&](const Key& key, const storage::Row&) { keys.insert(key); });
  return keys;
}

TEST(MembershipTest, JoinStreamsOwnedRowsAndStartsServing) {
  test::TestCluster t(ChurnConfig(), test::TicketSchema(false, false));
  for (int k = 0; k < 120; ++k) {
    t.cluster.BootstrapLoadRow("ticket", "t" + std::to_string(k),
                               {{"status", std::string("open")}}, 100 + k);
  }

  auto joiner = t.cluster.JoinServer();
  ASSERT_TRUE(joiner.has_value());
  EXPECT_EQ(*joiner, 4);
  EXPECT_EQ(t.cluster.server(*joiner).membership(), MembershipState::kJoining);
  EXPECT_TRUE(t.cluster.ring().IsMember(*joiner));

  AwaitMembership(t.cluster, *joiner, MembershipState::kServing);
  const store::Metrics& m = t.cluster.metrics();
  EXPECT_EQ(m.member_joins_started, 1u);
  EXPECT_EQ(m.member_joins_completed, 1u);
  EXPECT_GT(m.member_ranges_streamed, 0u);
  EXPECT_GT(m.member_rows_streamed, 0u);

  // Every key the joiner now replicates was streamed onto it.
  const std::set<Key> local = LocalKeys(t.cluster, *joiner, "ticket");
  int owned = 0;
  for (int k = 0; k < 120; ++k) {
    const Key key = "t" + std::to_string(k);
    const auto replicas = t.cluster.ring().ReplicasFor(key, 3);
    if (std::find(replicas.begin(), replicas.end(), *joiner) ==
        replicas.end()) {
      continue;
    }
    ++owned;
    EXPECT_TRUE(local.count(key) != 0) << "joiner missing owned key " << key;
  }
  EXPECT_GT(owned, 0) << "joiner took over no keys at all";
}

TEST(MembershipTest, DecommissionStreamsRangesToNewOwnersAndLeaves) {
  test::TestCluster t(ChurnConfig(), test::TicketSchema(false, false));
  for (int k = 0; k < 120; ++k) {
    t.cluster.BootstrapLoadRow("ticket", "t" + std::to_string(k),
                               {{"status", std::string("open")}}, 100 + k);
  }

  ASSERT_TRUE(t.cluster.DecommissionServer(2));
  EXPECT_EQ(t.cluster.server(2).membership(), MembershipState::kDraining);
  EXPECT_FALSE(t.cluster.ring().IsMember(2));

  AwaitMembership(t.cluster, 2, MembershipState::kLeft);
  const store::Metrics& m = t.cluster.metrics();
  EXPECT_EQ(m.member_leaves_started, 1u);
  EXPECT_EQ(m.member_leaves_completed, 1u);
  EXPECT_EQ(m.member_drains_forced, 0u);
  EXPECT_EQ(t.cluster.server(2).hints_outstanding(), 0u);

  // Every key now has its full replica set among the remaining members,
  // each holding the row locally (the leaver streamed what they lacked).
  for (int k = 0; k < 120; ++k) {
    const Key key = "t" + std::to_string(k);
    for (ServerId replica : t.cluster.ring().ReplicasFor(key, 3)) {
      ASSERT_NE(replica, 2);
      EXPECT_TRUE(LocalKeys(t.cluster, replica, "ticket").count(key) != 0)
          << "replica " << replica << " missing " << key;
    }
  }
}

TEST(MembershipTest, ReplicasOfMatchesTheRingAcrossJoinAndLeave) {
  test::TestCluster t(ChurnConfig(), test::TicketSchema(false, false));
  Rng rng(29);
  const int rf = t.cluster.config().replication_factor;
  auto expect_ring_placement = [&](const char* phase) {
    for (int i = 0; i < 300; ++i) {
      const Key key = "k" + std::to_string(rng.Next());
      const std::vector<ServerId> want = t.cluster.ring().ReplicasFor(key, rf);
      for (ServerId s : t.cluster.ring().members()) {
        EXPECT_EQ(t.cluster.server(s).ReplicasOf("ticket", key), want)
            << phase << ": server " << s << " key " << key;
      }
    }
  };
  expect_ring_placement("initial");
  auto joiner = t.cluster.JoinServer();
  ASSERT_TRUE(joiner.has_value());
  expect_ring_placement("after join");
  AwaitMembership(t.cluster, *joiner, MembershipState::kServing);
  ASSERT_TRUE(t.cluster.DecommissionServer(1));
  expect_ring_placement("after leave");
  AwaitMembership(t.cluster, 1, MembershipState::kLeft);
  expect_ring_placement("after drain");
}

TEST(MembershipTest, DecommissionRejectedBelowReplicationFactor) {
  test::TestCluster t(ChurnConfig(), test::TicketSchema(false, false));
  ASSERT_TRUE(t.cluster.DecommissionServer(3));
  AwaitMembership(t.cluster, 3, MembershipState::kLeft);
  // 3 members left at replication factor 3: nobody else may leave.
  EXPECT_FALSE(t.cluster.DecommissionServer(2));
  EXPECT_EQ(t.cluster.server(2).membership(), MembershipState::kServing);
}

TEST(MembershipTest, DrainingCoordinatorRejectsNewOperations) {
  test::TestCluster t(ChurnConfig(), test::TicketSchema(false, false));
  t.cluster.BootstrapLoadRow("ticket", "t0",
                             {{"status", std::string("open")}}, 100);
  auto client = t.cluster.NewClient(/*coordinator=*/1);
  ASSERT_TRUE(t.cluster.DecommissionServer(1));

  const store::ReadResult result =
      client->GetSync("ticket", "t0", store::ReadOptions{});
  EXPECT_TRUE(result.status.IsUnavailable())
      << "draining coordinator must reject: " << result.status.ToString();
  // Client routing skips the drainer.
  EXPECT_NE(t.cluster.PickServingServer(1), 1);
}

TEST(MembershipTest, DecommissionDrainsHintsBeforeLeaving) {
  store::ClusterConfig config = ChurnConfig();
  config.num_servers = 4;
  test::TestCluster t(config, test::TicketSchema(false, false));
  auto client = t.cluster.NewClient(/*coordinator=*/0);

  // Crash a replica, then write through server 0 at W=1: server 0 stores
  // hints for the crashed replica's share of the writes.
  t.cluster.CrashServer(1);
  t.cluster.RunFor(Millis(10));
  store::WriteOptions w1;
  w1.quorum = 1;
  for (int k = 0; k < 40; ++k) {
    ASSERT_TRUE(client
                    ->PutSync("ticket", "h" + std::to_string(k),
                              {{"status", std::string("hinted")}}, w1)
                    .ok());
  }
  t.cluster.RunFor(Millis(200));
  ASSERT_GT(t.cluster.server(0).hints_outstanding(), 0u)
      << "setup failed: no hints were stored on the leaver";

  // Decommission the hint holder while the target is still down; the drain
  // must wait, then complete once the target comes back.
  ASSERT_TRUE(t.cluster.DecommissionServer(0));
  t.cluster.RunFor(Millis(300));
  t.cluster.RestartServer(1);

  AwaitMembership(t.cluster, 0, MembershipState::kLeft);
  const store::Metrics& m = t.cluster.metrics();
  EXPECT_EQ(m.member_leaves_completed, 1u);
  EXPECT_EQ(m.member_drains_forced, 0u);
  EXPECT_EQ(t.cluster.server(0).hints_outstanding(), 0u);

  // Nothing hinted was lost: every write is readable at full quorum.
  t.cluster.RunFor(Millis(500));  // anti-entropy settle
  auto reader = t.cluster.NewClient(t.cluster.PickServingServer(1));
  store::ReadOptions r3;
  r3.quorum = 3;
  for (int k = 0; k < 40; ++k) {
    const store::ReadResult result =
        reader->GetSync("ticket", "h" + std::to_string(k), r3);
    ASSERT_TRUE(result.ok()) << "h" << k;
    EXPECT_EQ(result.row.GetValue("status"), "hinted") << "h" << k;
  }
}

TEST(MembershipTest, ForcedDrainReroutesHintsAtDeadline) {
  test::TestCluster t(ChurnConfig(), test::TicketSchema(false, false));
  auto client = t.cluster.NewClient(/*coordinator=*/0);

  t.cluster.CrashServer(1);
  t.cluster.RunFor(Millis(10));
  store::WriteOptions w1;
  w1.quorum = 1;
  for (int k = 0; k < 20; ++k) {
    ASSERT_TRUE(client
                    ->PutSync("ticket", "f" + std::to_string(k),
                              {{"status", std::string("forced")}}, w1)
                    .ok());
  }
  t.cluster.RunFor(Millis(100));
  ASSERT_GT(t.cluster.server(0).hints_outstanding(), 0u);

  // Target stays down past the drain deadline: the drain is forced, hints
  // reroute to the keys' current live replicas, and the server still leaves
  // with nothing outstanding.
  ASSERT_TRUE(t.cluster.DecommissionServer(0));
  AwaitMembership(t.cluster, 0, MembershipState::kLeft);
  EXPECT_GE(t.cluster.metrics().member_drains_forced, 1u);
  EXPECT_GT(t.cluster.metrics().member_hints_rerouted, 0u);
  EXPECT_EQ(t.cluster.server(0).hints_outstanding(), 0u);

  // After the crashed server returns, anti-entropy spreads the writes from
  // the replicas that acked them; nothing acked is lost.
  t.cluster.RestartServer(1);
  t.cluster.RunFor(Seconds(1));
  auto reader = t.cluster.NewClient(t.cluster.PickServingServer(1));
  store::ReadOptions r3;
  r3.quorum = 3;
  for (int k = 0; k < 20; ++k) {
    const store::ReadResult result =
        reader->GetSync("ticket", "f" + std::to_string(k), r3);
    ASSERT_TRUE(result.ok()) << "f" << k;
    EXPECT_EQ(result.row.GetValue("status"), "forced") << "f" << k;
  }
}

// A hint whose target leaves is rerouted to the key's current replicas. A
// current replica the reroute cannot reach is hinted like any silent write
// target, so the write lands there once the link heals, with no
// anti-entropy to fall back on.
TEST(MembershipTest, RerouteToAnUnreachableReplicaIsHintedAndLandsAfterHeal) {
  store::ClusterConfig config = ChurnConfig();
  config.num_servers = 5;
  config.anti_entropy_interval = 0;
  test::TestCluster t(config, test::TicketSchema(false, false));
  constexpr ServerId kCoordinator = 0;

  // A key, a replica of it that leaves, and the server that gains the key
  // when it does; neither is the coordinator.
  Key key;
  ServerId leaver = kCoordinator;
  ServerId gainer = kCoordinator;
  for (int k = 0; k < 256 && gainer == kCoordinator; ++k) {
    const Key candidate = "g" + std::to_string(k);
    const std::vector<ServerId> before =
        t.cluster.ring().ReplicasFor(candidate, 3);
    for (ServerId replica : before) {
      if (replica == kCoordinator || gainer != kCoordinator) continue;
      store::Ring ring = t.cluster.ring();
      ring.RemoveServer(replica, config.replication_factor);
      for (ServerId after : ring.ReplicasFor(candidate, 3)) {
        if (after != kCoordinator &&
            std::find(before.begin(), before.end(), after) == before.end()) {
          key = candidate;
          leaver = replica;
          gainer = after;
        }
      }
    }
  }
  ASSERT_NE(gainer, kCoordinator) << "no key gains a non-coordinator replica";

  // The write misses the leaver, so the coordinator hints it.
  t.cluster.network().PartitionLink(kCoordinator, leaver);
  auto client = t.cluster.NewClient(kCoordinator);
  store::WriteOptions w1;
  w1.quorum = 1;
  ASSERT_TRUE(client
                  ->PutSync("ticket", key,
                            {{"status", std::string("rerouted")}}, w1)
                  .ok());
  t.cluster.RunFor(Millis(100));
  ASSERT_EQ(t.cluster.server(kCoordinator).pending_hints(leaver), 1u);

  // The leave reroutes that hint; the reroute's message to the gainer is
  // dropped on the cut link.
  t.cluster.network().PartitionLink(kCoordinator, gainer);
  ASSERT_TRUE(t.cluster.DecommissionServer(leaver));
  t.cluster.RunFor(Millis(100));
  EXPECT_EQ(t.cluster.server(kCoordinator).pending_hints(gainer), 1u);
  storage::Engine& gainer_engine = t.cluster.server(gainer).EngineFor("ticket");
  EXPECT_FALSE(gainer_engine.GetCell(key, "status").has_value());

  t.cluster.network().RestoreLink(kCoordinator, gainer);
  t.cluster.RunFor(Millis(500));
  EXPECT_EQ(t.cluster.server(kCoordinator).pending_hints(gainer), 0u);
  auto cell = gainer_engine.GetCell(key, "status");
  ASSERT_TRUE(cell.has_value()) << "the rerouted write never reached " << gainer;
  EXPECT_EQ(cell->value, "rerouted");
}

// A forced drain re-sends the hints it still holds to the keys' current
// replicas and leaves only once every re-send has answered, so the leave
// does not drop them in flight. The leaver coordinated a write to a key it
// does not replicate (no range sync of its decommission carries the row):
// one replica acked it, one stays crashed through the drain, which forces
// it, and one was cut off from the leaver. With anti-entropy off and no hint
// replay before the deadline, only the re-send reaches that replica.
TEST(MembershipTest, ForcedDrainReroutesLandBeforeTheLeave) {
  store::ClusterConfig config = ChurnConfig();
  config.anti_entropy_interval = 0;
  config.hint_replay_interval = Seconds(60);  // no tick before the deadline
  test::TestCluster t(config, test::TicketSchema(false, false));
  constexpr ServerId kLeaver = 0;
  Key key;
  for (int k = 0; key.empty(); ++k) {
    const Key candidate = "d" + std::to_string(k);
    const std::vector<ServerId> replicas =
        t.cluster.ring().ReplicasFor(candidate, 3);
    if (std::find(replicas.begin(), replicas.end(), kLeaver) ==
        replicas.end()) {
      key = candidate;
    }
  }
  const std::vector<ServerId> replicas = t.cluster.ring().ReplicasFor(key, 3);
  const ServerId crashed = replicas[0];
  const ServerId missed = replicas[1];
  // The crashed server gains some of the leaver's ranges, so the range
  // syncs, and with them the hint drain, last until the deadline.
  store::Ring ring = t.cluster.ring();
  std::size_t to_crashed = 0;
  for (const store::Ring::RangeTransfer& transfer :
       ring.RemoveServer(kLeaver, config.replication_factor)) {
    to_crashed += static_cast<std::size_t>(
        std::count(transfer.peers.begin(), transfer.peers.end(), crashed));
  }
  ASSERT_GT(to_crashed, 0u);

  ASSERT_TRUE(t.cluster.CrashServer(crashed));
  t.cluster.network().PartitionLink(kLeaver, missed);
  auto client = t.cluster.NewClient(kLeaver);
  store::WriteOptions w1;
  w1.quorum = 1;
  ASSERT_TRUE(client
                  ->PutSync("ticket", key,
                            {{"status", std::string("rerouted")}}, w1)
                  .ok());
  t.cluster.RunFor(Millis(100));
  ASSERT_EQ(t.cluster.server(kLeaver).pending_hints(missed), 1u);
  t.cluster.network().RestoreLink(kLeaver, missed);
  storage::Engine& missed_engine =
      t.cluster.server(missed).EngineFor("ticket");
  ASSERT_FALSE(missed_engine.GetCell(key, "status").has_value());

  ASSERT_TRUE(t.cluster.DecommissionServer(kLeaver));
  AwaitMembership(t.cluster, kLeaver, MembershipState::kLeft);
  EXPECT_EQ(t.cluster.metrics().member_drains_forced, 1u);
  auto cell = missed_engine.GetCell(key, "status");
  ASSERT_TRUE(cell.has_value())
      << "the rerouted write never reached " << missed;
  EXPECT_EQ(cell->value, "rerouted");
}

// Every stream task bound for a dead new owner falls silent, and each one
// past the drain deadline is abandoned; the decommission still counts as
// forced once.
TEST(MembershipTest, ExpiredDrainDeadlineCountsOneForcedDrain) {
  store::ClusterConfig config = ChurnConfig();
  test::TestCluster t(config, test::TicketSchema(false, false));
  for (int k = 0; k < 120; ++k) {
    t.cluster.BootstrapLoadRow("ticket", "t" + std::to_string(k),
                               {{"status", std::string("open")}}, 100 + k);
  }
  constexpr ServerId kLeaver = 0;
  constexpr ServerId kDeadOwner = 1;
  store::Ring ring = t.cluster.ring();
  std::size_t to_dead_owner = 0;
  for (const store::Ring::RangeTransfer& transfer :
       ring.RemoveServer(kLeaver, config.replication_factor)) {
    to_dead_owner += static_cast<std::size_t>(std::count(
        transfer.peers.begin(), transfer.peers.end(), kDeadOwner));
  }
  ASSERT_GE(to_dead_owner, 2u) << "the dead owner gains too few ranges";

  ASSERT_TRUE(t.cluster.CrashServer(kDeadOwner));
  ASSERT_TRUE(t.cluster.DecommissionServer(kLeaver));
  AwaitMembership(t.cluster, kLeaver, MembershipState::kLeft);
  EXPECT_EQ(t.cluster.metrics().member_drains_forced, 1u);
}

TEST(MembershipTest, InflightWriteRetargetsWhenReplicaLeaves) {
  store::ClusterConfig config = ChurnConfig();
  config.network.base_latency = Millis(5);  // widen the in-flight window
  test::TestCluster t(config, test::TicketSchema(false, false));
  auto client = t.cluster.NewClient(/*coordinator=*/0);

  // Find a key whose replica set includes a leaver != coordinator.
  Key key;
  ServerId leaver = 0;
  bool found = false;
  for (int k = 0; k < 64 && !found; ++k) {
    const Key candidate = "r" + std::to_string(k);
    for (ServerId replica : t.cluster.ring().ReplicasFor(candidate, 3)) {
      if (replica != 0) {
        key = candidate;
        leaver = replica;
        found = true;
        break;
      }
    }
  }
  ASSERT_TRUE(found);

  std::optional<store::WriteResult> outcome;
  store::WriteOptions w3;
  w3.quorum = 3;  // must hear from every replica, including the leaver
  client->Put("ticket", key, {{"status", std::string("inflight")}}, w3,
              [&outcome](store::WriteResult result) { outcome = result; });
  // Let the op reach the coordinator and fan out, then yank the replica out
  // of the ring before its (slow) ack can arrive.
  t.cluster.RunFor(Millis(7));
  ASSERT_TRUE(t.cluster.DecommissionServer(leaver));
  t.cluster.RunFor(Seconds(2));

  ASSERT_TRUE(outcome.has_value()) << "write never settled";
  EXPECT_TRUE(outcome->ok()) << outcome->status.ToString();
  EXPECT_GT(t.cluster.metrics().member_ops_retargeted, 0u);
}

TEST(MembershipTest, CrashDuringJoinResumesStreamingAfterRestart) {
  test::TestCluster t(ChurnConfig(), test::TicketSchema(false, false));
  // Enough rows that the join, whose range syncs all run at once, is still
  // streaming when the crash lands.
  constexpr int kRows = 1000;
  for (int k = 0; k < kRows; ++k) {
    t.cluster.BootstrapLoadRow("ticket", "t" + std::to_string(k),
                               {{"status", std::string("open")}}, 100 + k);
  }

  auto joiner = t.cluster.JoinServer();
  ASSERT_TRUE(joiner.has_value());
  t.cluster.RunFor(Millis(2));  // a few slices in, far from done
  ASSERT_EQ(t.cluster.server(*joiner).membership(),
            MembershipState::kJoining);
  ASSERT_GT(t.cluster.metrics().member_rows_streamed, 0u)
      << "the crash must land mid-stream";
  ASSERT_TRUE(t.cluster.CrashServer(*joiner));
  t.cluster.RunFor(Millis(50));
  ASSERT_TRUE(t.cluster.RestartServer(*joiner));

  AwaitMembership(t.cluster, *joiner, MembershipState::kServing);
  EXPECT_EQ(t.cluster.metrics().member_joins_completed, 1u);
  const std::set<Key> local = LocalKeys(t.cluster, *joiner, "ticket");
  for (int k = 0; k < kRows; ++k) {
    const Key key = "t" + std::to_string(k);
    const auto replicas = t.cluster.ring().ReplicasFor(key, 3);
    if (std::find(replicas.begin(), replicas.end(), *joiner) !=
        replicas.end()) {
      EXPECT_TRUE(local.count(key) != 0) << "joiner missing " << key;
    }
  }
}

// A crashed joiner resumes by re-diffing its ranges, so it ships only the
// rows it still lacks. The joiner crashes each time it has streamed 60% of
// its rows since it last started, at most twice: a join that restreamed
// every range from scratch after Restart would ship 2.2x its rows.
TEST(MembershipTest, CrashedJoinerResumesByShippingOnlyWhatItLacks) {
  test::TestCluster t(ChurnConfig(), test::TicketSchema(false, false));
  constexpr int kRows = 150;
  for (int k = 0; k < kRows; ++k) {
    t.cluster.BootstrapLoadRow("ticket", "t" + std::to_string(k),
                               {{"status", std::string("open")}}, 100 + k);
  }

  auto joiner = t.cluster.JoinServer();
  ASSERT_TRUE(joiner.has_value());
  std::set<Key> owned;
  for (int k = 0; k < kRows; ++k) {
    const Key key = "t" + std::to_string(k);
    const auto replicas = t.cluster.ring().ReplicasFor(key, 3);
    if (std::find(replicas.begin(), replicas.end(), *joiner) !=
        replicas.end()) {
      owned.insert(key);
    }
  }
  ASSERT_GE(owned.size(), 20u);

  const store::Metrics& m = t.cluster.metrics();
  store::Server& server = t.cluster.server(*joiner);
  std::uint64_t streamed_at_start = 0;
  int crashes = 0;
  for (int step = 0;
       step < 100000 && server.membership() == MembershipState::kJoining;
       ++step) {
    t.cluster.RunFor(Micros(100));
    if (crashes < 2 && server.membership() == MembershipState::kJoining &&
        (m.member_rows_streamed - streamed_at_start) * 5 >=
            owned.size() * 3) {
      ASSERT_TRUE(t.cluster.CrashServer(*joiner));
      t.cluster.RunFor(Millis(50));
      ASSERT_TRUE(t.cluster.RestartServer(*joiner));
      streamed_at_start = m.member_rows_streamed;
      ++crashes;
    }
  }
  ASSERT_EQ(server.membership(), MembershipState::kServing);
  EXPECT_GE(crashes, 1) << "the join never got far enough to crash";
  EXPECT_EQ(m.member_joins_completed, 1u);

  const std::set<Key> local = LocalKeys(t.cluster, *joiner, "ticket");
  for (const Key& key : owned) {
    EXPECT_TRUE(local.count(key) != 0) << "joiner missing " << key;
  }
  EXPECT_LT(m.member_rows_streamed, 2 * owned.size())
      << "the resumed join re-shipped rows the joiner already held";
}

// Anti-entropy pairs serving members only, so a joiner's ranges are
// bootstrapped once, by its membership syncs: neither the joiner's own
// rounds nor its peers' pull them a second time. The members start
// converged, so any row anti-entropy ships before the join completes is a
// second bootstrap.
TEST(MembershipTest, JoinerTakesPartInNoAntiEntropyUntilServing) {
  store::ClusterConfig config = ChurnConfig();
  config.anti_entropy_interval = Millis(1);  // many rounds during the join
  test::TestCluster t(config, test::TicketSchema(false, false));
  // Enough rows that the join, whose range syncs all run at once, spans
  // many rounds.
  for (int k = 0; k < 1500; ++k) {
    t.cluster.BootstrapLoadRow("ticket", "t" + std::to_string(k),
                               {{"status", std::string("open")}}, 100 + k);
  }
  const store::Metrics& m = t.cluster.metrics();
  t.cluster.RunFor(Millis(10));
  ASSERT_EQ(m.anti_entropy_rows_pushed, 0u) << "members did not start equal";

  auto joiner = t.cluster.JoinServer();
  ASSERT_TRUE(joiner.has_value());
  const SimTime started = t.cluster.Now();
  while (t.cluster.Now() - started < Seconds(10)) {
    t.cluster.RunFor(Micros(100));
    if (m.member_joins_completed != 0) break;
    ASSERT_EQ(m.anti_entropy_rows_pushed, 0u)
        << "anti-entropy shipped rows to the joiner "
        << (t.cluster.Now() - started) << " us into its join";
  }
  ASSERT_EQ(m.member_joins_completed, 1u);
  EXPECT_GE(t.cluster.Now() - started, 5 * config.anti_entropy_interval)
      << "the join ended before anti-entropy rounds could reach it";
  EXPECT_GT(m.member_rows_streamed, 0u);
}

// A join's range syncs all run at once, so a source that crashed just
// before the join holds up only the ranges that picked it first: every other
// range settles before that source's silence probe fires at `rpc_timeout`,
// and the held-up ranges then rotate to a live source.
TEST(MembershipTest, JoinRangeSyncsDoNotWaitOnASilentSource) {
  store::ClusterConfig config = ChurnConfig();
  test::TestCluster t(config, test::TicketSchema(false, false));
  constexpr int kRows = 120;
  for (int k = 0; k < kRows; ++k) {
    t.cluster.BootstrapLoadRow("ticket", "t" + std::to_string(k),
                               {{"status", std::string("open")}}, 100 + k);
  }
  constexpr ServerId kSilent = 0;
  constexpr ServerId kJoiner = 4;

  // The join plan, read off a copy of the ring (placement is a pure
  // function of the member set): one task per (range, table), whose first
  // source is the range's first listed pre-join replica.
  const std::uint64_t tables = t.cluster.schema().TableNames().size();
  std::uint64_t live_first = 0;
  std::uint64_t silent_first = 0;
  store::Ring ring = t.cluster.ring();
  for (const store::Ring::RangeTransfer& transfer :
       ring.AddServer(kJoiner, config.replication_factor)) {
    (transfer.peers.front() == kSilent ? silent_first : live_first) += tables;
  }
  ASSERT_GT(silent_first, 0u) << "no range syncs with the crashed source first";
  ASSERT_GT(live_first, 0u);

  ASSERT_TRUE(t.cluster.CrashServer(kSilent));
  ASSERT_EQ(t.cluster.JoinServer(), std::optional<ServerId>(kJoiner));
  t.cluster.RunFor(config.rpc_timeout - Millis(1));
  const store::Metrics& m = t.cluster.metrics();
  EXPECT_EQ(m.member_ranges_streamed, live_first)
      << "ranges with a live first source waited on the silent one";

  AwaitMembership(t.cluster, kJoiner, MembershipState::kServing);
  EXPECT_EQ(m.member_joins_completed, 1u);
  EXPECT_EQ(m.member_ranges_streamed, live_first + silent_first);
  const std::set<Key> local = LocalKeys(t.cluster, kJoiner, "ticket");
  for (int k = 0; k < kRows; ++k) {
    const Key key = "t" + std::to_string(k);
    const auto replicas = t.cluster.ring().ReplicasFor(key, 3);
    if (std::find(replicas.begin(), replicas.end(), kJoiner) !=
        replicas.end()) {
      EXPECT_TRUE(local.count(key) != 0) << "joiner missing " << key;
    }
  }
}

// A replica write in flight when the ring changed can land on the draining
// server after its range's first pass. The second pass must carry it to the
// range's new owner before the server leaves — whatever its timestamp.
TEST(MembershipTest, DecommissionSecondPassShipsStragglerWrites) {
  store::ClusterConfig config = ChurnConfig();
  config.anti_entropy_interval = 0;  // the passes are the only carrier
  test::TestCluster t(config, test::TicketSchema(false, false));
  constexpr ServerId kLeaver = 2;
  constexpr int kRows = 120;
  std::map<Key, std::vector<ServerId>> before;
  for (int k = 0; k < kRows; ++k) {
    const Key key = "t" + std::to_string(k);
    t.cluster.BootstrapLoadRow("ticket", key,
                               {{"status", std::string("open")}}, 100 + k);
    before[key] = t.cluster.ring().ReplicasFor(key, 3);
  }

  ASSERT_TRUE(t.cluster.DecommissionServer(kLeaver));
  // A key the leaver held, and the server that newly gained it.
  Key key;
  ServerId owner = kLeaver;
  for (const auto& [k, old_replicas] : before) {
    if (std::find(old_replicas.begin(), old_replicas.end(), kLeaver) ==
        old_replicas.end()) {
      continue;
    }
    for (ServerId replica : t.cluster.ring().ReplicasFor(k, 3)) {
      if (std::find(old_replicas.begin(), old_replicas.end(), replica) ==
          old_replicas.end()) {
        key = k;
        owner = replica;
      }
    }
    if (owner != kLeaver) break;
  }
  ASSERT_NE(owner, kLeaver) << "no key moved to a new owner";

  // The first pass hands the key over.
  storage::Engine& owner_engine = t.cluster.server(owner).EngineFor("ticket");
  for (int step = 0; step < 10000 && !owner_engine.GetCell(key, "status");
       ++step) {
    t.cluster.RunFor(Micros(100));
  }
  ASSERT_TRUE(owner_engine.GetCell(key, "status").has_value());

  // Then the straggler lands on the leaver alone. It is stamped before the
  // decommission began, as a write that spent a long time in flight is.
  storage::Row straggler;
  straggler.Apply("status", storage::Cell::Live("straggler", 5000));
  const ServerId sender = owner == 0 ? 1 : 0;
  store::Server& leaver = t.cluster.server(kLeaver);
  bool acked_while_draining = false;
  t.cluster.server(sender).CallPeer<bool>(
      kLeaver, config.perf.write_local,
      [key, straggler](store::Server& s) {
        s.LocalApply("ticket", key, straggler);
        return true;
      },
      [&](bool acked) {
        acked_while_draining =
            acked && leaver.membership() == MembershipState::kDraining;
      });

  AwaitMembership(t.cluster, kLeaver, MembershipState::kLeft);
  ASSERT_TRUE(acked_while_draining) << "the straggler never reached the leaver";
  auto cell = owner_engine.GetCell(key, "status");
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->value, "straggler")
      << "the new owner " << owner << " never received the straggler";
}

TEST(MembershipTest, JoinLeaveRejoinLifecycleConverges) {
  test::TestCluster t(ChurnConfig(), test::TicketSchema(false, false));
  auto client = t.cluster.NewClient(/*coordinator=*/1);
  store::WriteOptions w2;
  w2.quorum = 2;
  for (int k = 0; k < 60; ++k) {
    ASSERT_TRUE(client
                    ->PutSync("ticket", "t" + std::to_string(k),
                              {{"status", std::string("v1")}}, w2)
                    .ok());
  }

  auto joiner = t.cluster.JoinServer();
  ASSERT_TRUE(joiner.has_value());
  AwaitMembership(t.cluster, *joiner, MembershipState::kServing);

  ASSERT_TRUE(t.cluster.DecommissionServer(0));
  AwaitMembership(t.cluster, 0, MembershipState::kLeft);

  // The decommissioned slot is reusable: the next join activates it.
  auto rejoined = t.cluster.JoinServer();
  ASSERT_TRUE(rejoined.has_value());
  EXPECT_EQ(*rejoined, 0);
  AwaitMembership(t.cluster, 0, MembershipState::kServing);
  EXPECT_EQ(t.cluster.metrics().member_joins_completed, 2u);

  t.cluster.RunFor(Seconds(1));  // anti-entropy settle
  auto reader = t.cluster.NewClient(t.cluster.PickServingServer(1));
  store::ReadOptions r3;
  r3.quorum = 3;
  for (int k = 0; k < 60; ++k) {
    const store::ReadResult result =
        reader->GetSync("ticket", "t" + std::to_string(k), r3);
    ASSERT_TRUE(result.ok()) << "t" << k;
    EXPECT_EQ(result.row.GetValue("status"), "v1") << "t" << k;
  }
}

TEST(MembershipTest, ViewConvergesAcrossDecommission) {
  store::ClusterConfig config = ChurnConfig();
  config.view_scrub_interval = Millis(200);  // recovers leave-orphaned work
  test::TestCluster t(config);  // full ticket schema with the view
  auto client = t.cluster.NewClient(/*coordinator=*/1);
  store::WriteOptions w2;
  w2.quorum = 2;
  for (int k = 0; k < 40; ++k) {
    ASSERT_TRUE(client
                    ->PutSync("ticket", "t" + std::to_string(k),
                              {{"assigned_to", "a" + std::to_string(k % 7)},
                               {"status", std::string("open")}},
                              w2)
                    .ok());
  }

  // Decommission while propagations from a second write wave are in flight.
  for (int k = 0; k < 40; ++k) {
    ASSERT_TRUE(client
                    ->PutSync("ticket", "t" + std::to_string(k),
                              {{"assigned_to", "b" + std::to_string(k % 5)}},
                              w2)
                    .ok());
  }
  ASSERT_TRUE(t.cluster.DecommissionServer(3));
  AwaitMembership(t.cluster, 3, MembershipState::kLeft);

  t.Quiesce();
  t.cluster.RunFor(Seconds(1));  // scrub window for orphan recovery
  t.Quiesce();

  const store::ViewDef& view = *t.cluster.schema().GetView("assigned_to_view");
  const auto expected = view::ComputeExpectedView(t.cluster, view);
  const auto exposed = view::ReadConvergedView(t.cluster, view);
  ASSERT_EQ(expected.size(), exposed.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].view_key, exposed[i].view_key) << i;
    EXPECT_EQ(expected[i].base_key, exposed[i].base_key) << i;
  }
}

TEST(MembershipTest, ChurnScheduleConvergesUnderNemesis) {
  store::ClusterConfig config = ChurnConfig();
  config.view_scrub_interval = Millis(300);
  test::TestCluster t(config);
  auto client = t.cluster.NewClient(/*coordinator=*/1);
  store::WriteOptions w2;
  w2.quorum = 2;
  for (int k = 0; k < 30; ++k) {
    ASSERT_TRUE(client
                    ->PutSync("ticket", "t" + std::to_string(k),
                              {{"assigned_to", "a" + std::to_string(k % 5)},
                               {"status", std::string("open")}},
                              w2)
                    .ok());
  }

  sim::Nemesis nemesis(
      &t.cluster.simulation(), &t.cluster.network(),
      [&t](sim::EndpointId s) { t.cluster.CrashServer(s); },
      [&t](sim::EndpointId s) { t.cluster.RestartServer(s); });
  nemesis.SetMembershipCallbacks(
      [&t] { t.cluster.JoinServer(); },
      [&t](sim::EndpointId s) { t.cluster.DecommissionServer(s); });
  sim::NemesisOptions options;
  options.horizon = Seconds(4);
  options.num_servers = 4;
  options.membership_churn = 2;
  options.min_churn_gap = Millis(500);
  options.max_churn_gap = Seconds(1);
  options.crashes = 1;
  options.partitions = 1;
  options.drop_surges = 0;
  options.latency_spikes = 0;
  nemesis.Schedule(sim::GenerateRandomSchedule(Rng(7), options));
  nemesis.HealAllAt(options.horizon);
  t.cluster.RunFor(options.horizon + Seconds(1));

  // Let membership operations finish (a forced drain takes its 30 s
  // deadline), then quiesce and compare.
  const store::Metrics& m = t.cluster.metrics();
  for (int i = 0; i < 400 &&
                  (m.member_joins_completed < m.member_joins_started ||
                   m.member_leaves_completed < m.member_leaves_started);
       ++i) {
    t.cluster.RunFor(Millis(100));
  }
  EXPECT_EQ(m.member_joins_completed, m.member_joins_started);
  EXPECT_EQ(m.member_leaves_completed, m.member_leaves_started);
  t.Quiesce();
  t.cluster.RunFor(Seconds(1));
  t.Quiesce();

  const store::ViewDef& view = *t.cluster.schema().GetView("assigned_to_view");
  const auto expected = view::ComputeExpectedView(t.cluster, view);
  const auto exposed = view::ReadConvergedView(t.cluster, view);
  EXPECT_EQ(expected.size(), exposed.size());
}

}  // namespace
}  // namespace mvstore
