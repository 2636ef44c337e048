// Session guarantees (Section V, Definition 4): a session's view Get must
// reflect the session's own preceding base-table Puts. The read climbs the
// freshness ladder with the session's own intents as its blockers: it parks
// until those that can reach the read partition apply, and repairs the
// families of those that died.

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "store/client.h"
#include "store/codec.h"
#include "store/freshness.h"
#include "tests/test_util.h"

namespace mvstore {
namespace {

using store::Mutation;
using store::ReadConsistency;
using test::TestCluster;

// Slow down propagation dispatch so the guarantee actually has to block.
store::ClusterConfig SlowPropagationConfig() {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.perf.propagation_dispatch_mu = std::log(50000.0);  // ~50 ms
  config.perf.propagation_dispatch_sigma = 0.0;
  config.perf.propagation_dispatch_min = Millis(50);
  return config;
}

// A read-your-writes read's blockers: the unsettled intents of its own
// session (any age) that can reach the read partition.
int OwnBlockers(const store::FreshnessTracker& tracker, store::SessionId session,
                const std::string& view, const Key& partition) {
  const auto blockers =
      tracker.BlockersBefore(view, partition,
                             std::numeric_limits<Timestamp>::max(), session);
  return blockers.live + blockers.wounded;
}

TEST(SessionTest, BlockersTrackPendingPerSessionAndView) {
  store::FreshnessTracker tracker;
  EXPECT_EQ(OwnBlockers(tracker, 1, "v", "alice"), 0);
  const std::uint64_t first = tracker.RegisterIntent("v", "k1", 100, 1);
  const std::uint64_t second = tracker.RegisterIntent("v", "k2", 200, 1);
  EXPECT_EQ(OwnBlockers(tracker, 1, "v", "alice"), 2);
  EXPECT_EQ(OwnBlockers(tracker, 2, "v", "alice"), 0);  // other session
  EXPECT_EQ(OwnBlockers(tracker, 1, "w", "alice"), 0);  // other view

  // A parked read wakes on every settlement and re-proves; it is clear
  // only once both of its own propagations have applied.
  int woken = 0;
  tracker.NotifyOnImprovement("v", [&woken] { ++woken; });
  tracker.MarkApplied(first);
  EXPECT_EQ(woken, 1);
  EXPECT_EQ(OwnBlockers(tracker, 1, "v", "alice"), 1)
      << "one of two propagations still pending";
  tracker.MarkApplied(second);
  EXPECT_EQ(OwnBlockers(tracker, 1, "v", "alice"), 0);
}

TEST(SessionTest, SessionZeroOwnsNoBlockers) {
  store::FreshnessTracker tracker;
  tracker.RegisterIntent("v", "k1", 100, /*session=*/0);
  EXPECT_EQ(OwnBlockers(tracker, 0, "v", "alice"), 0);
  // The unfiltered (bounded-staleness) view of the same intent blocks.
  EXPECT_EQ(tracker.BlockersBefore("v", "alice", 100).live, 1);
}

TEST(SessionTest, ViewGetSeesOwnPrecedingPut) {
  TestCluster t(SlowPropagationConfig());
  t.cluster.BootstrapLoadRow("ticket", "1",
                             {{"assigned_to", std::string("rliu")},
                              {"status", std::string("open")}},
                             100);
  auto client = t.cluster.NewClient(0);
  client->BeginSession();

  ASSERT_TRUE(
      client->PutSync("ticket", "1", {{"status", std::string("resolved")}}, store::WriteOptions{})
          .ok());
  // Immediately read the view within the session: despite the ~50 ms
  // propagation dispatch delay, the Get must block and then see the update.
  // (Spelled explicitly; a session-carrying read at kEventual upgrades to
  // the same level automatically.)
  auto records = client->QuerySync(
      store::QuerySpec::View("assigned_to_view", "rliu"),
      {.consistency = ReadConsistency::kReadYourWrites});
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.records.size(), 1u);
  EXPECT_EQ(records.records[0].cells.GetValue("status").value_or(""), "resolved");
  EXPECT_GT(t.cluster.metrics().view_get_deferrals, 0u);
}

TEST(SessionTest, WithoutSessionViewMayBeStale) {
  TestCluster t(SlowPropagationConfig());
  t.cluster.BootstrapLoadRow("ticket", "1",
                             {{"assigned_to", std::string("rliu")},
                              {"status", std::string("open")}},
                             100);
  auto client = t.cluster.NewClient(0);  // NO session

  ASSERT_TRUE(
      client->PutSync("ticket", "1", {{"status", std::string("resolved")}}, store::WriteOptions{})
          .ok());
  auto records = client->QuerySync(
      store::QuerySpec::View("assigned_to_view", "rliu"),
      {.quorum = 3, .consistency = ReadConsistency::kEventual});
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.records.size(), 1u);
  // Propagation dispatch is ~50 ms away; the read races ahead and sees the
  // stale value — exactly the staleness Section IV accepts.
  EXPECT_EQ(records.records[0].cells.GetValue("status").value_or(""), "open");
  EXPECT_EQ(t.cluster.metrics().view_get_deferrals, 0u);
}

TEST(SessionTest, GuaranteeCoversViewKeyUpdates) {
  TestCluster t(SlowPropagationConfig());
  t.cluster.BootstrapLoadRow("ticket", "1",
                             {{"assigned_to", std::string("rliu")},
                              {"status", std::string("open")}},
                             100);
  auto client = t.cluster.NewClient(0);
  client->BeginSession();

  ASSERT_TRUE(
      client->PutSync("ticket", "1", {{"assigned_to", std::string("bob")}}, store::WriteOptions{})
          .ok());
  auto records = client->QuerySync(
      store::QuerySpec::View("assigned_to_view", "bob"), store::ReadOptions{});
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.records.size(), 1u);
  EXPECT_EQ(records.records[0].base_key, "1");
  // And the old key's row is gone from the reader's perspective.
  auto old_records = client->QuerySync(
      store::QuerySpec::View("assigned_to_view", "rliu"), store::ReadOptions{});
  ASSERT_TRUE(old_records.ok());
  EXPECT_TRUE(old_records.records.empty());
}

TEST(SessionTest, OtherSessionsDoNotBlock) {
  TestCluster t(SlowPropagationConfig());
  t.cluster.BootstrapLoadRow("ticket", "1",
                             {{"assigned_to", std::string("rliu")},
                              {"status", std::string("open")}},
                             100);
  auto writer = t.cluster.NewClient(0);
  auto reader = t.cluster.NewClient(0);  // same coordinator, own session
  writer->BeginSession();
  reader->BeginSession();

  ASSERT_TRUE(
      writer->PutSync("ticket", "1", {{"status", std::string("resolved")}}, store::WriteOptions{})
          .ok());
  const SimTime before = t.cluster.Now();
  auto records = reader->QuerySync(
      store::QuerySpec::View("assigned_to_view", "rliu"), store::ReadOptions{});
  ASSERT_TRUE(records.ok());
  // The reader's session has no pending propagations: no blocking beyond
  // normal request latency (far less than the 50 ms dispatch delay).
  EXPECT_LT(t.cluster.Now() - before, Millis(20));
}

TEST(SessionTest, CrashedCoordinatorAnswersDeferredGetByClientTimeout) {
  // A view Get deferred on the session guarantee is parked at the
  // coordinator. If the coordinator crashes, the parked continuation dies
  // with the coordinator's incarnation — the client's own request deadline
  // must answer the call, and the callback must fire exactly once (no leak,
  // no double answer).
  TestCluster t(SlowPropagationConfig());
  t.cluster.BootstrapLoadRow("ticket", "1",
                             {{"assigned_to", std::string("rliu")},
                              {"status", std::string("open")}},
                             100);
  auto client = t.cluster.NewClient(0);
  client->BeginSession();
  client->set_request_timeout(Millis(200));

  ASSERT_TRUE(
      client
          ->PutSync("ticket", "1", {{"status", std::string("resolved")}},
                    store::WriteOptions{})
          .ok());
  int answers = 0;
  store::ReadResult out;
  client->Query(
      store::QuerySpec::View("assigned_to_view", "rliu"),
      {.consistency = ReadConsistency::kReadYourWrites},
      [&](store::ReadResult r) {
                    ++answers;
                    out = std::move(r);
                  });
  // Let the Get reach the coordinator and park on the pending propagation
  // (dispatch is ~50 ms away), then kill the coordinator.
  t.cluster.RunFor(Millis(5));
  ASSERT_GT(t.cluster.metrics().view_get_deferrals, 0u);
  ASSERT_EQ(answers, 0);
  ASSERT_TRUE(t.cluster.CrashServer(0));

  while (answers == 0) {
    ASSERT_TRUE(t.cluster.simulation().Step());
  }
  EXPECT_TRUE(out.status.IsTimedOut()) << out.status;

  // Recovery must not re-deliver the dropped continuation.
  ASSERT_TRUE(t.cluster.RestartServer(0));
  t.Quiesce();
  EXPECT_EQ(answers, 1);
}

TEST(SessionTest, MultiplePendingPutsAllVisible) {
  TestCluster t(SlowPropagationConfig());
  t.cluster.BootstrapLoadRow("ticket", "1",
                             {{"assigned_to", std::string("a")},
                              {"status", std::string("s0")}},
                             100);
  t.cluster.BootstrapLoadRow("ticket", "2",
                             {{"assigned_to", std::string("a")},
                              {"status", std::string("s0")}},
                             101);
  auto client = t.cluster.NewClient(0);
  client->BeginSession();
  ASSERT_TRUE(
      client->PutSync("ticket", "1", {{"status", std::string("s1")}}, store::WriteOptions{}).ok());
  ASSERT_TRUE(
      client->PutSync("ticket", "2", {{"status", std::string("s2")}}, store::WriteOptions{}).ok());
  auto records = client->QuerySync(
      store::QuerySpec::View("assigned_to_view", "a"), store::ReadOptions{});
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.records.size(), 2u);
  for (const auto& record : records.records) {
    if (record.base_key == "1") {
      EXPECT_EQ(record.cells.GetValue("status").value_or(""), "s1");
    } else {
      EXPECT_EQ(record.cells.GetValue("status").value_or(""), "s2");
    }
  }
}

TEST(SessionTest, UnreachablePartitionDoesNotPark) {
  // The session's pending write can only land in rliu's partition, so a
  // read of bob's partition has nothing of its own to wait for.
  TestCluster t(SlowPropagationConfig());
  t.cluster.BootstrapLoadRow("ticket", "1",
                             {{"assigned_to", std::string("rliu")},
                              {"status", std::string("open")}},
                             100);
  auto client = t.cluster.NewClient(0);
  client->BeginSession();
  ASSERT_TRUE(client
                  ->PutSync("ticket", "1", {{"status", std::string("resolved")}},
                            store::WriteOptions{})
                  .ok());
  // Let the pre-image collection name the write's partitions; dispatch is
  // still ~50 ms away.
  t.cluster.RunFor(Millis(2));
  ASSERT_EQ(t.views->active_propagations(), 1u);

  const SimTime before = t.cluster.Now();
  auto records = client->QuerySync(
      store::QuerySpec::View("assigned_to_view", "bob"),
      {.consistency = ReadConsistency::kReadYourWrites});
  ASSERT_TRUE(records.ok()) << records.status;
  EXPECT_TRUE(records.records.empty());
  EXPECT_LT(t.cluster.Now() - before, Millis(20));
  EXPECT_EQ(t.cluster.metrics().view_get_deferrals, 0u);

  // The partition the write can reach still parks.
  auto own = client->QuerySync(
      store::QuerySpec::View("assigned_to_view", "rliu"),
      {.consistency = ReadConsistency::kReadYourWrites});
  ASSERT_TRUE(own.ok()) << own.status;
  ASSERT_EQ(own.records.size(), 1u);
  EXPECT_EQ(own.records[0].cells.GetValue("status").value_or(""), "resolved");
  EXPECT_EQ(t.cluster.metrics().view_get_deferrals, 1u);
}

TEST(SessionTest, WoundedOwnWriteIsRepairedBeforeServing) {
  // The session's propagation exhausts its retry budget (the new view
  // partition's majority is unreachable) while its coordinator stays up.
  // The wounded intent still blocks the session's read, which repairs the
  // family and then serves the row instead of a stale view.
  store::ClusterConfig config = test::DefaultTestConfig();
  config.rpc_timeout = Millis(20);
  config.perf.propagation_retry_delay = Micros(200);
  config.perf.propagation_retry_delay_max = Micros(500);
  TestCluster t(config);
  t.cluster.BootstrapLoadRow("ticket", "1",
                             {{"assigned_to", std::string("alice")},
                              {"status", std::string("open")}},
                             100);

  const Key view_row = store::ComposeViewRowKey("bob", "1");
  const auto replicas =
      t.cluster.server(0).ReplicasOf("assigned_to_view", view_row);
  t.cluster.network().SetEndpointDown(replicas[0], true);
  t.cluster.network().SetEndpointDown(replicas[1], true);
  ServerId coordinator = 0;
  while (coordinator == replicas[0] || coordinator == replicas[1]) {
    ++coordinator;
  }
  auto client = t.cluster.NewClient(coordinator);
  client->BeginSession();
  ASSERT_TRUE(client
                  ->PutSync("ticket", "1", {{"assigned_to", std::string("bob")}},
                            {.quorum = 1})
                  .ok());
  t.Quiesce();  // terminates via abandonment
  ASSERT_GT(t.cluster.metrics().propagations_abandoned, 0u);
  ASSERT_FALSE(t.cluster.server(coordinator).crashed());
  t.cluster.network().SetEndpointDown(replicas[0], false);
  t.cluster.network().SetEndpointDown(replicas[1], false);

  auto records = client->QuerySync(
      store::QuerySpec::View("assigned_to_view", "bob"),
      {.consistency = ReadConsistency::kReadYourWrites});
  ASSERT_TRUE(records.ok()) << records.status;
  ASSERT_EQ(records.records.size(), 1u);
  EXPECT_EQ(records.records[0].base_key, "1");
  EXPECT_EQ(records.records[0].cells.GetValue("status").value_or(""), "open");
  EXPECT_GT(t.cluster.metrics().freshness_targeted_repairs, 0u);
}

}  // namespace
}  // namespace mvstore
