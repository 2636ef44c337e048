// The freshness contract (ISSUE 7): cluster-wide freshness tracking,
// bounded-staleness view reads, and the adaptive MV/SI router.
//
// Layer 1 exercises the FreshnessTracker state machine directly; layer 2
// drives bounded ViewGets end-to-end through the cluster, including the
// park/repair/fallback ladder; layer 3 is the property test the acceptance
// criteria name: under a crash/restart nemesis with majority writes, a
// kBoundedStaleness read never returns a row older than its bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "store/client.h"
#include "store/freshness.h"
#include "tests/test_util.h"

namespace mvstore {
namespace {

using store::ReadConsistency;
using store::QuerySpec;
using store::ServedBy;
using test::TestCluster;

// ---------------------------------------------------------------------------
// FreshnessTracker unit tests.
// ---------------------------------------------------------------------------

TEST(FreshnessTrackerTest, IntentBlocksUntilApplied) {
  store::FreshnessTracker tracker;
  const std::uint64_t intent = tracker.RegisterIntent("v", "k1", 100, 0);
  ASSERT_NE(intent, 0u);
  tracker.ResolvePartitions(intent, {"alice"});

  // Blocks reads that need everything up to ts 100; not reads whose cutoff
  // predates the intent.
  EXPECT_EQ(tracker.BlockersBefore("v", "alice", 100).live, 1u);
  EXPECT_EQ(tracker.BlockersBefore("v", "alice", 99).live, 0u);
  EXPECT_EQ(tracker.BlockersBefore("v", "bob", 100).live, 0u);

  // FreshAsOf dips to just before the oldest pending intent.
  EXPECT_EQ(tracker.FreshAsOf("v", "alice", 500), 99);
  EXPECT_EQ(tracker.FreshAsOf("v", "bob", 500), 500);

  tracker.MarkApplied(intent);
  EXPECT_EQ(tracker.BlockersBefore("v", "alice", 100).live, 0u);
  EXPECT_EQ(tracker.FreshAsOf("v", "alice", 500), 500);
}

TEST(FreshnessTrackerTest, UnresolvedIntentBlocksEveryPartition) {
  store::FreshnessTracker tracker;
  tracker.RegisterIntent("v", "k1", 100, 0);
  // Until the propagation's collection step names the affected partitions,
  // the intent must pessimistically block all of them.
  EXPECT_EQ(tracker.BlockersBefore("v", "alice", 100).live, 1u);
  EXPECT_EQ(tracker.BlockersBefore("v", "anything", 100).live, 1u);
}

TEST(FreshnessTrackerTest, WoundedBlocksUntilFamilyAudited) {
  store::FreshnessTracker tracker;
  const std::uint64_t intent = tracker.RegisterIntent("v", "k1", 100, 0);
  tracker.ResolvePartitions(intent, {"alice"});
  tracker.MarkWounded(intent);

  const auto blockers = tracker.BlockersBefore("v", "alice", 100);
  EXPECT_EQ(blockers.live, 0u);
  EXPECT_EQ(blockers.wounded, 1u);
  ASSERT_EQ(blockers.wounded_keys.size(), 1u);
  EXPECT_EQ(blockers.wounded_keys[0], "k1");

  // MarkApplied on a wounded intent settles it (late completion notice).
  EXPECT_EQ(tracker.FamilyAudited("v", "k1"), 1u);
  EXPECT_EQ(tracker.BlockersBefore("v", "alice", 100).wounded, 0u);
}

TEST(FreshnessTrackerTest, ImprovementCallbackFiresOnApply) {
  store::FreshnessTracker tracker;
  const std::uint64_t intent = tracker.RegisterIntent("v", "k1", 100, 0);
  int fired = 0;
  tracker.NotifyOnImprovement("v", [&fired] { ++fired; });
  tracker.RegisterIntent("w", "k2", 100, 0);  // other view: no fire
  EXPECT_EQ(fired, 0);
  tracker.MarkApplied(intent);
  EXPECT_EQ(fired, 1);
  tracker.MarkApplied(intent);  // idempotent: one-shot already consumed
  EXPECT_EQ(fired, 1);
}

TEST(FreshnessTrackerTest, WoundWakesParkedReads) {
  // A wound turns waiting into repairing, so parked reads must re-prove.
  store::FreshnessTracker tracker;
  const std::uint64_t intent = tracker.RegisterIntent("v", "k1", 100, 0);
  int fired = 0;
  tracker.NotifyOnImprovement("v", [&fired] { ++fired; });
  tracker.MarkWounded(intent);
  EXPECT_EQ(fired, 1);
  tracker.NotifyOnImprovement("v", [&fired] { ++fired; });
  tracker.MarkWounded(intent);  // idempotent: already wounded
  EXPECT_EQ(fired, 1);
}

TEST(FreshnessTrackerTest, LagEstimateIsEwma) {
  store::FreshnessTracker tracker;
  EXPECT_LT(tracker.LagEstimate("v"), 0);  // unprimed
  tracker.RecordLag("v", 1000);
  EXPECT_EQ(tracker.LagEstimate("v"), 1000);
  tracker.RecordLag("v", 2000);
  EXPECT_EQ(tracker.LagEstimate("v"), 1200);  // 0.2 * 2000 + 0.8 * 1000
}

// ---------------------------------------------------------------------------
// End-to-end bounded reads.
// ---------------------------------------------------------------------------

store::ClusterConfig SlowPropagationConfig() {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.perf.propagation_dispatch_mu = std::log(50000.0);  // ~50 ms
  config.perf.propagation_dispatch_sigma = 0.0;
  config.perf.propagation_dispatch_min = Millis(50);
  return config;
}

void LoadTicket(TestCluster& t, const std::string& key,
                const std::string& assignee, const std::string& status,
                Timestamp ts) {
  t.cluster.BootstrapLoadRow(
      "ticket", key, {{"assigned_to", assignee}, {"status", status}}, ts);
}

TEST(BoundedStalenessTest, ProvenBoundServesFromView) {
  TestCluster t;
  LoadTicket(t, "1", "rliu", "open", 100);
  t.Quiesce();
  auto client = t.cluster.NewClient(0);

  auto result = client->QuerySync(
      QuerySpec::View("assigned_to_view", "rliu"),
      {.consistency = ReadConsistency::kBoundedStaleness,
       .max_staleness = Millis(500)});
  ASSERT_TRUE(result.ok()) << result.status;
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.served_by, ServedBy::kView);
  EXPECT_EQ(result.payload_kind(), store::ReadPayload::kRecords);
  // No pending intents: the view is fresh as of "now" (minus delivery).
  EXPECT_NE(result.freshness, kNullTimestamp);
  const Timestamp now_ts = store::kClientTimestampEpoch + t.cluster.Now();
  EXPECT_LE(now_ts - result.freshness, Millis(5));
}

TEST(BoundedStalenessTest, ParksUntilPropagationApplies) {
  // Propagation dispatch ~5 ms; the bounded read arrives while the intent
  // is pending and must park until it applies, then return the NEW value.
  // No propagation has completed yet, so the router has no lag estimate to
  // fall back on and the read parks.
  store::ClusterConfig config = test::DefaultTestConfig();
  config.perf.propagation_dispatch_mu = std::log(5000.0);
  config.perf.propagation_dispatch_sigma = 0.0;
  config.perf.propagation_dispatch_min = Millis(5);
  TestCluster t(config);
  LoadTicket(t, "1", "rliu", "open", 100);
  t.Quiesce();
  auto client = t.cluster.NewClient(0);

  ASSERT_TRUE(client
                  ->PutSync("ticket", "1",
                            {{"status", std::string("resolved")}},
                            store::WriteOptions{})
                  .ok());
  // Tight bound: the pending intent (registered at the Put) blocks it.
  auto result = client->QuerySync(
      QuerySpec::View("assigned_to_view", "rliu"),
      {.consistency = ReadConsistency::kBoundedStaleness,
       .max_staleness = Micros(100)});
  ASSERT_TRUE(result.ok()) << result.status;
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.served_by, ServedBy::kView);
  EXPECT_EQ(result.records[0].cells.GetValue("status").value_or(""),
            "resolved");
  EXPECT_GT(t.cluster.metrics().freshness_bound_misses, 0u);
  EXPECT_GT(t.cluster.metrics().freshness_bound_waits, 0u);
}

TEST(BoundedStalenessTest, ReparkedReadCountsOneWaitForItsWholePark) {
  // A bounded read parks behind a write whose pre-image collection is held
  // up by a cut link, and completions of unrelated writes to the same view
  // wake it several times before that write applies. Each wake-up re-parks
  // the read, yet it is one read that waited once, for the whole park.
  store::ClusterConfig config = test::DefaultTestConfig();
  config.perf.propagation_dispatch_mu = std::log(5000.0);
  config.perf.propagation_dispatch_sigma = 0.0;
  config.perf.propagation_dispatch_min = Millis(5);
  TestCluster t(config);
  LoadTicket(t, "1", "rliu", "open", 100);
  const std::vector<std::string> others = {"2", "3", "4"};
  for (std::size_t i = 0; i < others.size(); ++i) {
    LoadTicket(t, others[i], "bob", "open", 101 + static_cast<Timestamp>(i));
  }
  t.Quiesce();

  const std::vector<ServerId> replicas = t.cluster.ring().ReplicasFor(
      "1", t.cluster.config().replication_factor);
  ServerId coord = 0;
  while (std::find(replicas.begin(), replicas.end(), coord) !=
         replicas.end()) {
    ++coord;
  }
  const auto other_coord =
      static_cast<ServerId>((coord + 1) % config.num_servers);
  auto writer = t.cluster.NewClient(coord);
  auto reader = t.cluster.NewClient(coord);
  auto other_writer = t.cluster.NewClient(other_coord);

  // Ticket 1's write cannot reach one of its replicas until the silence
  // probe re-sends to it, 100 ms in.
  t.cluster.network().PartitionLink(coord, replicas[0]);
  bool put_done = false;
  writer->Put("ticket", "1", {{"status", std::string("resolved")}},
              store::WriteOptions{}, [&](store::WriteResult w) {
                put_done = true;
                EXPECT_TRUE(w.ok()) << w.status;
              });
  t.cluster.RunFor(Millis(30));  // the write's intent ages past the bound
  t.cluster.network().RestoreLink(coord, replicas[0]);

  const store::Metrics& m = t.cluster.metrics();
  const SimTime issued_at = t.cluster.Now();
  SimTime answered_at = -1;
  store::ReadResult result;
  reader->Query(QuerySpec::View("assigned_to_view", "rliu"),
                {.consistency = ReadConsistency::kBoundedStaleness,
                 .max_staleness = Millis(20)},
                [&](store::ReadResult r) {
                  answered_at = t.cluster.Now();
                  result = std::move(r);
                });
  t.cluster.RunFor(Millis(2));
  ASSERT_LT(answered_at, 0) << "the read must park behind ticket 1's write";
  ASSERT_EQ(m.freshness_bound_waits.value(), 1u);

  const std::uint64_t completed_before = m.propagations_completed.value();
  for (std::size_t i = 0; i < others.size(); ++i) {
    ASSERT_TRUE(other_writer
                    ->PutSync("ticket", others[i],
                              {{"status", "s" + std::to_string(i)}},
                              store::WriteOptions{})
                    .ok());
    t.cluster.RunFor(Millis(10));  // its propagation completes
  }
  ASSERT_LT(answered_at, 0) << "ticket 1's write must still be pending";
  ASSERT_GE(m.propagations_completed.value() - completed_before,
            others.size())
      << "the unrelated completions must wake the parked read";

  while (answered_at < 0) ASSERT_TRUE(t.cluster.simulation().Step());
  t.Quiesce();
  EXPECT_TRUE(put_done);
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.served_by, ServedBy::kView);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].cells.GetValue("status").value_or(""),
            "resolved");
  EXPECT_EQ(m.freshness_bound_waits.value(), 1u)
      << "one read, one wait, however often it re-parked";
  EXPECT_EQ(m.freshness_wait.count(), 1u);
  // The park runs from just after the read reached its coordinator to the
  // serve decision, just before the view scan and the reply.
  EXPECT_GT(m.freshness_wait.max(), answered_at - issued_at - Millis(2));
  EXPECT_LT(m.freshness_wait.max(), answered_at - issued_at);
}

TEST(BoundedStalenessTest, RouterFallsBackToSiWhenBoundUnsatisfiable) {
  // Propagation takes ~50 ms; the bound is 1 ms. Once the router's lag
  // estimate is primed, waiting is pointless — the read must be served by
  // the secondary index, fresh by construction.
  TestCluster t(SlowPropagationConfig());
  LoadTicket(t, "1", "rliu", "open", 100);
  t.Quiesce();
  auto client = t.cluster.NewClient(0);

  // Prime the lag EWMA with one completed propagation.
  ASSERT_TRUE(client
                  ->PutSync("ticket", "1", {{"status", std::string("s1")}},
                            store::WriteOptions{})
                  .ok());
  t.Quiesce();

  ASSERT_TRUE(client
                  ->PutSync("ticket", "1", {{"status", std::string("s2")}},
                            store::WriteOptions{})
                  .ok());
  auto result = client->QuerySync(
      QuerySpec::View("assigned_to_view", "rliu"),
      {.consistency = ReadConsistency::kBoundedStaleness,
       .max_staleness = Micros(100)});
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.served_by, ServedBy::kSiPath);
  ASSERT_EQ(result.records.size(), 1u);
  // The SI path reads the base table's current state: the new value.
  EXPECT_EQ(result.records[0].cells.GetValue("status").value_or(""), "s2");
  EXPECT_GT(t.cluster.metrics().freshness_fallback_si, 0u);
  t.Quiesce();
}

TEST(BoundedStalenessTest, FallsBackToBaseScanWithoutIndex) {
  store::ClusterConfig config = SlowPropagationConfig();
  TestCluster t(config, test::TicketSchema(/*with_index=*/false));
  LoadTicket(t, "1", "rliu", "open", 100);
  t.Quiesce();
  auto client = t.cluster.NewClient(0);

  ASSERT_TRUE(client
                  ->PutSync("ticket", "1", {{"status", std::string("s1")}},
                            store::WriteOptions{})
                  .ok());
  t.Quiesce();
  ASSERT_TRUE(client
                  ->PutSync("ticket", "1", {{"status", std::string("s2")}},
                            store::WriteOptions{})
                  .ok());
  auto result = client->QuerySync(
      QuerySpec::View("assigned_to_view", "rliu"),
      {.consistency = ReadConsistency::kBoundedStaleness,
       .max_staleness = Micros(100)});
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.served_by, ServedBy::kBaseScan);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].cells.GetValue("status").value_or(""), "s2");
  EXPECT_GT(t.cluster.metrics().freshness_fallback_base, 0u);
  t.Quiesce();
}

TEST(BoundedStalenessTest, WoundedIntentTriggersTargetedRepair) {
  TestCluster t;
  LoadTicket(t, "1", "rliu", "open", 100);
  t.Quiesce();

  // Simulate the residue of a crashed propagation: a wounded intent with no
  // live propagation behind it. The view itself is healthy (bootstrap), so
  // the targeted repair audits the family, clears the wound, and the read
  // proceeds from the view.
  const std::uint64_t intent =
      t.cluster.freshness().RegisterIntent("assigned_to_view", "1", 150, 0);
  t.cluster.freshness().ResolvePartitions(intent, {"rliu"});
  t.cluster.freshness().MarkWounded(intent);

  auto client = t.cluster.NewClient(0);
  auto result = client->QuerySync(
      QuerySpec::View("assigned_to_view", "rliu"),
      {.consistency = ReadConsistency::kBoundedStaleness,
       .max_staleness = Micros(100)});
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.served_by, ServedBy::kView);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_GT(t.cluster.metrics().freshness_targeted_repairs, 0u);
  EXPECT_EQ(t.cluster.freshness()
                .BlockersBefore("assigned_to_view", "rliu",
                                store::kClientTimestampEpoch + t.cluster.Now())
                .wounded,
            0u);
}

TEST(ReadResultTest, PayloadKindMatchesOperation) {
  TestCluster t;
  LoadTicket(t, "1", "rliu", "open", 100);
  t.Quiesce();
  auto client = t.cluster.NewClient(0);

  auto get = client->GetSync("ticket", "1", store::ReadOptions{});
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get.payload_kind(), store::ReadPayload::kRow);
  EXPECT_EQ(get.served_by, ServedBy::kBaseScan);

  auto view = client->QuerySync(
      QuerySpec::View("assigned_to_view", "rliu"), store::ReadOptions{});
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.payload_kind(), store::ReadPayload::kRecords);

  auto index =
      client->QuerySync(
          QuerySpec::Index("ticket", "assigned_to", "rliu"),
          store::ReadOptions{});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index.payload_kind(), store::ReadPayload::kRows);
  EXPECT_EQ(index.served_by, ServedBy::kSiPath);
  EXPECT_NE(index.freshness, kNullTimestamp);
}

TEST(ReadResultTest, BoundedBaseGetClaimsCurrentFreshness) {
  TestCluster t;
  LoadTicket(t, "1", "rliu", "open", 100);
  t.Quiesce();
  auto client = t.cluster.NewClient(0);

  // kBoundedStaleness on a base Get widens the quorum to all replicas and
  // claims freshness "now".
  auto result = client->GetSync(
      "ticket", "1", {.consistency = ReadConsistency::kBoundedStaleness});
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result.freshness, kNullTimestamp);
  const Timestamp now_ts = store::kClientTimestampEpoch + t.cluster.Now();
  EXPECT_LE(now_ts - result.freshness, Millis(5));
}

// ---------------------------------------------------------------------------
// The acceptance property: under a nemesis schedule, a bounded read never
// returns a row older than its bound.
// ---------------------------------------------------------------------------

TEST(BoundedStalenessPropertyTest, NeverServesOlderThanBoundUnderNemesis) {
  store::ClusterConfig config = test::DefaultTestConfig();
  // Majority writes: an acked write survives any single crash, so the
  // "every write older than the bound is reflected" obligation is
  // well-defined even while servers die.
  config.default_write_quorum = 2;
  TestCluster t(config);

  const std::vector<std::string> assignees = {"alice", "bob", "carol"};
  const int kKeys = 6;
  for (int i = 0; i < kKeys; ++i) {
    LoadTicket(t, std::to_string(i), assignees[i % assignees.size()],
               "s-boot", 100 + i);
  }
  t.Quiesce();

  // Reader and writer both coordinate through server 0; the nemesis crashes
  // and restarts replicas 1..3 so quorum ops and propagations keep hitting
  // failures without killing the tracker's own coordinator.
  auto writer = t.cluster.NewClient(0);
  auto reader = t.cluster.NewClient(0);
  writer->set_request_timeout(Millis(200));
  reader->set_request_timeout(Millis(500));

  const SimTime kBound = Millis(50);
  Rng rng(0xF5E5);

  // Acked write history per base key: (write ts -> sequence number), and
  // the value each sequence produced. Values encode their sequence.
  std::map<std::string, std::map<Timestamp, int>> acked;
  int checked_reads = 0;

  for (int round = 0; round < 120; ++round) {
    // Nemesis step: flip one replica's liveness with probability ~1/4.
    if (rng.UniformInt(0, 3) == 0) {
      const auto victim = static_cast<ServerId>(rng.UniformInt(1, 3));
      if (!t.cluster.CrashServer(victim)) t.cluster.RestartServer(victim);
    }

    // One write: bump a random key's status.
    const std::string key = std::to_string(rng.UniformInt(0, kKeys - 1));
    const int seq = round;
    bool write_done = false;
    writer->Put("ticket", key, {{"status", "s" + std::to_string(seq)}},
                store::WriteOptions{},
                [&, key, seq](store::WriteResult w) {
                  write_done = true;
                  if (w.ok()) acked[key][w.ts] = seq;
                });
    while (!write_done) ASSERT_TRUE(t.cluster.simulation().Step());

    // One bounded read against a random assignee.
    const std::string& assignee =
        assignees[static_cast<std::size_t>(rng.UniformInt(0, 2))];
    const SimTime issue_now = t.cluster.Now();
    bool read_done = false;
    reader->Query(
        QuerySpec::View("assigned_to_view", assignee),
        {.consistency = ReadConsistency::kBoundedStaleness,
         .max_staleness = kBound}, [&](store::ReadResult r) {
          read_done = true;
          if (!r.ok()) return;  // failing is allowed; serving stale is not
          ++checked_reads;
          // Every record must reflect at least the newest acked write
          // whose timestamp is <= (issue time - bound).
          const Timestamp need =
              store::kClientTimestampEpoch + issue_now - kBound;
          for (const auto& record : r.records) {
            auto history = acked.find(record.base_key);
            if (history == acked.end()) continue;
            int min_seq = -1;
            for (const auto& [ts, seq_at] : history->second) {
              if (ts <= need) min_seq = seq_at;
            }
            if (min_seq < 0) continue;  // no write old enough to be owed
            const std::string status =
                record.cells.GetValue("status").value_or("");
            ASSERT_TRUE(status.size() > 1 && status[0] == 's' &&
                        status != "s-boot")
                << "bounded read returned pre-bound bootstrap value "
                << status;
            const int got_seq = std::atoi(status.c_str() + 1);
            EXPECT_GE(got_seq, min_seq)
                << "bounded read on " << record.base_key
                << " returned a value older than the staleness bound";
          }
        });
    while (!read_done) ASSERT_TRUE(t.cluster.simulation().Step());
  }

  // Bring everyone back and drain.
  for (ServerId id = 1; id <= 3; ++id) t.cluster.RestartServer(id);
  t.Quiesce();
  EXPECT_GT(checked_reads, 20) << "nemesis starved the bounded reads";
}

}  // namespace
}  // namespace mvstore
