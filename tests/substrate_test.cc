// Substrate mechanisms added around the core store: bloom filters on runs,
// hinted handoff, Merkle-style anti-entropy, and scan-path read repair.

#include <gtest/gtest.h>

#include <string>

#include "storage/bloom.h"
#include "storage/run.h"
#include "store/client.h"
#include "store/codec.h"
#include "tests/test_util.h"

namespace mvstore {
namespace {

using storage::BloomFilter;
using storage::Cell;
using storage::Row;
using test::TestCluster;

// ---------------------------------------------------------------------------
// Bloom filters.
// ---------------------------------------------------------------------------

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter filter(1000);
  for (int i = 0; i < 1000; ++i) {
    filter.Add("key" + std::to_string(i));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(filter.MayContain("key" + std::to_string(i))) << i;
  }
}

TEST(BloomFilterTest, LowFalsePositiveRate) {
  BloomFilter filter(1000, /*bits_per_key=*/10);
  for (int i = 0; i < 1000; ++i) {
    filter.Add("key" + std::to_string(i));
  }
  int false_positives = 0;
  constexpr int kProbes = 10000;
  for (int i = 0; i < kProbes; ++i) {
    if (filter.MayContain("absent" + std::to_string(i))) ++false_positives;
  }
  // 10 bits/key targets ~1%; allow generous slack.
  EXPECT_LT(false_positives, kProbes / 20);
  EXPECT_LT(filter.EstimatedFalsePositiveRate(), 0.05);
}

TEST(BloomFilterTest, EmptyFilterRejectsEverything) {
  BloomFilter filter(100);
  EXPECT_FALSE(filter.MayContain("anything"));
}

TEST(BloomFilterTest, RunShortCircuitsMisses) {
  std::vector<storage::KeyedRow> entries;
  for (int i = 0; i < 100; ++i) {
    Row row;
    row.Apply("c", Cell::Live("v", 1));
    entries.push_back(storage::KeyedRow{"k" + std::to_string(1000 + i), row});
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  auto run = storage::Run::FromSorted(std::move(entries));
  // Misses outside [min_key, max_key] are rejected by the key fence before
  // the bloom filter is even consulted.
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(run->Get("zz" + std::to_string(i)), nullptr);
  }
  EXPECT_EQ(run->fence_skips(), 1000u);
  EXPECT_EQ(run->bloom_negatives(), 0u);
  // Misses inside the key range fall through to the filter, which must
  // answer the vast majority without touching the entries.
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(run->Get("k1050x" + std::to_string(i)), nullptr);
  }
  EXPECT_EQ(run->fence_skips(), 1000u);
  EXPECT_GT(run->bloom_negatives(), 900u);
}

// ---------------------------------------------------------------------------
// Hinted handoff.
// ---------------------------------------------------------------------------

store::Schema PlainSchema() {
  store::Schema schema;
  MVSTORE_CHECK(schema.CreateTable({.name = "t"}).ok());
  return schema;
}

TEST(HintedHandoffTest, HintsStoredForUnackedReplicaAndReplayed) {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.rpc_timeout = Millis(50);
  config.hint_replay_interval = Millis(200);
  config.anti_entropy_interval = 0;  // hints must do this alone
  TestCluster t(config, PlainSchema());

  const auto replicas = t.cluster.server(0).ReplicasOf("t", "k");
  const ServerId down = replicas[2];
  t.cluster.network().SetEndpointDown(down, true);

  ServerId coordinator = 0;
  while (coordinator == down) ++coordinator;
  auto client = t.cluster.NewClient(coordinator);
  ASSERT_TRUE(
      client->PutSync("t", "k", {{"a", std::string("v")}}, {.quorum = 1})
          .ok());
  t.cluster.RunFor(Millis(100));  // past the rpc timeout

  EXPECT_GT(t.cluster.metrics().hints_stored, 0u);
  EXPECT_EQ(t.cluster.server(coordinator).pending_hints(down), 1u);
  // While the target stays down, replays do not clear the queue.
  t.cluster.RunFor(Millis(600));
  EXPECT_EQ(t.cluster.server(coordinator).pending_hints(down), 1u);

  // Recovery: the next replay delivers and retires the hint.
  t.cluster.network().SetEndpointDown(down, false);
  t.cluster.RunFor(Millis(600));
  EXPECT_EQ(t.cluster.server(coordinator).pending_hints(down), 0u);
  EXPECT_GT(t.cluster.metrics().hints_replayed, 0u);
  auto cell = t.cluster.server(down).EngineFor("t").GetCell("k", "a");
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->value, "v");
}

TEST(HintedHandoffTest, NoHintsWhenAllReplicasAck) {
  store::ClusterConfig config = test::DefaultTestConfig();
  TestCluster t(config, PlainSchema());
  auto client = t.cluster.NewClient();
  ASSERT_TRUE(client->PutSync("t", "k", {{"a", std::string("v")}}, {.quorum = 3})
.ok());
  t.cluster.RunFor(Millis(400));
  EXPECT_EQ(t.cluster.metrics().hints_stored, 0u);
}

TEST(HintedHandoffTest, QueueCapDropsOldest) {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.rpc_timeout = Millis(20);
  config.hint_replay_interval = Seconds(100);  // effectively off
  TestCluster t(config, PlainSchema());

  const auto replicas = t.cluster.server(0).ReplicasOf("t", "k");
  const ServerId down = replicas[2];
  t.cluster.network().SetEndpointDown(down, true);
  ServerId coordinator = 0;
  while (coordinator == down) ++coordinator;
  auto client = t.cluster.NewClient(coordinator);
  // One hint per write, past the cap of 4096 per target.
  for (int i = 0; i < 4200; ++i) {
    ASSERT_TRUE(client
                    ->PutSync("t", "k", {{"a", std::to_string(i)}},
                              {.quorum = 1})
                    .ok());
  }
  t.cluster.RunFor(Millis(100));
  EXPECT_LE(t.cluster.server(coordinator).pending_hints(down), 4096u);
  EXPECT_GT(t.cluster.metrics().hints_dropped, 0u);
}

// ---------------------------------------------------------------------------
// Merkle-style anti-entropy.
// ---------------------------------------------------------------------------

TEST(AntiEntropyTest, InSyncReplicasExchangeOnlyDigests) {
  store::ClusterConfig config = test::DefaultTestConfig();
  TestCluster t(config, PlainSchema());
  for (int i = 0; i < 50; ++i) {
    t.cluster.BootstrapLoadRow("t", "k" + std::to_string(i),
                               {{"a", std::to_string(i)}}, 100 + i);
  }
  t.cluster.server(0).RunAntiEntropyRound();
  t.cluster.RunFor(Millis(200));
  EXPECT_GT(t.cluster.metrics().anti_entropy_digest_exchanges, 0u);
  EXPECT_EQ(t.cluster.metrics().anti_entropy_buckets_synced, 0u);
  EXPECT_EQ(t.cluster.metrics().anti_entropy_rows_pushed, 0u);
}

TEST(AntiEntropyTest, DivergentRowSyncsBothWays) {
  store::ClusterConfig config = test::DefaultTestConfig();
  TestCluster t(config, PlainSchema());
  for (int i = 0; i < 50; ++i) {
    t.cluster.BootstrapLoadRow("t", "k" + std::to_string(i),
                               {{"a", std::to_string(i)}}, 100 + i);
  }
  // Diverge: replica[0] gets a newer cell for k7 the others lack; replica[1]
  // gets one for k9.
  const auto r7 = t.cluster.server(0).ReplicasOf("t", "k7");
  Row newer7;
  newer7.Apply("a", Cell::Live("newer7", 5000));
  t.cluster.server(r7[0]).EngineFor("t").ApplyRow("k7", newer7);
  const auto r9 = t.cluster.server(0).ReplicasOf("t", "k9");
  Row newer9;
  newer9.Apply("a", Cell::Live("newer9", 5000));
  t.cluster.server(r9[1]).EngineFor("t").ApplyRow("k9", newer9);

  for (int s = 0; s < t.cluster.num_servers(); ++s) {
    t.cluster.server(static_cast<ServerId>(s)).RunAntiEntropyRound();
  }
  t.cluster.RunFor(Millis(500));

  EXPECT_GT(t.cluster.metrics().anti_entropy_buckets_synced, 0u);
  for (ServerId replica : r7) {
    auto cell = t.cluster.server(replica).EngineFor("t").GetCell("k7", "a");
    ASSERT_TRUE(cell.has_value());
    EXPECT_EQ(cell->value, "newer7") << "replica " << replica;
  }
  for (ServerId replica : r9) {
    auto cell = t.cluster.server(replica).EngineFor("t").GetCell("k9", "a");
    ASSERT_TRUE(cell.has_value());
    EXPECT_EQ(cell->value, "newer9") << "replica " << replica;
  }
}

TEST(AntiEntropyTest, DigestsCoverOnlySharedKeys) {
  store::ClusterConfig config = test::DefaultTestConfig();
  TestCluster t(config, PlainSchema());
  for (int i = 0; i < 100; ++i) {
    t.cluster.BootstrapLoadRow("t", "k" + std::to_string(i),
                               {{"a", std::string("v")}}, 100 + i);
  }
  // For any pair (a, b), a's digests over keys shared with b must equal b's
  // digests over keys shared with a.
  for (ServerId a = 0; a < 4; ++a) {
    for (ServerId b = 0; b < 4; ++b) {
      if (a == b) continue;
      EXPECT_EQ(t.cluster.server(a).ComputeSyncDigests("t", b),
                t.cluster.server(b).ComputeSyncDigests("t", a))
          << a << " vs " << b;
    }
  }
}

// ---------------------------------------------------------------------------
// Scan-path read repair.
// ---------------------------------------------------------------------------

TEST(ScanRepairTest, ViewPartitionHealsOnRead) {
  TestCluster t;  // ticket schema with the view
  t.cluster.BootstrapLoadRow("ticket", "1",
                             {{"assigned_to", std::string("alice")},
                              {"status", std::string("open")}},
                             100);
  // Diverge: one replica holds a NEWER status cell the others missed (as if
  // a propagation write reached only it).
  const Key row_key = store::ComposeViewRowKey("alice", "1");
  const auto replicas =
      t.cluster.server(0).ReplicasOf("assigned_to_view", row_key);
  Row newer;
  newer.Apply("status",
              Cell::Live("resolved", store::kClientTimestampEpoch + 1));
  t.cluster.server(replicas[2]).EngineFor("assigned_to_view").ApplyRow(
      row_key, newer);

  auto client = t.cluster.NewClient();
  // A full-quorum view read observes all three replicas, returns the newest
  // value, and pushes repairs to the lagging replicas.
  auto records = client->QuerySync(
      store::QuerySpec::View("assigned_to_view", "alice"), {.quorum = 3});
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.records.size(), 1u);
  EXPECT_EQ(records.records[0].cells.GetValue("status").value_or(""), "resolved");
  t.cluster.RunFor(Millis(100));
  EXPECT_GT(t.cluster.metrics().read_repairs, 0u);
  for (ServerId replica : replicas) {
    auto cell = t.cluster.server(replica)
                    .EngineFor("assigned_to_view")
                    .GetCell(row_key, "status");
    ASSERT_TRUE(cell.has_value()) << "replica " << replica;
    EXPECT_EQ(cell->value, "resolved") << "replica " << replica;
  }
}

}  // namespace
}  // namespace mvstore
