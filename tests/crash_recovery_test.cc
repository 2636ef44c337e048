// Crash-stop fault model, end to end: commit-log durability at the engine,
// Server::Crash/Restart semantics (in-flight op aborts, WAL replay), lock
// lease expiry for holds stranded by a crashed coordinator, owned-range
// scrub recovery of orphaned propagations, and the chaos invariant — after
// a seeded nemesis run heals and the cluster quiesces, every view equals
// the Definition-1 recomputation of its base table.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bitset>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "sim/nemesis.h"
#include "storage/engine.h"
#include "store/client.h"
#include "store/codec.h"
#include "tests/test_util.h"
#include "view/scrub.h"

namespace mvstore {
namespace {

using storage::Cell;

// --------------------------------------------------------------------------
// Engine-level commit log.
// --------------------------------------------------------------------------

TEST(EngineWalTest, CrashLosesMemtableAndRecoveryReplaysIt) {
  storage::Engine engine;
  engine.Apply("k1", "c", Cell::Live("v1", 10));
  engine.Apply("k2", "c", Cell::Live("v2", 11));
  ASSERT_EQ(engine.commit_log_cells(), 2u);

  engine.LoseVolatileState();
  EXPECT_FALSE(engine.GetRow("k1").has_value()) << "memtable must be gone";

  EXPECT_EQ(engine.RecoverFromLog(), 2u);
  auto row = engine.GetRow("k1");
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->GetValue("c"), "v1");
  EXPECT_EQ(engine.GetRow("k2")->GetValue("c"), "v2");
}

TEST(EngineWalTest, FlushCheckpointsTheLog) {
  storage::Engine engine;
  engine.Apply("k1", "c", Cell::Live("v1", 10));
  engine.Flush();
  EXPECT_EQ(engine.commit_log_cells(), 0u) << "flush truncates the log";

  engine.Apply("k2", "c", Cell::Live("v2", 11));
  engine.LoseVolatileState();
  EXPECT_EQ(engine.RecoverFromLog(), 1u) << "only the unflushed suffix";
  // The flushed cell survives in the durable run; the logged one replays.
  EXPECT_EQ(engine.GetRow("k1")->GetValue("c"), "v1");
  EXPECT_EQ(engine.GetRow("k2")->GetValue("c"), "v2");
}

// --------------------------------------------------------------------------
// Server crash/restart.
// --------------------------------------------------------------------------

TEST(CrashRecoveryTest, RestartReplaysCommitLogAndDataSurvives) {
  test::TestCluster t;
  auto client = t.cluster.NewClient(/*coordinator=*/1);
  // Full-quorum writes so server 0 definitely holds every row.
  for (int k = 0; k < 6; ++k) {
    ASSERT_TRUE(client
                    ->PutSync("ticket", "t" + std::to_string(k),
                              {{"assigned_to", std::string("alice")},
                               {"status", std::string("open")}},
                              {.quorum = 3})
                    .ok());
  }
  t.Quiesce();

  t.cluster.CrashServer(0);
  t.cluster.RunFor(Millis(50));
  t.cluster.RestartServer(0);
  t.cluster.RunFor(Millis(50));

  EXPECT_EQ(t.cluster.metrics().server_crashes, 1u);
  EXPECT_EQ(t.cluster.metrics().server_restarts, 1u);
  EXPECT_GT(t.cluster.metrics().wal_cells_replayed, 0u)
      << "server 0 replicated rows from its memtable via the commit log";

  // Server 0's replica is intact: read it directly.
  for (int k = 0; k < 6; ++k) {
    const Key key = "t" + std::to_string(k);
    auto local = t.cluster.server(0).EngineFor("ticket").GetRow(key);
    if (!local.has_value()) continue;  // not a replica of this key
    EXPECT_EQ((*local).GetValue("assigned_to"), "alice") << key;
  }
  auto row = client->GetSync("ticket", "t0",
                             {.quorum = 3, .columns = {"status"}});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row.row.GetValue("status"), "open");
}

TEST(CrashRecoveryTest, CrashAbortsInflightCoordinatorOps) {
  test::TestCluster t;
  t.cluster.BootstrapLoadRow("ticket", "t0",
                             {{"assigned_to", std::string("alice")},
                              {"status", std::string("open")}},
                             100);
  auto client = t.cluster.NewClient(/*coordinator=*/0);
  client->set_request_timeout(Millis(500));

  // Pin the write in flight: one replica is unreachable, so a full-quorum
  // Put sits at the coordinator waiting out the rpc timeout.
  const auto replicas = t.cluster.server(0).ReplicasOf("ticket", "t0");
  ServerId slow = replicas[0] != 0 ? replicas[0] : replicas[1];
  t.cluster.network().SetEndpointDown(slow, true);

  bool replied = false;
  Status result = Status::OK();
  client->Put("ticket", "t0", {{"status", std::string("closed")}},
              {.quorum = 3}, [&replied, &result](store::WriteResult w) {
                replied = true;
                result = w.status;
              });
  // Let the request reach the coordinator, then kill it mid-operation.
  t.cluster.RunFor(Millis(5));
  t.cluster.CrashServer(0);
  EXPECT_GT(t.cluster.metrics().inflight_ops_aborted, 0u);

  // A dead coordinator cannot answer; the client's own deadline resolves
  // the call.
  t.cluster.network().SetEndpointDown(slow, false);
  t.cluster.RunFor(Seconds(1));
  ASSERT_TRUE(replied);
  EXPECT_FALSE(result.ok());
}

// --------------------------------------------------------------------------
// Lock leases + owned-range scrub: the ISSUE's acceptance scenario. A
// coordinator crashes while holding view-propagation locks; the lease TTL
// reclaims them, the orphaned propagations never finish, and the periodic
// owned-range scrub re-derives the affected view rows — bounded-time
// recovery, visible in the fault counters.
// --------------------------------------------------------------------------

TEST(CrashRecoveryTest, CrashedLockHolderIsReclaimedAndScrubConverges) {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.propagation_mode = store::PropagationMode::kLockService;
  config.lock_lease_ttl = Millis(50);
  config.view_scrub_interval = Millis(200);
  config.anti_entropy_interval = Millis(300);
  test::TestCluster t(config);
  for (int k = 0; k < 8; ++k) {
    t.cluster.BootstrapLoadRow(
        "ticket", "t" + std::to_string(k),
        {{"assigned_to", "a" + std::to_string(k % 3)},
         {"status", std::string("open")}},
        100 + k);
  }

  auto client = t.cluster.NewClient(/*coordinator=*/0);
  client->set_request_timeout(Millis(100));
  for (int k = 0; k < 8; ++k) {
    client->Put("ticket", "t" + std::to_string(k),
                {{"assigned_to", "b" + std::to_string(k)}}, {.quorum = 1},
                [](store::WriteResult) {});
  }
  // Step until some propagation from server 0 holds its lock, then crash
  // the coordinator: the holds are stranded (a dead process cannot send
  // Release) and its propagations are orphaned.
  while (t.views->lock_service().holds_outstanding() == 0) {
    ASSERT_TRUE(t.cluster.simulation().Step()) << "no lock ever granted";
  }
  t.cluster.CrashServer(0);
  EXPECT_GT(t.cluster.metrics().propagations_orphaned, 0u);

  // The lease TTL bounds how long the stranded holds persist.
  t.cluster.RunFor(Millis(100));
  EXPECT_GT(t.cluster.metrics().locks_expired, 0u)
      << "stranded holds must be reclaimed within the lease TTL";

  t.cluster.RestartServer(0);
  t.Quiesce();
  t.cluster.RunFor(Millis(800));  // > 2 scrub periods + anti-entropy rounds

  EXPECT_GT(t.cluster.metrics().orphaned_propagations_recovered, 0u)
      << "the owned-range scrub must repair the orphaned families";

  // Value-level convergence: the view equals the Definition-1 recomputation.
  auto expected = view::ComputeExpectedView(t.cluster, test::TicketView(t.cluster));
  auto exposed = view::ReadConvergedView(t.cluster, test::TicketView(t.cluster));
  ASSERT_EQ(expected.size(), exposed.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].view_key, exposed[i].view_key);
    EXPECT_EQ(expected[i].base_key, exposed[i].base_key);
    EXPECT_EQ(expected[i].cells.GetValue("status"),
              exposed[i].cells.GetValue("status"))
        << expected[i].base_key;
  }
}

// --------------------------------------------------------------------------
// Chaos invariant: a seeded nemesis (crashes, partitions, drop surges,
// latency spikes) over a live workload; after healing and quiescence the
// views must equal recomputation for every seed.
// --------------------------------------------------------------------------

TEST(CrashRecoveryTest, ChaosNemesisViewsConvergeAfterHeal) {
  for (std::uint64_t seed : {7u, 31u}) {
    store::ClusterConfig config = test::DefaultTestConfig();
    config.seed = seed;
    config.rpc_timeout = Millis(50);
    config.lock_lease_ttl = Millis(100);
    config.view_scrub_interval = Millis(250);
    config.anti_entropy_interval = Millis(300);
    test::TestCluster t(config);
    for (int k = 0; k < 12; ++k) {
      t.cluster.BootstrapLoadRow(
          "ticket", "t" + std::to_string(k),
          {{"assigned_to", "a" + std::to_string(k % 3)},
           {"status", std::string("open")}},
          100 + k);
    }

    sim::Nemesis nemesis(
        &t.cluster.simulation(), &t.cluster.network(),
        [&t](sim::EndpointId s) { t.cluster.CrashServer(s); },
        [&t](sim::EndpointId s) { t.cluster.RestartServer(s); });
    sim::NemesisOptions options;
    options.horizon = Seconds(3);
    options.num_servers = t.cluster.num_servers();
    options.crashes = 3;
    options.min_downtime = Millis(150);
    options.max_downtime = Millis(600);
    options.partitions = 2;
    options.drop_surges = 1;
    options.latency_spikes = 1;
    const sim::FaultSchedule schedule =
        sim::GenerateRandomSchedule(Rng(seed * 31), options);
    ASSERT_FALSE(schedule.empty());
    nemesis.Schedule(schedule);
    nemesis.HealAllAt(options.horizon);

    // Closed-loop workload: 3 clients on distinct coordinators, each with a
    // request deadline so a crashed coordinator doesn't wedge its loop.
    Rng rng(seed * 77);
    std::vector<std::unique_ptr<store::Client>> clients;
    std::function<void(int)> issue = [&](int c) {
      const Key key = "t" + std::to_string(rng.UniformInt(0, 11));
      auto next = [&issue, c](bool) { issue(c); };
      if (rng.Chance(0.5)) {
        clients[c]->Put(
            "ticket", key,
            {{"assigned_to", "a" + std::to_string(rng.UniformInt(0, 5))}},
            {.quorum = 1},
            [next](store::WriteResult w) { next(w.ok()); });
      } else if (rng.Chance(0.5)) {
        clients[c]->Put("ticket", key,
                        {{"status", rng.Chance(0.5) ? "open" : "closed"}},
                        {.quorum = 1},
                        [next](store::WriteResult w) { next(w.ok()); });
      } else {
        clients[c]->Query(
            store::QuerySpec::View("assigned_to_view", "a" + std::to_string(rng.UniformInt(0, 5))),
            {.columns = {"status"}},
            [next](store::ReadResult r) { next(r.ok()); });
      }
    };
    for (int c = 0; c < 3; ++c) {
      clients.push_back(t.cluster.NewClient(c));
      clients.back()->set_request_timeout(Millis(120));
      issue(c);
    }

    t.cluster.RunFor(options.horizon + Millis(500));
    EXPECT_EQ(nemesis.events_fired(), schedule.size()) << "seed " << seed;
    const store::Metrics& m = t.cluster.metrics();
    EXPECT_GT(m.server_crashes, 0u) << "seed " << seed;
    EXPECT_EQ(m.server_crashes, m.server_restarts) << "seed " << seed;

    // Drain: stop issuing by swapping the loop out, then quiesce and give
    // the scrub + anti-entropy their convergence window.
    issue = [](int) {};
    t.views->Quiesce();
    t.cluster.RunFor(Seconds(2));

    // Every base-table replica converged (value level).
    for (int k = 0; k < 12; ++k) {
      const Key key = "t" + std::to_string(k);
      const auto replicas = t.cluster.server(0).ReplicasOf("ticket", key);
      std::optional<storage::Row> first;
      for (ServerId r : replicas) {
        auto row = t.cluster.server(r).EngineFor("ticket").GetRow(key);
        ASSERT_TRUE(row.has_value())
            << "seed " << seed << ": replica " << r << " lost " << key;
        if (!first.has_value()) {
          first = row;
          continue;
        }
        EXPECT_EQ(first->GetValue("assigned_to"), row->GetValue("assigned_to"))
            << "seed " << seed << " " << key << " replica " << r;
        EXPECT_EQ(first->GetValue("status"), row->GetValue("status"))
            << "seed " << seed << " " << key << " replica " << r;
      }
    }

    auto expected =
        view::ComputeExpectedView(t.cluster, test::TicketView(t.cluster));
    auto exposed =
        view::ReadConvergedView(t.cluster, test::TicketView(t.cluster));
    ASSERT_EQ(expected.size(), exposed.size()) << "seed " << seed;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].view_key, exposed[i].view_key) << "seed " << seed;
      EXPECT_EQ(expected[i].base_key, exposed[i].base_key) << "seed " << seed;
      EXPECT_EQ(expected[i].cells.GetValue("status"),
                exposed[i].cells.GetValue("status"))
          << "seed " << seed << " " << expected[i].base_key;
    }
  }
}

// --------------------------------------------------------------------------
// Repair/GC convergence hazards.
// --------------------------------------------------------------------------

store::Schema PlainSchema() {
  store::Schema schema;
  MVSTORE_CHECK(schema.CreateTable({.name = "t"}).ok());
  return schema;
}

// The anti-entropy digest used to XOR per-bucket entry hashes. XOR makes the
// bucket digest a GF(2)-linear map of the entry set: any linearly dependent
// set of 64-bit entry hashes (guaranteed to exist once a bucket holds more
// than 64 rows, and constructible with far fewer) cancels to zero, so a
// replica holding exactly that row set is indistinguishable from one holding
// NONE of the rows — the bucket never syncs and the replicas diverge forever.
// This test constructs such a cancelling set by Gaussian elimination over
// GF(2) and asserts the salted sum-with-count digest now tells them apart and
// the rows actually converge.
TEST(AntiEntropyRegressionTest, XorCancellingRowSetIsCaughtByCountedDigest) {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.replication_factor = 2;
  config.anti_entropy_interval = 0;  // manual rounds only
  test::TestCluster t(config, PlainSchema());
  const std::size_t kBuckets =
      t.cluster.server(0).ComputeSyncDigests("t", 1).size();

  // Candidate keys that share one replica pair AND one digest bucket; 65+
  // 64-bit hashes in one bucket guarantee a linearly dependent subset.
  std::map<std::pair<std::pair<ServerId, ServerId>, std::size_t>,
           std::vector<Key>>
      groups;
  std::vector<Key> keys;
  ServerId holder = 0;
  ServerId peer = 0;
  std::size_t bucket = 0;
  for (int i = 0; i < 200000 && keys.empty(); ++i) {
    Key key = "x" + std::to_string(i);
    const auto replicas = t.cluster.server(0).ReplicasOf("t", key);
    const std::pair<ServerId, ServerId> pair{
        std::min(replicas[0], replicas[1]),
        std::max(replicas[0], replicas[1])};
    const std::size_t b = Hash64(key) % kBuckets;
    auto& group = groups[{pair, b}];
    group.push_back(key);
    if (group.size() >= 80) {
      keys = group;
      holder = pair.first;
      peer = pair.second;
      bucket = b;
    }
  }
  ASSERT_GE(keys.size(), 65u) << "not enough co-bucketed keys found";

  std::vector<storage::Row> rows;
  std::vector<std::uint64_t> hashes;
  for (const Key& key : keys) {
    storage::Row row;
    row.Apply("a", Cell::Live(key, 100));
    // The OLD formula's per-entry hash, recomputed here verbatim.
    hashes.push_back(HashCombine(Hash64(key), storage::RowDigest(row)));
    rows.push_back(std::move(row));
  }

  // Gaussian elimination over GF(2): find a non-empty subset whose entry
  // hashes XOR to zero, tracking subset membership alongside each reduced
  // vector.
  std::array<std::uint64_t, 64> basis_vec{};
  std::array<std::bitset<128>, 64> basis_mask{};
  std::bitset<128> subset;
  bool found = false;
  for (std::size_t i = 0; i < hashes.size() && !found; ++i) {
    std::uint64_t v = hashes[i];
    std::bitset<128> mask;
    mask.set(i);
    while (v != 0) {
      int bit = 63;
      while (((v >> bit) & 1u) == 0) --bit;
      if (basis_vec[static_cast<std::size_t>(bit)] == 0) {
        basis_vec[static_cast<std::size_t>(bit)] = v;
        basis_mask[static_cast<std::size_t>(bit)] = mask;
        break;
      }
      v ^= basis_vec[static_cast<std::size_t>(bit)];
      mask ^= basis_mask[static_cast<std::size_t>(bit)];
    }
    if (v == 0) {
      subset = mask;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "65+ vectors in a 64-dim space must be dependent";

  // Apply the cancelling set to ONE replica of the pair only.
  std::uint64_t xor_fold = 0;
  std::size_t subset_size = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (!subset[i]) continue;
    xor_fold ^= hashes[i];
    ++subset_size;
    t.cluster.server(holder).LocalApply("t", keys[i], rows[i]);
  }
  ASSERT_GT(subset_size, 0u);
  // The hazard, demonstrated: under the old XOR fold both replicas computed
  // digest 0 for this bucket — rows on one side, nothing on the other.
  ASSERT_EQ(xor_fold, 0u);

  const auto mine = t.cluster.server(holder).ComputeSyncDigests("t", peer);
  const auto theirs = t.cluster.server(peer).ComputeSyncDigests("t", holder);
  EXPECT_NE(mine[bucket], theirs[bucket])
      << "counted digest must distinguish " << subset_size
      << " rows from an empty bucket";

  t.cluster.server(holder).RunAntiEntropyRound();
  t.cluster.RunFor(Millis(500));
  EXPECT_GT(t.cluster.metrics().anti_entropy_buckets_synced, 0u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (!subset[i]) continue;
    auto cell = t.cluster.server(peer).EngineFor("t").GetCell(keys[i], "a");
    ASSERT_TRUE(cell.has_value()) << keys[i] << " never reached the peer";
    EXPECT_EQ(cell->value, keys[i]);
  }
}

// --------------------------------------------------------------------------
// Key-granular anti-entropy: inside a mismatched bucket only the rows whose
// digests differ, or that one side lacks, cross the wire, in messages of at
// most 128 rows.
// --------------------------------------------------------------------------

store::ClusterConfig ManualAntiEntropyConfig() {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.replication_factor = 2;
  config.anti_entropy_interval = 0;  // manual rounds only
  return config;
}

/// The first `count` keys "<prefix><i>" replicated on exactly `a` and `b`.
std::vector<Key> KeysReplicatedOn(store::Server& server, ServerId a,
                                  ServerId b, const std::string& prefix,
                                  std::size_t count) {
  std::vector<Key> keys;
  for (int i = 0; keys.size() < count; ++i) {
    Key key = prefix + std::to_string(i);
    const auto& replicas = server.ReplicasOf("t", key);
    if (std::find(replicas.begin(), replicas.end(), a) != replicas.end() &&
        std::find(replicas.begin(), replicas.end(), b) != replicas.end()) {
      keys.push_back(std::move(key));
    }
  }
  return keys;
}

storage::Row LiveRow(const Value& value, Timestamp ts) {
  storage::Row row;
  row.Apply("a", Cell::Live(value, ts));
  return row;
}

TEST(AntiEntropyTest, OneDivergentRowInABusyBucketIsTheOnlyRowPushed) {
  test::TestCluster t(ManualAntiEntropyConfig(), PlainSchema());
  constexpr ServerId kHolder = 0;
  constexpr ServerId kPeer = 1;
  const std::vector<Key> keys =
      KeysReplicatedOn(t.cluster.server(0), kHolder, kPeer, "k", 1280);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    t.cluster.BootstrapLoadRow("t", keys[i], {{"a", std::string("v")}},
                               static_cast<Timestamp>(100 + i));
  }
  const Key& key = keys[0];
  const std::size_t buckets =
      t.cluster.server(kHolder).ComputeSyncDigests("t", kPeer).size();
  const auto bucket_of = [&](const Key& k) { return Hash64(k) % buckets; };
  const auto bucket_mates =
      std::count_if(keys.begin(), keys.end(),
                    [&](const Key& k) { return bucket_of(k) == bucket_of(key); });
  ASSERT_GE(bucket_mates, 10) << "the bucket must hold many shared rows";

  // A write that reached only one replica of the pair.
  t.cluster.server(kHolder).EngineFor("t").ApplyRow(key, LiveRow("new", 5000));
  t.cluster.server(kHolder).RunAntiEntropyRound();
  t.cluster.RunFor(Millis(500));

  const store::Metrics& m = t.cluster.metrics();
  EXPECT_EQ(m.anti_entropy_buckets_synced.value(), 1u);
  EXPECT_EQ(m.anti_entropy_rows_pushed.value(), 1u)
      << "only the divergent row may cross, not its " << bucket_mates
      << "-row bucket";
  for (ServerId s : {kHolder, kPeer}) {
    EXPECT_EQ(t.cluster.server(s).EngineFor("t").GetCell(key, "a")->value,
              "new")
        << "server " << s;
  }
  EXPECT_EQ(t.cluster.server(kHolder).ComputeSyncDigests("t", kPeer),
            t.cluster.server(kPeer).ComputeSyncDigests("t", kHolder));
}

TEST(AntiEntropyTest, KeyHeldByOneSideIsPushedOrPulled) {
  test::TestCluster t(ManualAntiEntropyConfig(), PlainSchema());
  constexpr ServerId kInitiator = 0;
  constexpr ServerId kPeer = 2;
  const std::vector<Key> keys =
      KeysReplicatedOn(t.cluster.server(0), kInitiator, kPeer, "k", 2);
  const Key& ours = keys[0];
  const Key& theirs = keys[1];
  t.cluster.server(kInitiator).EngineFor("t").ApplyRow(ours,
                                                       LiveRow("ours", 10));
  t.cluster.server(kPeer).EngineFor("t").ApplyRow(theirs,
                                                  LiveRow("theirs", 20));

  t.cluster.server(kInitiator).RunAntiEntropyRound();
  t.cluster.RunFor(Millis(500));

  EXPECT_EQ(t.cluster.metrics().anti_entropy_rows_pushed.value(), 2u)
      << "one row pushed to the peer, one pulled back";
  for (ServerId s : {kInitiator, kPeer}) {
    auto& engine = t.cluster.server(s).EngineFor("t");
    ASSERT_TRUE(engine.GetCell(ours, "a").has_value()) << "server " << s;
    EXPECT_EQ(engine.GetCell(ours, "a")->value, "ours");
    ASSERT_TRUE(engine.GetCell(theirs, "a").has_value()) << "server " << s;
    EXPECT_EQ(engine.GetCell(theirs, "a")->value, "theirs");
  }
}

TEST(AntiEntropyTest, TombstoneOnOneReplicaIsRepaired) {
  test::TestCluster t(ManualAntiEntropyConfig(), PlainSchema());
  constexpr ServerId kInitiator = 1;
  constexpr ServerId kPeer = 3;
  const std::vector<Key> keys =
      KeysReplicatedOn(t.cluster.server(0), kInitiator, kPeer, "k", 20);
  for (const Key& key : keys) {
    t.cluster.BootstrapLoadRow("t", key, {{"a", std::string("v")}}, 100);
  }
  // The delete reached only the peer; the initiator still holds the live
  // cell it shadows.
  storage::Row deleted;
  deleted.Apply("a", Cell::Tombstone(200));
  t.cluster.server(kPeer).EngineFor("t").ApplyRow(keys[5], deleted);

  t.cluster.server(kInitiator).RunAntiEntropyRound();
  t.cluster.RunFor(Millis(500));

  EXPECT_EQ(t.cluster.metrics().anti_entropy_rows_pushed.value(), 2u)
      << "the live row out, the tombstoned merge back";
  for (ServerId s : {kInitiator, kPeer}) {
    auto cell = t.cluster.server(s).EngineFor("t").GetCell(keys[5], "a");
    ASSERT_TRUE(cell.has_value()) << "server " << s;
    EXPECT_TRUE(cell->tombstone) << "server " << s << " kept the live cell";
    EXPECT_EQ(cell->ts, 200);
  }
}

TEST(AntiEntropyTest, MoreDivergentRowsThanTheBatchCapShipInCappedMessages) {
  test::TestCluster t(ManualAntiEntropyConfig(), PlainSchema());
  constexpr ServerId kInitiator = 0;
  constexpr ServerId kPeer = 3;
  constexpr std::size_t kRows = 300;
  const std::vector<Key> keys =
      KeysReplicatedOn(t.cluster.server(0), kInitiator, kPeer, "k", kRows);
  for (const Key& key : keys) {
    t.cluster.server(kInitiator).EngineFor("t").ApplyRow(key,
                                                         LiveRow(key, 10));
  }

  const store::Metrics& m = t.cluster.metrics();
  const std::uint64_t sent_before = t.cluster.network().messages_sent();
  t.cluster.server(kInitiator).RunAntiEntropyRound();
  t.cluster.RunFor(Millis(500));
  const std::uint64_t sent = t.cluster.network().messages_sent() - sent_before;

  // Every (table, peer) exchange is a request and a reply; each chunk of at
  // most 128 rows is one more request and reply.
  const std::uint64_t chunks = (kRows + 127) / 128;
  EXPECT_EQ(sent, 2 * m.anti_entropy_digest_exchanges.value() + 2 * chunks);
  EXPECT_EQ(m.anti_entropy_rows_pushed.value(), kRows);
  for (const Key& key : keys) {
    auto cell = t.cluster.server(kPeer).EngineFor("t").GetCell(key, "a");
    ASSERT_TRUE(cell.has_value()) << key << " never reached the peer";
    EXPECT_EQ(cell->value, key);
  }
}

// A replica partitioned through a W=1 write burst, with hint replay and
// scrub off and no client reads, has one way back: anti-entropy rounds run
// by the replicas that took the writes push the rows it missed. Nothing else
// converges it, so a sync whose peer dropped pushed rows fails here.
TEST(AntiEntropyTest, OnlyAntiEntropyRepairsAReplicaPartitionedThroughWrites) {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.anti_entropy_interval = 0;  // manual rounds from the fresh replicas
  config.hint_replay_interval = 0;   // no hints are stored at all
  config.view_scrub_interval = 0;
  test::TestCluster t(config, PlainSchema());
  constexpr ServerId kLagging = 3;
  constexpr ServerId kCoordinator = 0;
  const std::vector<Key> keys =
      KeysReplicatedOn(t.cluster.server(0), kCoordinator, kLagging, "k", 40);
  // Half the keys exist everywhere at an old version; the burst overwrites
  // them and inserts the other half.
  for (std::size_t i = 0; i < keys.size() / 2; ++i) {
    t.cluster.BootstrapLoadRow("t", keys[i], {{"a", std::string("old")}},
                               100);
  }

  for (ServerId s = 0; s < kLagging; ++s) {
    t.cluster.network().PartitionLink(kLagging, s);
  }
  auto client = t.cluster.NewClient(kCoordinator);
  store::WriteOptions w1;
  w1.quorum = 1;
  for (const Key& key : keys) {
    ASSERT_TRUE(client->PutSync("t", key, {{"a", std::string("new")}}, w1)
                    .ok());
  }
  t.cluster.RunFor(Seconds(1));  // every replica-write retry gives up
  for (ServerId s = 0; s < kLagging; ++s) {
    t.cluster.network().RestoreLink(kLagging, s);
  }
  t.cluster.RunFor(Seconds(2));
  storage::Engine& lagging = t.cluster.server(kLagging).EngineFor("t");
  for (const Key& key : keys) {
    auto cell = lagging.GetCell(key, "a");
    ASSERT_TRUE(!cell.has_value() || cell->value == "old")
        << key << " reached the partitioned replica without anti-entropy";
  }

  for (ServerId s = 0; s < kLagging; ++s) {
    t.cluster.server(s).RunAntiEntropyRound();
  }
  t.cluster.RunFor(Millis(500));
  for (const Key& key : keys) {
    for (ServerId replica : t.cluster.server(0).ReplicasOf("t", key)) {
      auto cell = t.cluster.server(replica).EngineFor("t").GetCell(key, "a");
      ASSERT_TRUE(cell.has_value()) << key << " missing on " << replica;
      EXPECT_EQ(cell->value, "new") << key << " stale on " << replica;
    }
  }
  store::ReadOptions r3;
  r3.quorum = 3;
  for (const Key& key : keys) {
    const store::ReadResult result = client->GetSync("t", key, r3);
    ASSERT_TRUE(result.ok()) << key;
    EXPECT_EQ(result.row.GetValue("a"), "new") << key;
  }
}

// Tombstone-resurrection guard: a tombstone whose delete is still owed to a
// partitioned replica (a stored hint) must survive GC even past grace.
// Without the purge floor, the coordinator compacts the tombstone away while
// the lagging replica still holds the live cell; if the coordinator then
// crashes (hints are volatile), nothing carries the delete any more and
// anti-entropy resurrects the row cluster-wide.
TEST(TombstoneGcTest, PendingHintDefersPurgeAndDeleteSurvivesCrash) {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.replication_factor = 2;
  config.rpc_timeout = Millis(50);
  config.hint_replay_interval = Seconds(5);  // replays fail while it is down
  config.anti_entropy_interval = 0;          // manual rounds only
  test::TestCluster t(config, PlainSchema());

  const Key key = "gc-key";
  const auto replicas = t.cluster.server(0).ReplicasOf("t", key);
  const ServerId coord = replicas[0];
  const ServerId lagging = replicas[1];

  auto client = t.cluster.NewClient(coord);
  ASSERT_TRUE(
      client->PutSync("t", key, {{"a", std::string("v")}}, {.quorum = 2})
          .ok());
  t.cluster.RunFor(Millis(50));

  // Partition the second replica, then delete at write quorum 1: the
  // coordinator applies the tombstone and stores a hint for the replica
  // still holding the live cell.
  t.cluster.network().SetEndpointDown(lagging, true);
  ASSERT_TRUE(
      client->PutSync("t", key, {{"a", std::nullopt}}, {.quorum = 1}).ok());
  t.cluster.RunFor(Millis(100));  // past the rpc timeout: hint stored
  ASSERT_EQ(t.cluster.server(coord).pending_hints(lagging), 1u);

  // The coordinator applied the tombstone locally at ~50 ms; it is now past
  // the 600 s grace, so only the pending hint's timestamp floors the purge.
  t.cluster.RunFor(storage::kTombstoneGcGrace + Millis(100));
  ASSERT_EQ(t.cluster.server(coord).pending_hints(lagging), 1u);
  t.cluster.server(coord).RunCompactionRound();
  t.cluster.RunFor(Millis(50));
  EXPECT_GT(t.cluster.metrics().compactions_run, 0u);
  EXPECT_EQ(t.cluster.metrics().tombstones_purged, 0u);
  EXPECT_GT(t.cluster.metrics().tombstone_purge_deferred, 0u)
      << "purge must be deferred while the delete is owed to a replica";
  auto cell = t.cluster.server(coord).EngineFor("t").GetCell(key, "a");
  ASSERT_TRUE(cell.has_value()) << "tombstone purged with its hint pending";
  EXPECT_TRUE(cell->tombstone);

  // Worst case: the coordinator crashes and its volatile hints die with it.
  // The delete now survives ONLY as the durable tombstone the floor refused
  // to purge.
  t.cluster.CrashServer(coord);
  t.cluster.RunFor(Millis(50));
  t.cluster.RestartServer(coord);
  t.cluster.RunFor(Millis(50));
  EXPECT_EQ(t.cluster.server(coord).pending_hints(lagging), 0u);

  t.cluster.network().SetEndpointDown(lagging, false);
  t.cluster.server(coord).RunAntiEntropyRound();
  t.cluster.RunFor(Millis(500));

  for (ServerId replica : replicas) {
    auto c = t.cluster.server(replica).EngineFor("t").GetCell(key, "a");
    ASSERT_TRUE(c.has_value()) << "replica " << replica;
    EXPECT_TRUE(c->tombstone)
        << "replica " << replica << " resurrected the deleted row";
  }
}

// The GC <-> anti-entropy fixed point. Algorithm 2 revokes an old view row's
// __init with a tombstone stamped at that row's live timestamp — for a
// bootstrap row, a few microseconds after the epoch. Grace measured from
// that write timestamp purged the revocation at the first compaction; the
// replicas then disagreed, anti-entropy shipped the tombstones (or the
// shadowed live __init) back, and compaction purged them again. With grace
// measured from the local deletion time, skey moves under compaction and
// anti-entropy settle: once the cluster is quiescent, anti-entropy rounds
// push nothing, and no revoked __init is live on any replica.
TEST(TombstoneGcTest, SkeyMovesUnderCompactionAndAntiEntropyReachAFixedPoint) {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.compaction_interval = Millis(100);
  config.anti_entropy_interval = Millis(150);
  config.engine.memtable_flush_entries = 64;  // runs for compaction to merge
  test::TestCluster t(config, test::TicketSchema(/*with_index=*/false));

  constexpr int kTickets = 120;
  std::map<Key, Value> assignee;  // the last acked skey of each ticket
  for (int i = 0; i < kTickets; ++i) {
    const Key key = "tk" + std::to_string(i);
    assignee[key] = "u" + std::to_string(i % 7);
    t.cluster.BootstrapLoadRow("ticket", key,
                               {{"assigned_to", assignee[key]},
                                {"status", std::string("open")}},
                               /*ts=*/i + 1);
  }

  // Move every ticket's skey twice: each move revokes the old view row's
  // __init, the first one with a bootstrap-era timestamp.
  auto client = t.cluster.NewClient(0);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < kTickets; ++i) {
      const Key key = "tk" + std::to_string(i);
      const Value moved = "m" + std::to_string(round) + "-" + std::to_string(i);
      ASSERT_TRUE(
          client->PutSync("ticket", key, {{"assigned_to", moved}}, {}).ok());
      assignee[key] = moved;
    }
  }
  t.Quiesce();

  store::Metrics& m = t.cluster.metrics();
  ASSERT_GT(m.compactions_run.value(), 0u);
  EXPECT_EQ(m.tombstones_purged.value(), 0u)
      << "revocations purged within their 600 s grace";
  const std::uint64_t pushed = m.anti_entropy_rows_pushed.value();
  const std::uint64_t compactions = m.compactions_run.value();
  t.cluster.RunFor(Seconds(1));
  EXPECT_GT(m.compactions_run.value(), compactions);
  EXPECT_EQ(m.anti_entropy_rows_pushed.value(), pushed)
      << "anti-entropy still pushing rows after quiescence";

  for (ServerId s = 0; s < static_cast<ServerId>(config.num_servers); ++s) {
    int live = 0;
    t.cluster.server(s).EngineFor("assigned_to_view").ForEach(
        [&](const Key& row_key, const storage::Row& row) {
          if (!row.GetValue(store::kViewInitColumn)) return;
          auto split = store::SplitViewRowKey(row_key);
          ASSERT_TRUE(split.has_value()) << row_key;
          const auto& [view_key, base_key] = *split;
          if (store::IsSentinelViewKey(view_key)) return;
          ++live;
          EXPECT_EQ(view_key, assignee[base_key])
              << "server " << s << ": revoked __init of " << base_key
              << " is live again";
        });
    EXPECT_GT(live, 0) << "server " << s << " holds no live view rows";
  }
}

}  // namespace
}  // namespace mvstore
