// The generic coordinator state machine (ISSUE 3): quorum accounting, slot
// deduplication, reply-once semantics, per-op-kind failure messages, the
// per-replica silence retry and its hand-off to a spare replica, hint
// scheduling for unresponsive write targets, crash-abort, release of
// finished ops and delivered client callbacks before their timers fire, and
// replica-write batching atomicity under a nemesis drop surge. Read routing:
// which replicas an R=1 read, a scatter sub-scan, a majority read, a
// version-collecting pre-read and a write contact.

#include "store/quorum_op.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/nemesis.h"
#include "storage/cell.h"
#include "storage/row.h"
#include "store/client.h"
#include "store/codec.h"
#include "tests/test_util.h"

namespace mvstore {
namespace {

using storage::Cell;
using store::QuorumOp;
using store::QuerySpec;
using store::ReadOptions;
using store::WriteOptions;

/// TicketSchema plus a plain "kv" table (no index, no view) whose writes
/// take the pure replica-write path.
store::Schema SchemaWithPlainTable() {
  store::Schema schema = test::TicketSchema();
  MVSTORE_CHECK(schema.CreateTable({.name = "kv"}).ok());
  return schema;
}

/// The one server of a 4-server / replication-3 cluster that holds no
/// replica of `key` — the coordinator whose every replica request crosses
/// the network.
ServerId NonReplicaCoordinator(store::Cluster& cluster, const Key& key) {
  const std::vector<ServerId> replicas =
      cluster.ring().ReplicasFor(key, cluster.config().replication_factor);
  for (ServerId s = 0; s < static_cast<ServerId>(cluster.config().num_servers); ++s) {
    if (std::find(replicas.begin(), replicas.end(), s) == replicas.end()) {
      return s;
    }
  }
  MVSTORE_CHECK(false) << "no non-replica server for key " << key;
  return 0;
}

// --------------------------------------------------------------------------
// Quorum accounting on the raw state machine (custom transport so the test
// controls exactly when each slot answers).
// --------------------------------------------------------------------------

TEST(QuorumOpTest, RepliesOnceAtQuorumAndSettlesWhenAllAnswer) {
  test::TestCluster t(test::DefaultTestConfig(), SchemaWithPlainTable());
  sim::Simulation& sim = t.cluster.simulation();

  int quorum_calls = 0;
  int error_calls = 0;
  int settled_calls = 0;
  int responses_at_quorum = -1;
  int responses_at_settle = -1;

  QuorumOp<bool>::Spec spec;
  spec.name = "test";
  spec.targets = {1, 2, 3};
  spec.quorum = 2;
  // Slot i answers at (i + 1) ms; nothing touches the real network.
  spec.send = [&sim](store::Server&, ServerId target,
                     std::function<void(bool)> reply) {
    sim.After(Millis(static_cast<SimTime>(target)),
              [reply = std::move(reply)] { reply(true); });
  };
  spec.on_quorum = [&](QuorumOp<bool>& op) {
    ++quorum_calls;
    responses_at_quorum = op.num_responses();
  };
  spec.on_error = [&](QuorumOp<bool>&, const Status&) { ++error_calls; };
  spec.on_settled = [&](QuorumOp<bool>& op, bool aborted) {
    ++settled_calls;
    EXPECT_FALSE(aborted);
    responses_at_settle = op.num_responses();
  };
  QuorumOp<bool>::Start(&t.cluster.server(0), spec);

  t.cluster.RunFor(Millis(50));
  EXPECT_EQ(quorum_calls, 1) << "reply-once: the 3rd response must not re-fire";
  EXPECT_EQ(error_calls, 0);
  EXPECT_EQ(settled_calls, 1);
  EXPECT_EQ(responses_at_quorum, 2);
  EXPECT_EQ(responses_at_settle, 3) << "late responses still land in the op";
}

TEST(QuorumOpTest, DuplicateRepliesForOneSlotNeverSatisfyTheQuorum) {
  test::TestCluster t(test::DefaultTestConfig(), SchemaWithPlainTable());
  sim::Simulation& sim = t.cluster.simulation();

  int quorum_calls = 0;
  int error_calls = 0;

  QuorumOp<bool>::Spec spec;
  spec.name = "test";
  spec.targets = {1, 2};
  spec.quorum = 2;
  spec.quorum_error = "test quorum not reached";
  // Server 1 acks THREE times (a replayed ack); server 2 never answers.
  spec.send = [&sim](store::Server&, ServerId target,
                     std::function<void(bool)> reply) {
    if (target != 1) return;
    for (int i = 1; i <= 3; ++i) {
      sim.After(Millis(i), [reply] { reply(true); });
    }
  };
  spec.on_quorum = [&](QuorumOp<bool>&) { ++quorum_calls; };
  spec.on_error = [&](QuorumOp<bool>& op, const Status& status) {
    ++error_calls;
    EXPECT_EQ(status.message(), "test quorum not reached");
    EXPECT_EQ(op.num_responses(), 1) << "slot dedupe: one slot, one response";
  };
  QuorumOp<bool>::Start(&t.cluster.server(0), spec);

  t.cluster.RunFor(Millis(400));  // past rpc_timeout
  EXPECT_EQ(quorum_calls, 0)
      << "duplicate acks from one replica must not fake a quorum";
  EXPECT_EQ(error_calls, 1);
}

// --------------------------------------------------------------------------
// Per-replica silence timeout: retry with backoff, then hint the target.
// --------------------------------------------------------------------------

TEST(QuorumOpTest, SilentReplicaIsRetriedAndAnswersOnTheSecondProbe) {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.replica_retry_timeout = Millis(5);
  config.replica_retry_backoff = Millis(1);
  config.replica_retry_max = 2;
  test::TestCluster t(config, SchemaWithPlainTable());
  sim::Simulation& sim = t.cluster.simulation();
  const auto retries_before = t.cluster.metrics().coordinator_retries.value();

  int attempts_to_1 = 0;
  int quorum_calls = 0;

  QuorumOp<bool>::Spec spec;
  spec.name = "test";
  spec.targets = {1, 2, 3};
  spec.quorum = 3;
  spec.send = [&](store::Server&, ServerId target,
                  std::function<void(bool)> reply) {
    if (target == 1 && ++attempts_to_1 == 1) return;  // first probe vanishes
    sim.After(Micros(100), [reply = std::move(reply)] { reply(true); });
  };
  spec.on_quorum = [&](QuorumOp<bool>& op) {
    ++quorum_calls;
    EXPECT_EQ(op.num_responses(), 3);
  };
  spec.on_error = [&](QuorumOp<bool>&, const Status&) {
    FAIL() << "the retry should have completed the quorum";
  };
  QuorumOp<bool>::Start(&t.cluster.server(0), spec);

  t.cluster.RunFor(Millis(50));
  EXPECT_EQ(quorum_calls, 1);
  EXPECT_EQ(attempts_to_1, 2) << "exactly one re-send to the silent replica";
  EXPECT_GT(t.cluster.metrics().coordinator_retries.value(), retries_before);
}

TEST(QuorumOpTest, UnresponsiveWriteTargetGetsAHintAndReplayDeliversIt) {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.hint_replay_interval = Millis(20);
  test::TestCluster t(config, SchemaWithPlainTable());
  sim::Simulation& sim = t.cluster.simulation();

  storage::Row cells;
  cells.Apply("c", Cell::Live("hinted", store::kClientTimestampEpoch + 1));

  QuorumOp<bool>::Spec spec;
  spec.name = "test";
  spec.targets = {1, 2};
  spec.quorum = 1;
  spec.hint_table = "kv";
  spec.hint_key = "hinted-key";
  spec.hint_cells = cells;
  // Server 1 acks; server 2 stays silent through every probe, so
  // finalization must store a hint for it.
  spec.send = [&sim](store::Server&, ServerId target,
                     std::function<void(bool)> reply) {
    if (target == 1) sim.After(Micros(100), [reply] { reply(true); });
  };
  spec.on_quorum = [](QuorumOp<bool>&) {};
  spec.on_error = [](QuorumOp<bool>&, const Status&) {
    FAIL() << "quorum of 1 was reachable";
  };
  QuorumOp<bool>::Start(&t.cluster.server(0), spec);

  t.cluster.RunFor(Millis(300));  // past rpc_timeout: finalize + store hint
  EXPECT_EQ(t.cluster.metrics().hints_stored.value(), 1u);

  t.cluster.RunFor(Millis(100));  // several replay ticks
  EXPECT_GE(t.cluster.metrics().hints_replayed.value(), 1u);
  auto row = t.cluster.server(2).EngineFor("kv").GetRow("hinted-key");
  ASSERT_TRUE(row.has_value()) << "hint replay must deliver the write";
  EXPECT_EQ(row->GetValue("c"), "hinted");
}

/// Starts an R=1 op on server 0 that asks server 1 and holds servers 2 and
/// 3 as spares. Server 1 answers after `target_delay` (never when negative),
/// the spares after 100 us. Records where requests went and when the op
/// replied and settled.
struct SpareProbe {
  std::vector<ServerId> sent_to;
  std::vector<ServerId> targets_at_quorum;
  SimTime replied_at = -1;
  SimTime settled_at = -1;
};

SpareProbe RunSpareProbe(test::TestCluster& t, SimTime target_delay) {
  sim::Simulation& sim = t.cluster.simulation();
  auto probe = std::make_shared<SpareProbe>();
  QuorumOp<bool>::Spec spec;
  spec.name = "test";
  spec.targets = {1};
  spec.spares = {2, 3};
  spec.quorum = 1;
  spec.send = [&sim, probe, target_delay](store::Server&, ServerId target,
                                          std::function<void(bool)> reply) {
    probe->sent_to.push_back(target);
    const SimTime delay = target == 1 ? target_delay : Micros(100);
    if (delay < 0) return;
    sim.After(delay, [reply = std::move(reply)] { reply(true); });
  };
  spec.on_quorum = [&sim, probe](QuorumOp<bool>& op) {
    probe->replied_at = sim.Now();
    probe->targets_at_quorum = op.targets();
  };
  spec.on_error = [](QuorumOp<bool>&, const Status&) {
    FAIL() << "an answer should have arrived";
  };
  spec.on_settled = [&sim, probe](QuorumOp<bool>&, bool aborted) {
    EXPECT_FALSE(aborted);
    probe->settled_at = sim.Now();
  };
  const SimTime start = sim.Now();
  QuorumOp<bool>::Start(&t.cluster.server(0), spec);
  t.cluster.RunFor(t.cluster.config().rpc_timeout * 2);
  probe->replied_at -= start;
  probe->settled_at -= start;
  return *probe;
}

TEST(QuorumOpTest, AnsweringLoneTargetSettlesTheOpWithoutItsSpares) {
  test::TestCluster t(test::DefaultTestConfig(), SchemaWithPlainTable());
  const SpareProbe probe = RunSpareProbe(t, /*target_delay=*/Micros(100));
  EXPECT_EQ(probe.sent_to, std::vector<ServerId>{1});
  EXPECT_EQ(probe.replied_at, Micros(100));
  EXPECT_EQ(probe.settled_at, Micros(100))
      << "the op settles when its one contacted slot answers, not at the "
         "rpc timeout";
  EXPECT_EQ(t.cluster.metrics().spares_contacted.value(), 0u);
}

TEST(QuorumOpTest, SilentLoneTargetFansOutToEverySpareInsideTheRpcTimeout) {
  // Silence probes disabled and a retry timeout past the rpc timeout: the
  // spares must still be contacted, at half the rpc timeout.
  store::ClusterConfig config = test::DefaultTestConfig();
  config.rpc_timeout = Millis(50);
  config.replica_retry_timeout = Millis(100);
  config.replica_retry_max = 0;
  test::TestCluster t(config, SchemaWithPlainTable());
  const SpareProbe probe = RunSpareProbe(t, /*target_delay=*/-1);
  EXPECT_EQ(probe.sent_to, (std::vector<ServerId>{1, 2, 3}));
  EXPECT_EQ(probe.targets_at_quorum, (std::vector<ServerId>{1, 2, 3}))
      << "each spare gets a slot of its own";
  EXPECT_EQ(probe.replied_at, Millis(25) + Micros(100));
  EXPECT_EQ(probe.settled_at, Millis(50))
      << "the silent target holds the op to its rpc timeout";
  EXPECT_EQ(t.cluster.metrics().spares_contacted.value(), 2u);
  EXPECT_EQ(t.cluster.metrics().coordinator_retries.value(), 0u);
}

TEST(QuorumOpTest, SparesJoinTheFirstSilenceProbe) {
  // Default probe settings: the spares go out with the first re-send to
  // the silent target, at replica_retry_timeout.
  store::ClusterConfig config = test::DefaultTestConfig();
  config.replica_retry_timeout = Millis(5);
  test::TestCluster t(config, SchemaWithPlainTable());
  const SpareProbe probe = RunSpareProbe(t, /*target_delay=*/-1);
  EXPECT_EQ(probe.sent_to, (std::vector<ServerId>{1, 1, 2, 3}));
  EXPECT_EQ(probe.replied_at, Millis(5) + Micros(100));
  EXPECT_EQ(t.cluster.metrics().spares_contacted.value(), 2u);
  EXPECT_EQ(t.cluster.metrics().coordinator_retries.value(), 1u);
}

// --------------------------------------------------------------------------
// Read routing: an R=1 read contacts only the replicas it needs.
// --------------------------------------------------------------------------

/// The servers each quorum op of `trace` sent a replica request to, by op
/// span name ("quorum.read", "quorum.scan", ...): the network hops that are
/// direct children of the op's span. Replies travel under the replica's
/// service span, so they are not counted.
std::vector<std::pair<std::string, std::vector<ServerId>>> ReplicaRequests(
    const Tracer& tracer, TraceId trace) {
  const std::vector<TraceEvent> events = tracer.Collect(trace);
  std::vector<std::pair<std::string, std::vector<ServerId>>> ops;
  for (const TraceEvent& op : events) {
    if (op.name.rfind("quorum.", 0) != 0) continue;
    std::vector<ServerId> to;
    for (const TraceEvent& hop : events) {
      if (hop.parent == op.span && hop.name.rfind("net ", 0) == 0) {
        to.push_back(static_cast<ServerId>(hop.where));
      }
    }
    ops.emplace_back(op.name, std::move(to));
  }
  return ops;
}

std::vector<ServerId> Sorted(std::vector<ServerId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

struct ReadRoutingFixture {
  explicit ReadRoutingFixture(store::ClusterConfig config =
                                  test::DefaultTestConfig(),
                              int view_shards = 1)
      : t(config, [view_shards] {
          store::Schema schema = test::TicketSchema(
              /*with_index=*/false, /*with_view=*/true, view_shards);
          MVSTORE_CHECK(schema.CreateTable({.name = "kv"}).ok());
          return schema;
        }()) {
    t.cluster.BootstrapLoadRow("kv", kKey, {{"c", std::string("v")}}, 100);
  }

  std::vector<ServerId> Replicas() {
    return t.cluster.ring().ReplicasFor(
        kKey, t.cluster.config().replication_factor);
  }

  static constexpr const char* kKey = "k1";
  test::TestCluster t;
};

TEST(ReadRoutingTest, OneGetOnAReplicaCoordinatorAsksOnlyItself) {
  ReadRoutingFixture f;
  // The second replica in ring order: local-first, not first-in-ring.
  const ServerId coord = f.Replicas()[1];
  auto client = f.t.cluster.NewClient(coord);

  auto read = client->GetSync("kv", ReadRoutingFixture::kKey, {.quorum = 1});
  ASSERT_TRUE(read.ok()) << read.status;
  EXPECT_EQ(read.row.GetValue("c"), "v");
  const auto ops = ReplicaRequests(f.t.cluster.tracer(), read.trace);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].first, "quorum.read");
  EXPECT_EQ(ops[0].second, std::vector<ServerId>{coord});
  EXPECT_EQ(f.t.cluster.metrics().reads_one_replica.value(), 1u);
  EXPECT_EQ(f.t.cluster.metrics().reads_fanned_out.value(), 0u);
  EXPECT_EQ(f.t.cluster.metrics().replica_reads.value(), 1u);
}

TEST(ReadRoutingTest, OneGetOnANonReplicaCoordinatorAsksEveryReplica) {
  ReadRoutingFixture f;
  const ServerId coord =
      NonReplicaCoordinator(f.t.cluster, ReadRoutingFixture::kKey);
  auto client = f.t.cluster.NewClient(coord);

  auto read = client->GetSync("kv", ReadRoutingFixture::kKey, {.quorum = 1});
  ASSERT_TRUE(read.ok()) << read.status;
  const auto ops = ReplicaRequests(f.t.cluster.tracer(), read.trace);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(Sorted(ops[0].second), Sorted(f.Replicas()))
      << "first-of-three still bounds a remote read's tail";
  EXPECT_EQ(f.t.cluster.metrics().reads_fanned_out.value(), 1u);
}

TEST(ReadRoutingTest, ZeroCapacityRowCacheChargesTheFullReadAndCountsNoProbe) {
  // Every server owns a row cache. At capacity 0 it holds nothing: the
  // replica charges a Get the full read_local and no cache probe is
  // counted. The 64-row run is the control, its bootstrap-warmed row costs
  // read_cached_local.
  for (const std::size_t capacity : {std::size_t{0}, std::size_t{64}}) {
    SCOPED_TRACE("row_cache_entries=" + std::to_string(capacity));
    store::ClusterConfig config = test::DefaultTestConfig();
    config.row_cache_entries = capacity;
    ReadRoutingFixture f(config);
    const ServerId coord = f.Replicas()[0];
    auto client = f.t.cluster.NewClient(coord);

    auto read = client->GetSync("kv", ReadRoutingFixture::kKey, {.quorum = 1});
    ASSERT_TRUE(read.ok()) << read.status;
    EXPECT_EQ(read.row.GetValue("c"), "v");
    // The replica's service span hangs under the op's request hop; the
    // cluster is idle, so the span is the charged service and nothing else.
    const std::vector<TraceEvent> events =
        f.t.cluster.tracer().Collect(read.trace);
    std::vector<SimTime> charged;
    for (const TraceEvent& op : events) {
      if (op.name != "quorum.read") continue;
      for (const TraceEvent& hop : events) {
        if (hop.parent != op.span || hop.name.rfind("net ", 0) != 0) continue;
        for (const TraceEvent& svc : events) {
          if (svc.parent == hop.span && svc.name == "svc") {
            charged.push_back(svc.end - svc.start);
          }
        }
      }
    }
    const store::PerfModel& perf = f.t.cluster.config().perf;
    const SimTime read_service =
        capacity == 0 ? perf.read_local : perf.read_cached_local;
    EXPECT_EQ(charged,
              std::vector<SimTime>{perf.message_process + read_service});
    const store::Metrics& m = f.t.cluster.metrics();
    EXPECT_EQ(m.row_cache_hits.value(), capacity == 0 ? 0u : 1u);
    EXPECT_EQ(m.row_cache_misses.value(), 0u);
  }
}

TEST(ReadRoutingTest, MajorityReadsPreReadsAndWritesContactEveryReplica) {
  ReadRoutingFixture f;
  const ServerId coord = f.Replicas()[0];
  auto client = f.t.cluster.NewClient(coord);
  const std::vector<ServerId> all = Sorted(f.Replicas());

  auto majority =
      client->GetSync("kv", ReadRoutingFixture::kKey, {.quorum = 2});
  ASSERT_TRUE(majority.ok()) << majority.status;
  const auto read_ops = ReplicaRequests(f.t.cluster.tracer(), majority.trace);
  ASSERT_EQ(read_ops.size(), 1u);
  EXPECT_EQ(Sorted(read_ops[0].second), all);

  // A Put on a view's base table: Algorithm 1's version-collecting pre-read
  // and the write itself, then the propagation's majority view reads and
  // writes, all under the Put's trace.
  auto put = client->PutSync("ticket", ReadRoutingFixture::kKey,
                             {{"assigned_to", std::string("alice")},
                              {"status", std::string("open")}},
                             {.quorum = 1});
  ASSERT_TRUE(put.ok()) << put.status;
  f.t.Quiesce();
  int reads = 0;
  int writes = 0;
  for (const auto& [name, to] :
       ReplicaRequests(f.t.cluster.tracer(), put.trace)) {
    EXPECT_EQ(to.size(), 3u) << name << " must contact all N replicas";
    if (name == "quorum.read") ++reads;
    if (name == "quorum.write") ++writes;
  }
  EXPECT_GE(reads, 2) << "pre-read plus the propagation's view reads";
  EXPECT_GE(writes, 2) << "the base write plus the propagation's view writes";
  EXPECT_EQ(f.t.cluster.metrics().reads_one_replica.value(), 0u);
}

/// Loads `rows` tickets assigned to "hot" through the client.
std::vector<Key> LoadHotTickets(test::TestCluster& t, store::Client& client,
                                int rows) {
  std::vector<Key> keys;
  for (int k = 0; k < rows; ++k) {
    keys.push_back("t" + std::to_string(k));
    EXPECT_TRUE(client
                    .PutSync("ticket", keys.back(),
                             {{"assigned_to", std::string("hot")},
                              {"status", std::string("open")}},
                             WriteOptions{})
                    .ok());
  }
  t.Quiesce();
  return keys;
}

TEST(ReadRoutingTest, ShardedEventualViewReadSendsOneSubScanPerShard) {
  constexpr int kShards = 4;
  ReadRoutingFixture f(test::DefaultTestConfig(), kShards);
  auto client = f.t.cluster.NewClient(0);
  LoadHotTickets(f.t, *client, 16);
  const auto one_before = f.t.cluster.metrics().reads_one_replica.value();

  auto result = client->QuerySync(QuerySpec::View("assigned_to_view", "hot"),
                                  {.quorum = 1});
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.records.size(), 16u);

  std::set<ServerId> holders;  // servers holding some sub-shard
  for (int shard = 0; shard < kShards; ++shard) {
    for (ServerId r : f.t.cluster.server(0).ReplicasOf(
             "assigned_to_view",
             store::ShardedViewPartitionPrefix("hot", shard, kShards))) {
      holders.insert(r);
    }
  }
  std::map<ServerId, int> per_server;
  int scans = 0;
  for (const auto& [name, to] :
       ReplicaRequests(f.t.cluster.tracer(), result.trace)) {
    ASSERT_EQ(name, "quorum.scan");
    ++scans;
    ASSERT_EQ(to.size(), 1u) << "an R=1 sub-scan asks one replica";
    ++per_server[to[0]];
  }
  EXPECT_EQ(scans, kShards);
  EXPECT_EQ(f.t.cluster.metrics().reads_one_replica.value() - one_before,
            static_cast<std::uint64_t>(kShards));
  if (holders.size() == static_cast<std::size_t>(kShards)) {
    for (const auto& [server, n] : per_server) {
      EXPECT_EQ(n, 1) << "server " << server << " carries " << n
                      << " sub-scans";
    }
  }
}

/// An R=1 Get coordinated by a replica of the key whose own replica is
/// stalled: every core is busy for twice the rpc timeout. The first
/// `crashed_spares` of the other replicas are crashed too. The read must
/// still answer, through a live spare, inside the rpc timeout.
void ExpectStalledOwnReplicaIsCovered(store::ClusterConfig config,
                                      int crashed_spares) {
  ReadRoutingFixture f(config);
  const std::vector<ServerId> replicas = f.Replicas();
  const ServerId coord = replicas[1];
  int crashed = 0;
  for (ServerId r : replicas) {
    if (r != coord && crashed < crashed_spares) {
      ASSERT_TRUE(f.t.cluster.CrashServer(r));
      ++crashed;
    }
  }
  store::Server& server = f.t.cluster.server(coord);
  for (int core = 0; core < config.cores_per_server; ++core) {
    server.Enqueue(config.rpc_timeout * 2, [] {});
  }
  const SimTime start = f.t.cluster.Now();
  std::optional<StatusOr<storage::Row>> answer;
  SimTime answered_at = -1;
  server.CoordinateRead("kv", ReadRoutingFixture::kKey, {}, /*read_quorum=*/1,
                        [&](StatusOr<storage::Row> row) {
                          answer = std::move(row);
                          answered_at = f.t.cluster.Now();
                        });
  f.t.cluster.RunFor(config.rpc_timeout * 3);

  ASSERT_TRUE(answer.has_value());
  ASSERT_TRUE(answer->ok()) << answer->status();
  EXPECT_EQ((*answer)->GetValue("c"), "v");
  EXPECT_LT(answered_at - start, config.rpc_timeout);
  EXPECT_EQ(f.t.cluster.metrics().spares_contacted.value(), 2u);
}

TEST(ReadRoutingTest, StalledOwnReplicaIsCoveredByASpareWithinTheTimeout) {
  ExpectStalledOwnReplicaIsCovered(test::DefaultTestConfig(),
                                   /*crashed_spares=*/0);
}

TEST(ReadRoutingTest, StalledOwnReplicaAndACrashedSpareLeaveOneToAnswer) {
  // A short rpc timeout and no silence probes, as the sharding and
  // membership tests run: the spares still go out at half the timeout.
  store::ClusterConfig config = test::DefaultTestConfig();
  config.rpc_timeout = Millis(50);
  config.replica_retry_max = 0;
  ExpectStalledOwnReplicaIsCovered(config, /*crashed_spares=*/1);
}

/// For every set of `down` servers other than the coordinator (server 0):
/// crash them, then an R=1 eventual read of a 4-shard view must come back
/// complete, with no failed sub-shard, inside the rpc timeout. With 4
/// servers and N=3, each sub-shard keeps a live replica, and across the
/// sets every remote replica a sub-scan is sent to is crashed at least once.
void ExpectCompleteScatterReadWithServersDown(store::ClusterConfig config,
                                              int down) {
  constexpr int kShards = 4;
  const int servers = config.num_servers;
  std::uint64_t spares = 0;
  for (int mask = 0; mask < (1 << servers); ++mask) {
    if ((mask & 1) != 0 || __builtin_popcount(mask) != down) continue;
    SCOPED_TRACE("crashed server mask " + std::to_string(mask));
    ReadRoutingFixture f(config, kShards);
    auto client = f.t.cluster.NewClient(0);
    const std::vector<Key> keys = LoadHotTickets(f.t, *client, 16);
    for (ServerId s = 1; s < static_cast<ServerId>(servers); ++s) {
      if ((mask >> s) & 1) ASSERT_TRUE(f.t.cluster.CrashServer(s));
    }

    const SimTime start = f.t.cluster.Now();
    auto result = client->QuerySync(
        QuerySpec::View("assigned_to_view", "hot"), {.quorum = 1});
    ASSERT_TRUE(result.ok()) << result.status;
    EXPECT_LT(f.t.cluster.Now() - start, config.rpc_timeout);
    std::set<Key> got;
    for (const store::ViewRecord& r : result.records) got.insert(r.base_key);
    EXPECT_EQ(got, std::set<Key>(keys.begin(), keys.end()));
    EXPECT_EQ(f.t.cluster.metrics().view_scatter_partial.value(), 0u)
        << "failed_shards must be 0: a spare covers every crashed replica";
    spares += f.t.cluster.metrics().spares_contacted.value();
  }
  EXPECT_GT(spares, 0u) << "no sub-scan was ever sent to a crashed replica";
}

TEST(ReadRoutingTest, CrashedSubScanReplicaIsCoveredByASpareWithoutPartial) {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.rpc_timeout = Millis(50);
  ExpectCompleteScatterReadWithServersDown(config, /*down=*/1);
}

TEST(ReadRoutingTest, ScatterReadWithTwoOfThreeReplicasDownIsComplete) {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.rpc_timeout = Millis(50);
  config.replica_retry_max = 0;
  ExpectCompleteScatterReadWithServersDown(config, /*down=*/2);
}

// --------------------------------------------------------------------------
// Per-op-kind quorum-failure messages, end to end through the client.
// --------------------------------------------------------------------------

TEST(QuorumOpTest, EachOperationKindReportsItsOwnQuorumFailure) {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.combined_get_then_put = true;  // Puts on view tables = get-then-put
  test::TestCluster t(config, SchemaWithPlainTable());

  const Key key = "t-err";
  const ServerId coord = NonReplicaCoordinator(t.cluster, key);
  auto client = t.cluster.NewClient(coord);

  // Cut the coordinator off from two of the key's three replicas: a quorum
  // of 3 can never assemble, and each op kind must say so in its own words.
  const std::vector<ServerId> replicas = t.cluster.ring().ReplicasFor(
      key, t.cluster.config().replication_factor);
  t.cluster.network().PartitionLink(coord, replicas[1]);
  t.cluster.network().PartitionLink(coord, replicas[2]);

  ReadOptions read3;
  read3.quorum = 3;
  auto read = client->GetSync("kv", key, read3);
  EXPECT_EQ(read.status.message(), "read quorum not reached");

  WriteOptions write3;
  write3.quorum = 3;
  auto write = client->PutSync("kv", key, {{"c", std::string("v")}}, write3);
  EXPECT_EQ(write.status.message(), "write quorum not reached");

  // Same key on the view table: the combined path must not claim a plain
  // write failed (the pre-refactor coordinator reused the write message).
  auto combined = client->PutSync(
      "ticket", key, {{"assigned_to", std::string("alice")}}, write3);
  EXPECT_EQ(combined.status.message(), "get-then-put quorum not reached");

  // An index scan needs every fragment; one severed link is enough.
  auto scan = client->QuerySync(
      QuerySpec::Index("ticket", "assigned_to", std::string("alice")),
      ReadOptions{});
  EXPECT_EQ(scan.status.message(), "index fragments unreachable");
}

// --------------------------------------------------------------------------
// Crash-stop: a coordinator crash aborts its in-flight ops.
// --------------------------------------------------------------------------

TEST(QuorumOpTest, CoordinatorCrashAbortsTheOpWithoutSideEffects) {
  test::TestCluster t(test::DefaultTestConfig(), SchemaWithPlainTable());

  int error_calls = 0;
  int settled_calls = 0;

  QuorumOp<bool>::Spec spec;
  spec.name = "test";
  spec.targets = {1, 2, 3};
  spec.quorum = 2;
  spec.hint_table = "kv";  // must NOT produce hints from a dead process
  spec.hint_key = "k";
  spec.send = [](store::Server&, ServerId, std::function<void(bool)>) {
    // Nobody ever answers; only the crash can end this op.
  };
  spec.on_quorum = [](QuorumOp<bool>&) { FAIL() << "no responses arrived"; };
  spec.on_error = [&](QuorumOp<bool>&, const Status& status) {
    ++error_calls;
    EXPECT_EQ(status.message(), "coordinator crashed");
  };
  spec.on_settled = [&](QuorumOp<bool>&, bool aborted) {
    ++settled_calls;
    EXPECT_TRUE(aborted);
  };
  QuorumOp<bool>::Start(&t.cluster.server(0), spec);

  t.cluster.RunFor(Millis(10));
  t.cluster.CrashServer(0);
  t.cluster.RunFor(Millis(500));  // past rpc_timeout: no double finalize

  EXPECT_EQ(error_calls, 1);
  EXPECT_EQ(settled_calls, 1);
  EXPECT_EQ(t.cluster.metrics().hints_stored.value(), 0u)
      << "a crashed coordinator stores no hints";
}

// --------------------------------------------------------------------------
// Memory: timers never own a finished operation. Cancelling an event only
// flags it, so a timer closure holding a strong reference would pin the op
// (spec closures, response rows) or the caller's callback until its fire
// time.
// --------------------------------------------------------------------------

TEST(QuorumOpTest, AnsweredOpIsReleasedBeforeItsRpcTimeoutFires) {
  test::TestCluster t(test::DefaultTestConfig(), SchemaWithPlainTable());
  sim::Simulation& sim = t.cluster.simulation();
  const SimTime rpc_timeout = t.cluster.config().rpc_timeout;
  ASSERT_GT(rpc_timeout, Millis(10));

  auto payload = std::make_shared<int>(0);
  std::weak_ptr<int> payload_alive = payload;
  QuorumOp<bool>::Spec spec;
  spec.name = "test";
  spec.targets = {1, 2, 3};
  spec.quorum = 2;
  spec.send = [&sim](store::Server&, ServerId target,
                     std::function<void(bool)> reply) {
    sim.After(Millis(static_cast<SimTime>(target)),
              [reply = std::move(reply)] { reply(true); });
  };
  spec.on_quorum = [payload](QuorumOp<bool>&) { ++*payload; };
  spec.on_error = [](QuorumOp<bool>&, const Status&) {};
  payload.reset();
  std::weak_ptr<QuorumOp<bool>> op =
      QuorumOp<bool>::Start(&t.cluster.server(0), std::move(spec));

  // Every slot has answered by 3 ms; the rpc timeout and the per-replica
  // retry timers are still pending, and must not keep the op alive.
  t.cluster.RunFor(Millis(10));
  EXPECT_TRUE(op.expired()) << "a finished op outlived its last reply";
  EXPECT_TRUE(payload_alive.expired())
      << "the op's spec closures outlived the op";
}

TEST(QuorumOpTest, UnansweredOpStillTimesOutWithoutACallerHandle) {
  test::TestCluster t(test::DefaultTestConfig(), SchemaWithPlainTable());
  int error_calls = 0;
  QuorumOp<bool>::Spec spec;
  spec.name = "test";
  spec.targets = {1, 2};
  spec.quorum = 1;
  spec.send = [](store::Server&, ServerId, std::function<void(bool)>) {
    // Nobody ever answers: only the rpc timeout can end this op.
  };
  spec.on_quorum = [](QuorumOp<bool>&) { FAIL() << "no responses arrived"; };
  spec.on_error = [&](QuorumOp<bool>&, const Status&) { ++error_calls; };
  std::weak_ptr<QuorumOp<bool>> op =
      QuorumOp<bool>::Start(&t.cluster.server(0), std::move(spec));

  // The in-flight registry, not the timers, keeps a stuck op alive.
  t.cluster.RunFor(t.cluster.config().rpc_timeout / 2);
  EXPECT_FALSE(op.expired());
  EXPECT_EQ(error_calls, 0);
  t.cluster.RunFor(t.cluster.config().rpc_timeout);
  EXPECT_EQ(error_calls, 1);
  EXPECT_TRUE(op.expired()) << "a timed-out op outlived its finalization";
}

TEST(ClientCallbackReleaseTest, DeliveredCallbackReleasesItsCapturesAtDelivery) {
  test::TestCluster t(test::DefaultTestConfig(), SchemaWithPlainTable());
  auto client = t.cluster.NewClient(0);
  client->set_request_timeout(Seconds(2));

  auto capture = std::make_shared<int>(0);
  std::weak_ptr<int> capture_alive = capture;
  bool delivered = false;
  client->Put("kv", "k", {{"a", std::string("v")}}, store::WriteOptions{},
              [capture, &delivered](store::WriteResult result) {
                EXPECT_TRUE(result.ok());
                delivered = true;
              });
  capture.reset();
  ASSERT_FALSE(capture_alive.expired()) << "pending: the client owns it";

  // Delivered within milliseconds; the 2 s deadline timer is still queued
  // and must not hold the callback (or what it captured) until it fires.
  t.cluster.RunFor(Millis(50));
  ASSERT_TRUE(delivered);
  EXPECT_TRUE(capture_alive.expired())
      << "the delivered callback lived on until the request deadline";

  // The deadline, when it does fire, delivers nothing a second time.
  t.cluster.RunFor(Seconds(3));
}

// --------------------------------------------------------------------------
// Replica writes under a nemesis drop surge: every acknowledged write must be
// durably readable once the network heals.
// --------------------------------------------------------------------------

TEST(QuorumOpTest, AckedWritesUnderDropSurgeSurviveTheSurge) {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.default_read_quorum = 2;
  config.default_write_quorum = 2;
  config.hint_replay_interval = Millis(50);
  test::TestCluster t(config, SchemaWithPlainTable());

  sim::Nemesis nemesis(
      &t.cluster.simulation(), &t.cluster.network(),
      [&t](sim::EndpointId s) { t.cluster.CrashServer(s); },
      [&t](sim::EndpointId s) { t.cluster.RestartServer(s); });
  nemesis.Schedule({
      {.at = Millis(1), .kind = sim::FaultKind::kDropRate, .rate = 0.2},
      {.at = Millis(60), .kind = sim::FaultKind::kDropRate, .rate = 0.0},
  });

  auto client = t.cluster.NewClient(/*coordinator=*/0);
  // The surge can eat a request before it reaches the coordinator; a client
  // deadline turns that into a resolved failure instead of a hung callback.
  client->set_request_timeout(Millis(500));
  constexpr int kWrites = 40;
  std::vector<std::optional<Status>> acks(kWrites);
  for (int i = 0; i < kWrites; ++i) {
    client->Put("kv", "k" + std::to_string(i),
                {{"c", std::string("v") + std::to_string(i)}}, WriteOptions{},
                [&acks, i](store::WriteResult result) {
                  acks[i] = result.status;
                });
  }

  t.cluster.RunFor(Seconds(1));  // surge, heal, hint replay, quiesce

  int acked = 0;
  for (int i = 0; i < kWrites; ++i) {
    ASSERT_TRUE(acks[i].has_value()) << "write " << i << " never resolved";
    if (!acks[i]->ok()) continue;  // surge casualty: failing is allowed
    ++acked;
    auto read = client->GetSync("kv", "k" + std::to_string(i), ReadOptions{});
    ASSERT_TRUE(read.ok()) << "acked write " << i << " unreadable after heal";
    EXPECT_EQ(read.row.GetValue("c"), std::string("v") + std::to_string(i))
        << "acked write " << i << " lost";
  }
  EXPECT_GT(acked, kWrites / 2) << "the surge should not fail most writes";
}

}  // namespace
}  // namespace mvstore
