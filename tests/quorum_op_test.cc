// The generic coordinator state machine (ISSUE 3): quorum accounting, slot
// deduplication, reply-once semantics, per-op-kind failure messages, the
// per-replica silence retry, hint scheduling for unresponsive write targets,
// crash-abort, release of finished ops and delivered client callbacks
// before their timers fire, and replica-write batching atomicity under a
// nemesis drop surge.

#include "store/quorum_op.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/nemesis.h"
#include "storage/cell.h"
#include "storage/row.h"
#include "store/client.h"
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
// Replica-write batching under a nemesis drop surge: a batch message is
// atomic (all mutations land or none), so every acknowledged write must be
// durably readable once the network heals.
// --------------------------------------------------------------------------

TEST(QuorumOpTest, BatchedWritesAckedUnderDropSurgeSurviveTheSurge) {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.default_read_quorum = 2;
  config.default_write_quorum = 2;
  config.write_batch_max = 4;
  config.write_batch_delay = Micros(800);
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

  EXPECT_GT(t.cluster.metrics().replica_write_batches.value(), 0u)
      << "the burst must have produced at least one multi-mutation batch";

  int acked = 0;
  for (int i = 0; i < kWrites; ++i) {
    ASSERT_TRUE(acks[i].has_value()) << "write " << i << " never resolved";
    if (!acks[i]->ok()) continue;  // surge casualty: failing is allowed
    ++acked;
    auto read = client->GetSync("kv", "k" + std::to_string(i), ReadOptions{});
    ASSERT_TRUE(read.ok()) << "acked write " << i << " unreadable after heal";
    EXPECT_EQ(read.row.GetValue("c"), std::string("v") + std::to_string(i))
        << "acked write " << i << " lost (batch atomicity violated)";
  }
  EXPECT_GT(acked, kWrites / 2) << "the surge should not fail most writes";
}

}  // namespace
}  // namespace mvstore
