// Observability: causal traces, the metrics registry, and their determinism.
//
// The tentpole guarantee under test: a Put followed by a ViewGet on the same
// key reconstructs as ONE connected causal timeline spanning client ->
// coordinator -> replicas -> view propagation -> view read; and same-seed
// runs export byte-identical metrics JSON.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics_registry.h"
#include "common/trace.h"
#include "store/client.h"
#include "store/cluster.h"
#include "tests/test_util.h"

namespace mvstore {
namespace {

using store::ReadOptions;
using store::QuerySpec;
using store::WriteOptions;
using test::TestCluster;

bool HasSpanNamed(const std::vector<TraceEvent>& events,
                  const std::string& name) {
  for (const TraceEvent& e : events) {
    if (e.name == name) return true;
  }
  return false;
}

bool HasSpanPrefixed(const std::vector<TraceEvent>& events,
                     const std::string& prefix) {
  for (const TraceEvent& e : events) {
    if (e.name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

// --- the acceptance-criterion trace: Put then ViewGet, one span tree ---

TEST(TraceReconstruction, PutThenViewGetFormsOneConnectedTrace) {
  TestCluster tc;
  auto client = tc.cluster.NewClient(0);
  Tracer& tracer = tc.cluster.tracer();

  // A caller-minted root stitches both operations into one trace.
  TraceContext root =
      tracer.StartTrace("test.put_then_view_get", /*where=*/-1,
                        tc.cluster.Now());
  ASSERT_TRUE(static_cast<bool>(root));

  WriteOptions put_options;
  put_options.trace = root;
  store::WriteResult put = client->PutSync(
      "ticket", "t1", {{"assigned_to", "alice"}, {"status", "open"}},
      put_options);
  ASSERT_TRUE(put.ok()) << put.status;
  EXPECT_EQ(put.trace, root.trace);

  tc.Quiesce();  // let the view propagation run to completion

  ReadOptions get_options;
  get_options.columns = {"status"};
  get_options.trace = root;
  store::ReadResult got =
      client->QuerySync(
          QuerySpec::View("assigned_to_view", "alice"), get_options);
  ASSERT_TRUE(got.ok()) << got.status;
  ASSERT_EQ(got.records.size(), 1u);
  EXPECT_EQ(got.trace, root.trace);

  tracer.EndSpan(root, tc.cluster.Now());

  // One connected span tree...
  EXPECT_TRUE(tracer.IsConnected(root.trace));
  std::vector<TraceEvent> events = tracer.Collect(root.trace);

  // ...spanning the client ops, the client->coordinator and replica network
  // hops, coordinator/replica service, and the propagation task.
  EXPECT_TRUE(HasSpanNamed(events, "client.put"));
  EXPECT_TRUE(HasSpanNamed(events, "client.view_get"));
  EXPECT_TRUE(HasSpanPrefixed(events, "net "));
  EXPECT_TRUE(HasSpanNamed(events, "svc"));
  EXPECT_TRUE(HasSpanNamed(events, "view.propagate assigned_to_view"));

  // Spans executed on at least two distinct places (client is -1; replica
  // work runs at server endpoints).
  bool saw_client = false;
  bool saw_server = false;
  for (const TraceEvent& e : events) {
    if (e.where < 0) saw_client = true;
    if (e.where >= 0) saw_server = true;
  }
  EXPECT_TRUE(saw_client);
  EXPECT_TRUE(saw_server);

  // The dump is non-empty, parseable-looking JSON carrying the trace id.
  const std::string dump = tracer.DumpJson(root.trace);
  EXPECT_NE(dump.find("\"trace\""), std::string::npos);
  EXPECT_NE(dump.find("client.put"), std::string::npos);
}

TEST(TraceReconstruction, EachUntracedOpMintsItsOwnRootTrace) {
  TestCluster tc;
  auto client = tc.cluster.NewClient(0);

  store::WriteResult put = client->PutSync(
      "ticket", "t1", {{"assigned_to", "bob"}, {"status", "open"}},
      WriteOptions{});
  ASSERT_TRUE(put.ok());
  EXPECT_NE(put.trace, 0u);
  EXPECT_TRUE(tc.cluster.tracer().IsConnected(put.trace));

  store::ReadResult got = client->GetSync("ticket", "t1", ReadOptions{});
  ASSERT_TRUE(got.ok());
  EXPECT_NE(got.trace, 0u);
  EXPECT_NE(got.trace, put.trace);
  EXPECT_TRUE(tc.cluster.tracer().IsConnected(got.trace));
}

TEST(TraceReconstruction, ZeroCapacityDisablesTracing) {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.trace_capacity = 0;
  TestCluster tc(config);
  auto client = tc.cluster.NewClient(0);

  store::WriteResult put = client->PutSync(
      "ticket", "t1", {{"assigned_to", "carol"}, {"status", "open"}},
      WriteOptions{});
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put.trace, 0u);
  EXPECT_EQ(tc.cluster.tracer().recorded(), 0u);
}

TEST(TraceReconstruction, DeprecatedSignaturesStillTraceImplicitly) {
  TestCluster tc;
  auto client = tc.cluster.NewClient(0);
  ASSERT_TRUE(client
                  ->PutSync("ticket", "t9",
                            {{"assigned_to", "dan"}, {"status", "open"}}, store::WriteOptions{})
                  .ok());
  EXPECT_GT(tc.cluster.tracer().recorded(), 0u);
}

// --- ring buffer bounds ---

TEST(TracerRing, EvictsOldestBeyondCapacity) {
  Tracer tracer(/*capacity=*/4);
  TraceContext first = tracer.StartTrace("first", 0, 1);
  tracer.EndSpan(first, 2);
  std::vector<TraceContext> rest;
  for (int i = 0; i < 8; ++i) {
    TraceContext t = tracer.StartTrace("t" + std::to_string(i), 0, 10 + i);
    tracer.EndSpan(t, 11 + i);
    rest.push_back(t);
  }
  EXPECT_EQ(tracer.recorded(), 9u);
  EXPECT_EQ(tracer.evicted(), 5u);
  // The first trace fell out of the ring; the newest survives intact.
  EXPECT_TRUE(tracer.Collect(first.trace).empty());
  EXPECT_FALSE(tracer.IsConnected(first.trace));
  EXPECT_EQ(tracer.Collect(rest.back().trace).size(), 1u);
  EXPECT_TRUE(tracer.IsConnected(rest.back().trace));
}

TEST(TracerRing, EndAndAnnotateAfterWrapReachOnlyLiveSpans) {
  // Once the ring wraps, a slot holds the newest of the spans a multiple of
  // the capacity apart: updates must reach live spans on either side of the
  // wrap and leave an evicted span's slot (now a newer span's) alone.
  Tracer tracer(/*capacity=*/4);
  std::vector<TraceContext> spans;
  for (int i = 0; i < 6; ++i) {
    spans.push_back(tracer.StartTrace("s" + std::to_string(i), 0, 10 + i));
  }
  ASSERT_EQ(tracer.evicted(), 2u);
  // The evicted spans[0] and spans[1] share slots with spans[4] and [5].
  for (int evicted : {0, 1}) {
    tracer.EndSpan(spans[evicted], 100);
    tracer.Annotate(spans[evicted], "evicted");
  }
  tracer.EndSpan(spans[4], 200);
  tracer.Annotate(spans[4], "wrapped");
  tracer.EndSpan(spans[2], 300);
  tracer.Annotate(spans[2], "unwrapped");

  EXPECT_TRUE(tracer.Collect(spans[0].trace).empty());
  std::vector<TraceEvent> wrapped = tracer.Collect(spans[4].trace);
  ASSERT_EQ(wrapped.size(), 1u);
  EXPECT_EQ(wrapped[0].end, 200);
  EXPECT_EQ(wrapped[0].note, "wrapped");
  std::vector<TraceEvent> unwrapped = tracer.Collect(spans[2].trace);
  ASSERT_EQ(unwrapped.size(), 1u);
  EXPECT_EQ(unwrapped[0].end, 300);
  EXPECT_EQ(unwrapped[0].note, "unwrapped");
  // The updates of the evicted spans[1] did not land on its slot's span.
  std::vector<TraceEvent> untouched = tracer.Collect(spans[5].trace);
  ASSERT_EQ(untouched.size(), 1u);
  EXPECT_EQ(untouched[0].end, 0);
  EXPECT_EQ(untouched[0].note, "");
}

TEST(TracerRing, AnnotationsAndOrphansAreTolerated) {
  Tracer tracer(8);
  TraceContext root = tracer.StartTrace("root", 0, 1);
  TraceContext child = tracer.StartSpan(root, "child", 1, 2);
  tracer.Annotate(child, "one");
  tracer.Annotate(child, "two");
  tracer.EndSpan(child, 3);
  tracer.EndSpan(root, 4);
  std::vector<TraceEvent> events = tracer.Collect(root.trace);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].note, "one; two");
  // A child whose parent span was never recorded breaks connectivity.
  TraceContext fake{root.trace, 99999};
  tracer.StartSpan(fake, "orphan", 2, 5);
  EXPECT_FALSE(tracer.IsConnected(root.trace));
}

// --- metrics registry ---

TEST(MetricsRegistry, SnapshotAndDelta) {
  MetricsRegistry registry;
  Counter& hits = registry.RegisterCounter("hits");
  Histogram& lat = registry.RegisterHistogram("lat");
  hits += 3;
  lat.Record(10);
  lat.Record(20);

  MetricsSnapshot before = registry.Snapshot();
  EXPECT_EQ(before.counters.at("hits"), 3u);
  EXPECT_EQ(before.histograms.at("lat").count, 2u);
  EXPECT_DOUBLE_EQ(before.histograms.at("lat").sum, 30.0);

  ++hits;
  hits++;
  lat.Record(40);
  MetricsSnapshot after = registry.Snapshot();

  MetricsSnapshot delta = Delta(before, after);
  EXPECT_EQ(delta.counters.at("hits"), 2u);
  EXPECT_EQ(delta.histograms.at("lat").count, 1u);
  EXPECT_DOUBLE_EQ(delta.histograms.at("lat").sum, 40.0);

  // Re-registering a name returns the same instrument.
  EXPECT_EQ(&registry.RegisterCounter("hits"), &hits);
  EXPECT_EQ(registry.FindCounter("hits")->value(), 5u);
  EXPECT_EQ(registry.FindCounter("missing"), nullptr);

  registry.Reset();
  EXPECT_EQ(hits.value(), 0u);
  EXPECT_EQ(lat.count(), 0u);
}

TEST(MetricsRegistry, ClusterCountersLiveInTheRegistry) {
  TestCluster tc;
  auto client = tc.cluster.NewClient(0);
  ASSERT_TRUE(client
                  ->PutSync("ticket", "t1",
                            {{"assigned_to", "erin"}, {"status", "open"}},
                            WriteOptions{})
                  .ok());
  const store::Metrics& m = tc.cluster.metrics();
  EXPECT_EQ(m.registry.FindCounter("client_puts")->value(),
            m.client_puts.value());
  EXPECT_GE(m.client_puts.value(), 1u);
  MetricsSnapshot snap = m.Snapshot();
  EXPECT_EQ(snap.counters.at("client_puts"), m.client_puts.value());
  EXPECT_GT(snap.counters.size(), 30u);
}

TEST(Metrics, StageHistogramsPopulate) {
  TestCluster tc;
  auto client = tc.cluster.NewClient(0);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client
                    ->PutSync("ticket", "t" + std::to_string(i),
                              {{"assigned_to", "kim"}, {"status", "open"}},
                              WriteOptions{})
                    .ok());
  }
  tc.Quiesce();
  const store::Metrics& m = tc.cluster.metrics();
  EXPECT_GT(m.stage_queue_wait.count(), 0u);
  EXPECT_GT(m.stage_service.count(), 0u);
  EXPECT_GT(m.stage_network.count(), 0u);
  EXPECT_GT(m.put_latency.count(), 0u);
}

// --- determinism: same seed, byte-identical exports ---

struct RunArtifacts {
  std::string metrics_json;
  std::string trace_json;
};

RunArtifacts RunSeededWorkload() {
  TestCluster tc(test::DefaultTestConfig());
  auto client = tc.cluster.NewClient(0);
  TraceId last_trace = 0;
  for (int i = 0; i < 10; ++i) {
    store::WriteResult put = client->PutSync(
        "ticket", "t" + std::to_string(i % 4),
        {{"assigned_to", "user" + std::to_string(i % 3)},
         {"status", i % 2 == 0 ? "open" : "closed"}},
        WriteOptions{});
    MVSTORE_CHECK(put.ok());
    last_trace = put.trace;
  }
  tc.Quiesce();
  for (int i = 0; i < 3; ++i) {
    store::ReadResult got = client->QuerySync(
        QuerySpec::View("assigned_to_view", "user" + std::to_string(i)),
        ReadOptions{});
    MVSTORE_CHECK(got.ok());
  }
  return RunArtifacts{tc.cluster.metrics().ToJson(),
                      tc.cluster.tracer().DumpJson(last_trace)};
}

TEST(Determinism, SameSeedYieldsByteIdenticalExports) {
  RunArtifacts a = RunSeededWorkload();
  RunArtifacts b = RunSeededWorkload();
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
  // Sanity: the export is substantive, not trivially empty.
  EXPECT_GT(a.metrics_json.size(), 100u);
  EXPECT_NE(a.trace_json.find("client.put"), std::string::npos);
}

}  // namespace
}  // namespace mvstore
