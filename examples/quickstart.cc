// Quickstart: spin up a simulated multi-master cluster, define a table and a
// materialized view, write through the client API, and read by secondary key.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart

#include <cstdio>
#include <fstream>

#include "store/client.h"
#include "store/cluster.h"
#include "view/maintenance_engine.h"

using namespace mvstore;  // NOLINT: example brevity

int main() {
  // 1. Define the schema: a "users" table plus a materialized view keyed by
  //    the city column, materializing the plan column.
  store::Schema schema;
  MVSTORE_CHECK(schema.CreateTable({.name = "users"}).ok());
  store::ViewDef by_city;
  by_city.name = "users_by_city";
  by_city.base_table = "users";
  by_city.view_key_column = "city";
  by_city.materialized_columns = {"plan"};
  MVSTORE_CHECK(schema.CreateView(by_city).ok());

  // 2. Assemble a 4-server cluster (N=3 replication) with view maintenance.
  store::ClusterConfig config;  // defaults: 4 servers, N=3, R=W=1
  store::Cluster cluster(config, std::move(schema));
  view::MaintenanceEngine views(&cluster);  // installs itself as the hook
  cluster.Start();

  // 3. Write some users through an ordinary client (any server coordinates).
  auto client = cluster.NewClient();
  MVSTORE_CHECK(client
                    ->PutSync("users", "u1",
                              {{"city", std::string("waterloo")},
                               {"plan", std::string("pro")}},
                              store::WriteOptions{})
                    .ok());
  MVSTORE_CHECK(client
                    ->PutSync("users", "u2",
                              {{"city", std::string("waterloo")},
                               {"plan", std::string("free")}},
                              store::WriteOptions{})
                    .ok());
  MVSTORE_CHECK(client
                    ->PutSync("users", "u3",
                              {{"city", std::string("brisbane")},
                               {"plan", std::string("pro")}},
                              store::WriteOptions{})
                    .ok());

  // 4. View maintenance is ASYNCHRONOUS (Section IV): wait for the update
  //    propagations to finish. (Interactive apps would either tolerate the
  //    staleness or use a session, see examples/session_demo.)
  views.Quiesce();

  // 5. Read by secondary key: one cheap single-partition Get instead of a
  //    cluster-wide scan.
  auto waterloo =
      client->QuerySync(
          store::QuerySpec::View("users_by_city", "waterloo"),
          store::ReadOptions{});
  MVSTORE_CHECK(waterloo.ok());
  std::printf("users in waterloo:\n");
  for (const store::ViewRecord& record : waterloo.records) {
    std::printf("  %s (plan=%s)\n", record.base_key.c_str(),
                record.cells.GetValue("plan").value_or("?").c_str());
  }

  // 6. Update a view key: u1 moves; the view follows.
  MVSTORE_CHECK(client
                    ->PutSync("users", "u1",
                              {{"city", std::string("brisbane")}},
                              store::WriteOptions{})
                    .ok());
  views.Quiesce();
  auto brisbane =
      client->QuerySync(
          store::QuerySpec::View("users_by_city", "brisbane"),
          store::ReadOptions{});
  MVSTORE_CHECK(brisbane.ok());
  std::printf("users in brisbane after the move: %zu\n",
              brisbane.records.size());

  // 7. Cluster health at a glance.
  const store::Metrics& m = cluster.metrics();
  std::printf(
      "metrics: puts=%llu view_gets=%llu propagations=%llu stale_rows=%llu\n",
      static_cast<unsigned long long>(m.client_puts),
      static_cast<unsigned long long>(m.client_view_gets),
      static_cast<unsigned long long>(m.propagations_completed),
      static_cast<unsigned long long>(m.stale_rows_created));

  // 8. Causal tracing: stitch a Put and the ViewGet that observes it into
  //    one trace via the options API, then dump the timeline as JSON. The
  //    dump shows every hop — client, coordinator, replicas, the view
  //    propagation chain — with simulated timestamps.
  Tracer& tracer = cluster.tracer();
  TraceContext root =
      tracer.StartTrace("quickstart.put_then_read", /*where=*/-1,
                        cluster.Now());
  store::WriteOptions traced_write;
  traced_write.trace = root;
  MVSTORE_CHECK(client
                    ->PutSync("users", "u4",
                              {{"city", std::string("waterloo")},
                               {"plan", std::string("pro")}},
                              traced_write)
                    .ok());
  views.Quiesce();
  store::ReadOptions traced_read;
  traced_read.trace = root;
  store::ReadResult traced =
      client->QuerySync(
          store::QuerySpec::View("users_by_city", "waterloo"), traced_read);
  MVSTORE_CHECK(traced.ok());
  tracer.EndSpan(root, cluster.Now());

  std::ofstream trace_out("TRACE_quickstart.json");
  trace_out << tracer.DumpJson(root.trace) << "\n";
  std::printf("traced put+view-get: %zu spans, connected=%s -> "
              "TRACE_quickstart.json\n",
              tracer.Collect(root.trace).size(),
              tracer.IsConnected(root.trace) ? "yes" : "NO");
  return 0;
}
