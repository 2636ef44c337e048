// Chaos bench — availability and convergence under the crash-stop nemesis.
//
// A seeded fault schedule (crash/restart cycles, partitions, drop surges,
// latency spikes) runs against the MV scenario while closed-loop clients
// keep reading and writing with a request deadline. Reported: foreground
// throughput and failure rate during the fault window, the fault-model
// counters, and whether the view converges to the Definition-1
// recomputation after the nemesis heals and the cluster quiesces.
//
//   MV_BENCH_CHAOS_SECONDS   fault-window length  (default 10)
//   MV_BENCH_CHAOS_SEED      nemesis seed         (default 1)
//   MV_BENCH_CHAOS_CRASHES   crash/restart cycles (default 6)
//   MV_BENCH_CHAOS_HOT_KEYS  update key range     (default 256; reads stay
//                            uniform — skewed writes collide on base rows,
//                            exercising propagation coalescing under faults;
//                            very narrow ranges inflate unsynchronized-mode
//                            retry storms and run much longer)

#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "sim/nemesis.h"
#include "view/scrub.h"

namespace mvstore::bench {
namespace {

void Run() {
  BenchScale scale;
  const auto seconds = EnvInt("MV_BENCH_CHAOS_SECONDS", 10);
  const auto seed = static_cast<std::uint64_t>(EnvInt("MV_BENCH_CHAOS_SEED", 1));
  const auto crashes = static_cast<int>(EnvInt("MV_BENCH_CHAOS_CRASHES", 6));
  const auto hot_keys =
      static_cast<std::uint64_t>(EnvInt("MV_BENCH_CHAOS_HOT_KEYS", 256));

  store::ClusterConfig config = PaperConfig();
  config.rpc_timeout = Millis(100);
  config.lock_lease_ttl = Millis(500);
  config.view_scrub_interval = Millis(500);
  config.anti_entropy_interval = Millis(500);
  BenchCluster bc(Scenario::kMaterializedView, scale, config);

  sim::Nemesis nemesis(
      &bc.cluster.simulation(), &bc.cluster.network(),
      [&bc](sim::EndpointId s) { bc.cluster.CrashServer(s); },
      [&bc](sim::EndpointId s) { bc.cluster.RestartServer(s); });
  sim::NemesisOptions options;
  options.horizon = Seconds(seconds);
  options.num_servers = bc.cluster.num_servers();
  options.crashes = crashes;
  options.min_downtime = Millis(300);
  options.max_downtime = Seconds(2);
  options.partitions = 3;
  options.drop_surges = 2;
  options.latency_spikes = 2;
  const sim::FaultSchedule schedule =
      sim::GenerateRandomSchedule(Rng(seed), options);
  nemesis.Schedule(schedule);
  nemesis.HealAllAt(options.horizon);

  Rng rng(seed * 101);
  const auto rows = static_cast<std::uint64_t>(scale.rows);
  std::uint64_t fresh = 0;
  const std::uint64_t hot = std::min(hot_keys, rows);
  workload::ClosedLoopRunner runner(
      &bc.cluster, /*num_clients=*/8,
      [&rng, rows, hot, &fresh](int, store::Client& client,
                                std::function<void(bool)> done) {
        if (client.request_timeout() == 0) {
          client.set_request_timeout(Millis(250));
        }
        if (rng.Chance(0.5)) {
          const auto rank =
              static_cast<std::uint64_t>(rng.UniformInt(0, rows - 1));
          IssueRead(Scenario::kMaterializedView, client, rank,
                    std::move(done));
        } else {
          const auto rank =
              static_cast<std::uint64_t>(rng.UniformInt(0, hot - 1));
          IssueSkeyUpdate(client, rank, rows + fresh++, std::move(done));
        }
      });
  runner.set_think_time(Millis(10));

  PrintTitle("Chaos: crash-stop nemesis over the MV scenario");
  PrintNote(StrFormat(
      "seed=%llu, horizon=%llds, %d crash cycles, %zu scheduled events",
      static_cast<unsigned long long>(seed), static_cast<long long>(seconds),
      crashes, schedule.size()));
  for (const sim::FaultEvent& event : schedule) {
    PrintNote("  " + event.ToString());
  }

  workload::RunResult run = runner.Run(Millis(500), options.horizon);
  std::printf("\nfault window: %.0f req/sec, %llu ok, %llu failed/timed out\n",
              run.Throughput(),
              static_cast<unsigned long long>(run.operations - run.failures),
              static_cast<unsigned long long>(run.failures));

  // Heal happened at the horizon; drain and give recovery its window.
  bc.views->Quiesce();
  bc.cluster.RunFor(Seconds(3));

  std::printf("\nfault counters:\n");
  PrintFaultCounters(bc.cluster.metrics());
  std::printf("  %-34s %10llu\n  %-34s %10llu\n",
              "propagations coalesced",
              static_cast<unsigned long long>(
                  bc.cluster.metrics().prop_batched),
              "coordinator retries",
              static_cast<unsigned long long>(
                  bc.cluster.metrics().coordinator_retries));

  const store::ViewDef& view = *bc.cluster.schema().GetView("by_skey");
  auto expected = view::ComputeExpectedView(bc.cluster, view);
  auto exposed = view::ReadConvergedView(bc.cluster, view);
  std::size_t value_mismatches = 0;
  if (expected.size() == exposed.size()) {
    for (std::size_t i = 0; i < expected.size(); ++i) {
      if (expected[i].view_key != exposed[i].view_key ||
          expected[i].base_key != exposed[i].base_key ||
          expected[i].cells.GetValue("field0") !=
              exposed[i].cells.GetValue("field0")) {
        ++value_mismatches;
      }
    }
  }
  const bool converged =
      expected.size() == exposed.size() && value_mismatches == 0;
  std::printf("\nconvergence after heal: %s (%zu expected records, %zu "
              "exposed, %zu value mismatches)\n",
              converged ? "CONVERGED" : "DIVERGED", expected.size(),
              exposed.size(), value_mismatches);

  const store::Metrics& m = bc.cluster.metrics();
  BenchReport report("chaos_nemesis");
  report.Add("seed", seed);
  report.Add("horizon_seconds", seconds);
  report.Add("crash_cycles", crashes);
  report.Add("hot_keys", static_cast<std::uint64_t>(hot));
  report.Add("rps", run.Throughput());
  report.Add("ops_ok", run.operations - run.failures);
  report.Add("ops_failed", run.failures);
  report.Add("converged", converged ? "converged" : "diverged");
  report.Add("expected_records", static_cast<std::uint64_t>(expected.size()));
  report.Add("exposed_records", static_cast<std::uint64_t>(exposed.size()));
  report.Add("value_mismatches",
             static_cast<std::uint64_t>(value_mismatches));
  report.Add("server_crashes", static_cast<std::uint64_t>(m.server_crashes));
  report.Add("server_restarts", static_cast<std::uint64_t>(m.server_restarts));
  report.Add("wal_cells_replayed",
             static_cast<std::uint64_t>(m.wal_cells_replayed));
  report.Add("propagations_orphaned",
             static_cast<std::uint64_t>(m.propagations_orphaned));
  report.Add("prop_batched", static_cast<std::uint64_t>(m.prop_batched));
  report.Add("coordinator_retries",
             static_cast<std::uint64_t>(m.coordinator_retries));
  report.AddRaw("metrics", m.ToJson());
  report.Write();
}

}  // namespace
}  // namespace mvstore::bench

int main() { mvstore::bench::Run(); }
