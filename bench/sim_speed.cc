// Harness-speed bench — simulated-ops per wall-second on a fixed seed.
//
// Every other bench in this directory measures *simulated* performance
// (latency and throughput in virtual time, which a fixed seed makes exactly
// reproducible). This one measures the opposite axis: how much wall-clock
// the harness burns to push a fixed seeded workload through the full
// client -> quorum -> storage -> view-maintenance stack. It is the gate for
// the raw-speed work (ISSUE 8): calendar event queue, move-only closures,
// interned keys, pooled flush/merge buffers.
//
// The workload is deliberately allocation-heavy for the harness: closed-loop
// clients mix view reads, base reads, and skey updates (each update fans out
// replica writes AND a view propagation with composed view-row keys), while
// small memtables force continuous flush/merge churn underneath.
//
//   MV_BENCH_ROWS             table size                (default 5000)
//   MV_BENCH_MEASURE_SECONDS  simulated window          (default 3)
//   MV_BENCH_SIM_CLIENTS      closed-loop clients       (default 16)
//   MV_BENCH_SIM_SEED         workload seed             (default 42)
//
// Wall-clock numbers are machine-dependent; the CI gate therefore compares
// against a committed baseline (bench/baselines/BENCH_sim_speed_baseline.json)
// captured on the same runner class, and the JSON also records the
// machine-independent fingerprint (sim events, client ops, end time) so a
// speed change can be told apart from a workload change. It also records
// the process's peak RSS (VmHWM), which the gate bounds at 1.25x the
// baseline's.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench/bench_common.h"
#include "common/rng.h"

namespace mvstore::bench {
namespace {

/// Peak resident set of this process (VmHWM from /proc, kB -> MB); 0 where
/// /proc is unavailable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void Run() {
  // Smaller defaults than the figure benches: the pre-refactor harness pays
  // O(table) scan copies per anti-entropy round, and the baseline must stay
  // runnable on a CI machine.
  BenchScale scale;
  scale.rows = EnvInt("MV_BENCH_ROWS", 5000);
  scale.measure_seconds = EnvInt("MV_BENCH_MEASURE_SECONDS", 3);
  const auto clients = static_cast<int>(EnvInt("MV_BENCH_SIM_CLIENTS", 16));
  const auto seed = static_cast<std::uint64_t>(EnvInt("MV_BENCH_SIM_SEED", 42));
  const SimTime measure = Seconds(scale.measure_seconds > 0
                                      ? scale.measure_seconds
                                      : 3);

  store::ClusterConfig config = PaperConfig(seed);
  // Small memtables keep the flush -> run -> size-tiered merge pipeline hot;
  // the compaction clock adds periodic full merges on top.
  config.engine.memtable_flush_entries = 512;
  config.compaction_interval = Millis(500);
  config.anti_entropy_interval = Millis(800);

  PrintTitle("sim_speed: harness wall-clock throughput (fixed seed)");
  std::printf("rows=%lld clients=%d simulated=%llds seed=%llu\n",
              static_cast<long long>(scale.rows), clients,
              static_cast<long long>(ToSeconds(measure)),
              static_cast<unsigned long long>(seed));

  const auto wall_start = std::chrono::steady_clock::now();
  BenchCluster bc(Scenario::kMaterializedView, scale, config);
  const auto wall_loaded = std::chrono::steady_clock::now();

  const auto rows = static_cast<std::uint64_t>(scale.rows);
  Rng rng(seed * 9176);
  std::uint64_t fresh = rows;
  const SimTime warmup = Millis(500);
  const SimTime window_start = bc.cluster.Now() + warmup;
  const SimTime window_end = window_start + measure;
  // A view read of an skey that an update has since moved away comes back
  // OK but empty: that is the workload, not a failure. Count those apart
  // from non-OK completions (the runner's `failures`), over the same window.
  std::uint64_t view_reads_empty = 0;
  workload::ClosedLoopRunner runner(
      &bc.cluster, clients,
      [&](int, store::Client& client, std::function<void(bool)> done) {
        const std::uint64_t rank = rng.UniformInt(0, rows - 1);
        const double draw = rng.NextDouble();
        if (draw < 0.40) {
          IssueSkeyUpdate(client, rank, fresh++, std::move(done));
        } else if (draw < 0.80) {
          store::ReadOptions options;
          options.columns = {"field0"};
          client.Query(
              store::QuerySpec::View("by_skey", workload::FormatKey("s", rank)),
              options, [&, done](store::ReadResult result) {
                const SimTime now = bc.cluster.Now();
                if (result.ok() && result.records.empty() &&
                    now >= window_start && now < window_end) {
                  ++view_reads_empty;
                }
                done(result.ok());
              });
        } else {
          IssueRead(Scenario::kBaseTable, client, rank, std::move(done));
        }
      });
  workload::RunResult result = runner.Run(warmup, measure);
  bc.views->Quiesce();
  bc.cluster.RunFor(Millis(500));
  const auto wall_end = std::chrono::steady_clock::now();

  const double wall_load_s =
      std::chrono::duration<double>(wall_loaded - wall_start).count();
  const double wall_run_s =
      std::chrono::duration<double>(wall_end - wall_loaded).count();
  const std::uint64_t sim_events = bc.cluster.simulation().steps();
  const double events_per_wall_s =
      wall_run_s > 0 ? static_cast<double>(sim_events) / wall_run_s : 0;
  const double ops_per_wall_s =
      wall_run_s > 0 ? static_cast<double>(result.operations) / wall_run_s : 0;

  std::printf("\n  %-34s %12.2f\n  %-34s %12.2f\n", "bootstrap wall s",
              wall_load_s, "run wall s", wall_run_s);
  std::printf("  %-34s %12llu\n  %-34s %12llu\n", "sim events executed",
              static_cast<unsigned long long>(sim_events), "client ops",
              static_cast<unsigned long long>(result.operations));
  std::printf("  %-34s %12llu\n  %-34s %12llu\n", "client errors (non-OK)",
              static_cast<unsigned long long>(result.failures),
              "view reads empty (OK)",
              static_cast<unsigned long long>(view_reads_empty));
  std::printf("  %-34s %12.0f\n  %-34s %12.0f\n", "sim events / wall s",
              events_per_wall_s, "client ops / wall s", ops_per_wall_s);
  std::printf("  %-34s %12.0f\n", "sim ops / sim s (virtual)",
              result.Throughput());
  // Replica reads served (point reads and partition scans, the maintenance
  // engine's own included) per client read, over the whole run: how many
  // replicas the read routing asks.
  const store::Metrics& metrics = bc.cluster.metrics();
  const std::uint64_t client_reads =
      metrics.client_gets.value() + metrics.client_view_gets.value();
  const double replica_reads_per_client_read =
      client_reads > 0 ? static_cast<double>(metrics.replica_reads.value()) /
                             static_cast<double>(client_reads)
                       : 0;
  std::printf("  %-34s %12.2f\n", "replica reads / client read",
              replica_reads_per_client_read);
  // Rows anti-entropy shipped (both ways) per (table, peer) digest exchange.
  const double ae_rows_pushed_per_round =
      metrics.anti_entropy_digest_exchanges.value() > 0
          ? static_cast<double>(metrics.anti_entropy_rows_pushed.value()) /
                static_cast<double>(
                    metrics.anti_entropy_digest_exchanges.value())
          : 0;
  std::printf("  %-34s %12.2f\n", "anti-entropy rows / round",
              ae_rows_pushed_per_round);
  const double peak_rss_mb = PeakRssMb();
  std::printf("  %-34s %12.1f\n", "peak RSS MB (VmHWM)", peak_rss_mb);

  BenchReport report("sim_speed");
  report.Add("rows", static_cast<std::int64_t>(scale.rows));
  report.Add("clients", clients);
  report.Add("seed", static_cast<std::uint64_t>(seed));
  report.Add("simulated_seconds", ToSeconds(measure));
  // Machine-independent fingerprint: identical across machines for one
  // build of the code, so baseline comparisons can verify the workload
  // itself did not drift.
  report.Add("sim_events", sim_events);
  report.Add("client_ops", result.operations);
  report.Add("client_failures", result.failures);  // non-OK completions
  report.Add("view_reads_empty", view_reads_empty);
  report.Add("sim_end_time_us", static_cast<std::int64_t>(bc.cluster.Now()));
  report.Add("replica_reads_per_client_read", replica_reads_per_client_read);
  report.Add("reads_one_replica", metrics.reads_one_replica.value());
  report.Add("reads_fanned_out", metrics.reads_fanned_out.value());
  report.Add("spares_contacted", metrics.spares_contacted.value());
  report.Add("ae_rows_pushed_per_round", ae_rows_pushed_per_round);
  // Machine-dependent speed (what the gate ratios against the baseline).
  report.Add("bootstrap_wall_s", wall_load_s);
  report.Add("run_wall_s", wall_run_s);
  report.Add("sim_events_per_wall_s", events_per_wall_s);
  report.Add("client_ops_per_wall_s", ops_per_wall_s);
  // Harness memory: peak pending events, row data and buffers, not a
  // function of how many events passed through.
  report.Add("peak_rss_mb", peak_rss_mb);
  report.Write();
}

}  // namespace
}  // namespace mvstore::bench

int main() {
  mvstore::bench::Run();
  return 0;
}
