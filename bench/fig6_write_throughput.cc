// Figure 6 — Write throughput vs number of concurrent clients.
//
// Paper setup: like Figure 5, but 1..10 closed-loop writers, uniformly
// distributed over the records ("a best case for MV update throughput,
// because stale chains stay short").
//
// Paper result: BT highest; SI and MV lower because of maintenance work; MV
// pays both the coordinator's read-before-write and the asynchronous
// propagation traffic (GetLiveKey + view Puts on majority quorums), which
// competes with foreground writes for server capacity.

#include <cstdio>

#include "bench/bench_common.h"
#include "common/rng.h"

namespace mvstore::bench {
namespace {

double MeasureWriteThroughput(Scenario scenario, int clients,
                              const BenchScale& scale) {
  BenchCluster bc(scenario, scale);
  Rng rng(6000 + static_cast<std::uint64_t>(clients));
  std::uint64_t fresh = static_cast<std::uint64_t>(clients) << 32;
  workload::ClosedLoopRunner runner(
      &bc.cluster, clients,
      [&rng, &scale, &fresh](int, store::Client& client,
                             std::function<void(bool)> done) {
        const auto rank =
            static_cast<std::uint64_t>(rng.UniformInt(0, scale.rows - 1));
        IssueSkeyUpdate(client, rank, fresh++, std::move(done));
      });
  workload::RunResult result =
      runner.Run(Millis(500), Seconds(scale.measure_seconds));
  MVSTORE_CHECK_EQ(result.failures, 0u);
  return result.Throughput();
}

void Run() {
  BenchScale scale;
  PrintTitle("Figure 6: Write Throughput (req/sec vs #clients)");
  PrintNote(StrFormat(
      "rows=%lld window=%llds per point, uniform keys (paper: 1M rows, 300s)",
      static_cast<long long>(scale.rows),
      static_cast<long long>(scale.measure_seconds)));
  std::printf("%-8s %10s %10s %10s\n", "clients", "BT", "SI", "MV");
  BenchReport report("fig6_write_throughput");
  report.Add("rows", scale.rows);
  report.Add("window_seconds", scale.measure_seconds);
  for (int clients = 1; clients <= 10; ++clients) {
    const double bt =
        MeasureWriteThroughput(Scenario::kBaseTable, clients, scale);
    const double si =
        MeasureWriteThroughput(Scenario::kSecondaryIndex, clients, scale);
    const double mv =
        MeasureWriteThroughput(Scenario::kMaterializedView, clients, scale);
    std::printf("%-8d %10.0f %10.0f %10.0f\n", clients, bt, si, mv);
    const std::string prefix = "clients" + std::to_string(clients);
    report.Add(prefix + "_BT_rps", bt);
    report.Add(prefix + "_SI_rps", si);
    report.Add(prefix + "_MV_rps", mv);
  }
  report.Write();
}

}  // namespace
}  // namespace mvstore::bench

int main() { mvstore::bench::Run(); }
