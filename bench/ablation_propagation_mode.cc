// Ablation A2 — The three propagation concurrency-control designs under
// skew: unsynchronized (the paper's prototype), the Section IV-F lock
// service, and Section IV-F dedicated propagators.
//
// Measured on the Figure-8 hot-range workload (10 writers, narrow key
// range): foreground write throughput, propagation completion within the
// window, and — the correctness side — whether the converged view survives
// a scrub. Unsynchronized is expected to burn capacity on retry storms (and
// can strand anomalies); the two §IV-F designs shed conflict load, at the
// cost of propagation backlog. At this conflict rate every mode still
// abandons propagations at its retry budget, and with no scrub running the
// final audit reports each view dirty (EXPERIMENTS.md A2).

#include <cmath>
#include <cstdio>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "view/scrub.h"

namespace mvstore::bench {
namespace {

struct Result {
  double throughput;
  std::uint64_t completed;
  std::uint64_t started;
  std::uint64_t retries;
  std::uint64_t abandoned;
  bool scrub_clean;
};

Result MeasureMode(store::PropagationMode mode, std::uint64_t range,
                   const BenchScale& scale) {
  store::ClusterConfig config = PaperConfig();
  config.propagation_mode = mode;
  if (mode != store::PropagationMode::kUnsynchronized) {
    // The heavy-tailed dispatch delay models the PROTOTYPE's executor
    // (DESIGN.md substitution 2); our Section IV-F engines dispatch
    // promptly, so submission order tracks dependency order.
    config.perf.propagation_dispatch_mu = std::log(2000.0);  // 2 ms
    config.perf.propagation_dispatch_sigma = 0.3;
  }
  BenchCluster bc(Scenario::kMaterializedView, scale, config);
  Rng rng(222);
  std::uint64_t fresh = 0;
  workload::ClosedLoopRunner runner(
      &bc.cluster, /*num_clients=*/10,
      [&rng, range, &fresh](int, store::Client& client,
                            std::function<void(bool)> done) {
        const auto rank = static_cast<std::uint64_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(range) - 1));
        IssueSkeyUpdate(client, rank, fresh++, std::move(done));
      });
  // Throttle to a SUSTAINABLE rate (~400 writes/s): under overload every
  // asynchronous maintenance design falls behind without bound, hiding the
  // real difference between the modes (correctness + retry efficiency).
  runner.set_think_time(Millis(25));
  workload::RunResult run =
      runner.Run(Millis(500), Seconds(scale.measure_seconds));
  // Drain every outstanding propagation before scrubbing (abandonments
  // terminate too, so this is bounded).
  bc.views->Quiesce();
  bc.cluster.RunFor(Millis(200));
  const store::ViewDef& view = *bc.cluster.schema().GetView("by_skey");
  const bool clean = view::CheckView(bc.cluster, view).clean();
  return Result{run.Throughput(), bc.cluster.metrics().propagations_completed,
                bc.cluster.metrics().propagations_started,
                bc.cluster.metrics().propagation_failures,
                bc.cluster.metrics().propagations_abandoned, clean};
}

void Run() {
  BenchScale scale;
  const std::uint64_t range = static_cast<std::uint64_t>(
      EnvInt("MV_BENCH_SKEW_RANGE", 8));
  PrintTitle("Ablation A2: propagation concurrency control under skew");
  PrintNote(StrFormat("hot range width=%llu, 10 writers, %llds window",
                      static_cast<unsigned long long>(range),
                      static_cast<long long>(scale.measure_seconds)));
  std::printf("%-24s %10s %11s %11s %9s %10s %7s\n", "mode", "req/sec",
              "prop done", "prop start", "retries", "abandoned", "scrub");
  struct ModeInfo {
    store::PropagationMode mode;
    const char* name;
  };
  const ModeInfo modes[] = {
      {store::PropagationMode::kUnsynchronized, "unsynchronized (paper)"},
      {store::PropagationMode::kLockService, "lock service (IV-F)"},
      {store::PropagationMode::kDedicatedPropagators, "propagators (IV-F)"},
  };
  BenchReport report("ablation_propagation_mode");
  report.Add("range", range);
  report.Add("window_seconds", scale.measure_seconds);
  const char* keys[] = {"unsynchronized", "lock_service", "propagators"};
  int index = 0;
  for (const ModeInfo& info : modes) {
    Result r = MeasureMode(info.mode, range, scale);
    std::printf("%-24s %10.0f %11llu %11llu %9llu %10llu %7s\n", info.name,
                r.throughput, static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.started),
                static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(r.abandoned),
                r.scrub_clean ? "clean" : "DIRTY");
    const std::string prefix = keys[index++];
    report.Add(prefix + "_rps", r.throughput);
    report.Add(prefix + "_prop_completed", r.completed);
    report.Add(prefix + "_prop_started", r.started);
    report.Add(prefix + "_retries", r.retries);
    report.Add(prefix + "_abandoned", r.abandoned);
    report.Add(prefix + "_scrub_clean", r.scrub_clean ? "clean" : "dirty");
  }
  report.Write();
}

}  // namespace
}  // namespace mvstore::bench

int main() { mvstore::bench::Run(); }
