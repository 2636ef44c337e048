// View-maintenance benchmark: one workload, one seed, one process.
//
//   mvbench --workload <update_mix|view_read_zipf|repair_churn>
//           --seed <n> --seconds <s> --trace <0|1>
//
// A run plays kSimEpisodes episodes with distinct sub-seeds derived from
// --seed and pools them for the simulated metrics, so those are exact for a
// given seed. It keeps replaying the same sub-seeds until --seconds of wall
// time have passed; the replays add wall-clock samples (reported as
// medians) and must reproduce their first play's simulated fingerprint.
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 plays each episode twice, untraced and traced, checks that the
// two agree on every simulated number, and prints the per-layer metrics.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics": {name: {"value", "unit"}}}. The exit code is 0 only
// when every episode passed its correctness audit.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json_writer.h"
#include "episode.h"
#include "ledger.h"

namespace mvbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSimEpisodes = 3;
// No episode starts after this much wall time, keeping a run well inside
// the 180 s a run may take.
constexpr double kLastStartSeconds = 120;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args->seconds <= 0) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value[0] - '0';
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         args->trace >= 0;
}

std::uint64_t SubSeed(std::uint64_t seed, int episode) {
  return seed * 1000003ULL + static_cast<std::uint64_t>(episode) + 1;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Peak resident set of this process image, from /proc (kB -> MB).
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

/// The simulated part of kSimEpisodes episodes, pooled.
struct Pooled {
  std::vector<std::int64_t> view_read_us, write_us, base_read_us;
  mvstore::Histogram propagation_delay, queue_wait, service, batch_flush,
      compaction, network, freshness_wait;
  std::map<std::string, std::uint64_t> counters;
  double window_s = 0;  ///< simulated seconds
  std::uint64_t ops = 0, attempts = 0, view_reads = 0, empty_view_reads = 0;
  std::uint64_t sim_events = 0, net_messages = 0, failed_ops = 0;

  void Add(const EpisodeResult& r) {
    auto append = [](std::vector<std::int64_t>& to,
                     const std::vector<std::int64_t>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(view_read_us, r.view_read_us);
    append(write_us, r.write_us);
    append(base_read_us, r.base_read_us);
    propagation_delay.Merge(r.propagation_delay);
    queue_wait.Merge(r.queue_wait);
    service.Merge(r.service);
    batch_flush.Merge(r.batch_flush);
    compaction.Merge(r.compaction);
    network.Merge(r.network);
    freshness_wait.Merge(r.freshness_wait);
    for (const auto& [name, value] : r.counters.counters) {
      counters[name] += value;
    }
    window_s += static_cast<double>(r.window) / 1e6;
    ops += r.ops;
    attempts += r.attempts;
    view_reads += r.view_reads;
    empty_view_reads += r.empty_view_reads;
    sim_events += r.sim_events;
    net_messages += r.net_messages;
    failed_ops += r.failed_ops;
  }

  double Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  }
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  /// Prints a readable table, then the JSON result as the last line.
  void Print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("  %-36s %16.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    mvstore::JsonWriter json;
    json.BeginObject();
    json.Key("correct").Value(correct);
    json.Key("attempted").Value(attempted);
    json.Key("failed").Value(failed);
    json.Key("metrics").BeginObject();
    for (const Metric& m : metrics_) {
      json.Key(m.name).BeginObject();
      json.Key("value").Value(m.value);
      json.Key("unit").Value(m.unit);
      json.EndObject();
    }
    json.EndObject();
    json.EndObject();
    std::printf("%s\n", json.str().c_str());
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

void AddEndToEnd(const Pooled& p, const std::vector<EpisodeResult>& runs,
                 Report* report) {
  Pooled q = p;  // SamplePercentile sorts in place
  report->Add("throughput_ops_per_sim_s", Ratio(q.ops, q.window_s), "ops/s");
  report->Add("view_read_p50_us", SamplePercentile(q.view_read_us, 50), "us");
  report->Add("view_read_p99_us", SamplePercentile(q.view_read_us, 99), "us");
  report->Add("write_p50_us", SamplePercentile(q.write_us, 50), "us");
  report->Add("write_p99_us", SamplePercentile(q.write_us, 99), "us");
  report->Add("base_read_p50_us", SamplePercentile(q.base_read_us, 50), "us");
  report->Add("base_read_p99_us", SamplePercentile(q.base_read_us, 99), "us");
  report->Add("view_lag_p50_us", SmoothPercentile(q.propagation_delay, 50),
              "us");
  report->Add("view_lag_p99_us", SmoothPercentile(q.propagation_delay, 99),
              "us");
  report->Add("attempts_per_op", Ratio(q.attempts, q.ops), "attempts/op");
  std::vector<double> setup;
  for (const EpisodeResult& r : runs) setup.push_back(r.setup_s);
  report->Add("setup_s", Median(setup), "s");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
}

void AddPerLayer(const Pooled& p, std::uint64_t rows,
                 const std::vector<EpisodeResult>& untraced,
                 const std::vector<EpisodeResult>& traced, Report* report) {
  const double ops = static_cast<double>(p.ops);
  auto c = [&p](const char* name) { return p.Counter(name); };

  // sim: the event loop and network.
  report->Add("sim.events_per_op", Ratio(p.sim_events, ops), "events/op");
  report->Add("sim.net_msgs_per_op", Ratio(p.net_messages, ops), "msgs/op");
  report->Add("sim.net_p99_us", SmoothPercentile(p.network, 99), "us");
  std::vector<double> ops_per_s, events_per_s, issue_us, load_us;
  for (const EpisodeResult& r : untraced) {
    ops_per_s.push_back(Ratio(static_cast<double>(r.ops), r.window_s));
    events_per_s.push_back(Ratio(static_cast<double>(r.sim_events), r.window_s));
    issue_us.push_back(1e6 * Ratio(r.client_call_s,
                                   static_cast<double>(r.client_calls)));
    load_us.push_back(1e6 * r.bootstrap_s / static_cast<double>(rows));
  }
  report->Add("sim.events_per_wall_s", Median(events_per_s), "events/s");
  // Client ops per wall second of the window. Wall-clock speed on a shared
  // machine drifts by more than an end-to-end bound allows, so it is a
  // per-layer figure (see README.md).
  report->Add("wall_ops_per_s", Median(ops_per_s), "ops/s");

  // store: coordinator queues, batching, repair.
  report->Add("store.queue_wait_p50_us", SmoothPercentile(p.queue_wait, 50),
              "us");
  report->Add("store.queue_wait_p99_us", SmoothPercentile(p.queue_wait, 99),
              "us");
  report->Add("store.service_p50_us", SmoothPercentile(p.service, 50), "us");
  report->Add("store.service_p99_us", SmoothPercentile(p.service, 99), "us");
  report->Add("store.batch_flush_p99_us", SmoothPercentile(p.batch_flush, 99),
              "us");
  report->Add("store.ae_rows_pushed_per_round",
              Ratio(c("anti_entropy_rows_pushed"),
                    c("anti_entropy_digest_exchanges")),
              "rows/round");
  report->Add("store.ae_buckets_synced", c("anti_entropy_buckets_synced"),
              "count");
  report->Add("store.hints_stored", c("hints_stored"), "count");
  report->Add("store.hints_replayed", c("hints_replayed"), "count");
  report->Add("store.hints_dropped", c("hints_dropped"), "count");
  report->Add("store.coordinator_retries", c("coordinator_retries"), "count");
  report->Add("store.quorum_failures", c("quorum_failures"), "count");
  report->Add("store.client_issue_wall_us", Median(issue_us), "us");
  report->Add("store.bootstrap_us_per_row", Median(load_us), "us/row");

  // storage: engines, row cache, compaction, commit log.
  const double probes = c("row_cache_hits") + c("row_cache_misses");
  report->Add("storage.row_cache_hit_ratio", Ratio(c("row_cache_hits"), probes),
              "ratio");
  report->Add("storage.row_cache_probes", probes, "count");
  report->Add("storage.compactions_run", c("compactions_run"), "count");
  report->Add("storage.compaction_p99_us", SmoothPercentile(p.compaction, 99),
              "us");
  report->Add("storage.tombstones_purged", c("tombstones_purged"), "count");
  report->Add("storage.tombstone_purge_deferred",
              c("tombstone_purge_deferred"), "count");
  report->Add("storage.wal_cells_replayed", c("wal_cells_replayed"), "count");

  // view: maintenance (Algorithms 1-3) and reads (Algorithm 4).
  const double props = c("propagations_completed");
  const double view_gets = c("client_view_gets");
  report->Add("view.prop_failures_per_prop",
              Ratio(c("propagation_failures"), props), "failures/prop");
  report->Add("view.chain_hops_per_prop", Ratio(c("chain_hops"), props),
              "hops/prop");
  report->Add("view.prop_batched_ratio",
              Ratio(c("prop_batched"), c("propagations_started")), "ratio");
  report->Add("view.lock_waits", c("lock_waits"), "count");
  report->Add("view.read_empty_frac",
              Ratio(static_cast<double>(p.empty_view_reads),
                    static_cast<double>(p.view_reads)),
              "ratio");
  report->Add("view.get_spins_per_read", Ratio(c("view_get_spins"), view_gets),
              "spins/read");
  report->Add("view.stale_rows_filtered_per_read",
              Ratio(c("stale_rows_filtered"), view_gets), "rows/read");
  report->Add("view.scatter_scans", c("view_scatter_scans"), "count");
  report->Add("view.freshness_bound_misses", c("freshness_bound_misses"),
              "count");
  report->Add("view.freshness_bound_waits", c("freshness_bound_waits"),
              "count");
  report->Add("view.freshness_fallbacks",
              c("freshness_fallback_si") + c("freshness_fallback_base"),
              "count");
  report->Add("view.freshness_wait_p99_us",
              SmoothPercentile(p.freshness_wait, 99), "us");
  report->Add("view.propagations_orphaned", c("propagations_orphaned"),
              "count");
  report->Add("view.propagations_recovered",
              c("orphaned_propagations_recovered"), "count");

  // trace: simulated self time per op by span family, from sampled traces.
  TraceLedger ledger;
  std::uint64_t spans = 0, evicted = 0;
  for (const EpisodeResult& r : traced) {
    ledger.Merge(r.ledger);
    spans += r.spans_recorded;
    evicted += r.spans_evicted;
  }
  for (SpanFamily f :
       {SpanFamily::kClient, SpanFamily::kNet, SpanFamily::kSvc,
        SpanFamily::kQuorum, SpanFamily::kViewRead, SpanFamily::kViewPropagate,
        SpanFamily::kHint, SpanFamily::kAntiEntropy, SpanFamily::kMember,
        SpanFamily::kOther}) {
    report->Add(std::string("trace.self_us.") + SpanFamilyName(f),
                ledger.SelfUsPerOp(f), "us/op");
  }
  // Cache probes are instants in the trace (their cost is billed inside
  // the enclosing svc span), so they are counted rather than timed.
  report->Add("trace.cache_spans_per_op", ledger.SpansPerOp(SpanFamily::kCache),
              "spans/op");
  report->Add("trace.sampled_traces", static_cast<double>(ledger.accepted()),
              "count");
  report->Add("trace.incomplete_traces", static_cast<double>(ledger.rejected()),
              "count");
  report->Add("common.trace.spans_per_op",
              Ratio(static_cast<double>(spans), ops), "spans/op");
  report->Add("common.trace.evicted", static_cast<double>(evicted), "count");
  std::vector<double> overhead;
  for (std::size_t i = 0; i < traced.size() && i < untraced.size(); ++i) {
    overhead.push_back(Ratio(traced[i].window_s, untraced[i].window_s) - 1);
  }
  report->Add("common.trace.overhead_frac", Median(overhead), "ratio");
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "mvbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Clock::time_point start = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  const bool traced = args.trace == 1;
  std::vector<EpisodeResult> untraced, with_trace;
  std::uint64_t errors = 0, failed = 0;
  std::string first_error;
  auto check = [&](const EpisodeResult& r) {
    failed += r.failed_ops;
    if (r.errors > 0 && errors == 0) first_error = r.first_error;
    errors += r.errors;
  };
  auto mismatch = [&](const std::string& what) {
    if (errors++ == 0) first_error = what;
  };

  // A traced run plays each episode twice, so it stops at kSimEpisodes.
  for (int i = 0; i < kSimEpisodes ||
                  (!traced && elapsed() < args.seconds &&
                   elapsed() < kLastStartSeconds);
       ++i) {
    // Episode k always runs cluster k: ring placement decides where the
    // hot keys land, and a run should differ from another by its inputs.
    const std::uint64_t seed = SubSeed(args.seed, i % kSimEpisodes);
    const std::uint64_t cluster_seed = 1 + i % kSimEpisodes;
    untraced.push_back(
        RunEpisode(*spec, seed, cluster_seed, {.time_client = traced}));
    check(untraced.back());

    if (i >= kSimEpisodes &&
        untraced.back().Fingerprint() !=
            untraced[i % kSimEpisodes].Fingerprint()) {
      mismatch("replayed episode diverged: " + untraced.back().Fingerprint() +
               " vs " + untraced[i % kSimEpisodes].Fingerprint());
    }
    if (traced) {
      with_trace.push_back(
          RunEpisode(*spec, seed, cluster_seed,
                     {.traced = true, .time_client = true}));
      check(with_trace.back());
      if (with_trace.back().Fingerprint() != untraced.back().Fingerprint()) {
        mismatch("tracing changed the simulation: " +
                 with_trace.back().Fingerprint() + " vs " +
                 untraced.back().Fingerprint());
      }
    }
  }

  Pooled pooled;
  for (int i = 0; i < kSimEpisodes; ++i) pooled.Add(untraced[i]);
  Report report;
  if (traced) {
    AddPerLayer(pooled, spec->rows, untraced, with_trace, &report);
  } else {
    AddEndToEnd(pooled, untraced, &report);
  }
  std::printf("%s seed=%llu: %zu episodes in %.1f s wall, %llu ops pooled\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              untraced.size() + with_trace.size(), elapsed(),
              static_cast<unsigned long long>(pooled.ops));
  const bool correct = errors == 0 && failed == 0;
  if (!correct) {
    std::fprintf(stderr, "mvbench: INCORRECT (%llu errors): %s\n",
                 static_cast<unsigned long long>(errors), first_error.c_str());
  }
  report.Print(correct, pooled.ops + pooled.failed_ops, pooled.failed_ops);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace mvbench

int main(int argc, char** argv) {
  mvbench::Args args;
  if (!mvbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: mvbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  return mvbench::Run(args);
}
