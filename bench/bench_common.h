// Shared infrastructure for the figure-reproduction benches.
//
// Each bench binary rebuilds one of the paper's experiments (Section VI) on
// the simulated cluster: 4 servers, N=3, R=W=1 (Cassandra defaults), a
// uniformly keyed base table with a unique secondary-key column, and one of
// three access-path scenarios:
//
//   BT — plain base table (primary-key access only)
//   SI — native secondary index on the secondary-key column
//   MV — materialized view keyed by the secondary-key column
//
// Scale is controlled by environment variables so the full paper-scale run
// is possible but the default stays laptop-quick:
//   MV_BENCH_ROWS             table size          (default 20000; paper 1M)
//   MV_BENCH_MEASURE_SECONDS  measurement window  (default 10; paper 300)
//   MV_BENCH_READS            fixed-count latency reads (default 2000;
//                             paper 100k)
//   MV_BENCH_ROW_CACHE        replica-local row cache capacity: 0 caches
//                             nothing (for cache-off comparison runs);
//                             N>0 sets row_cache_entries=N; unset
//                             uses the bench default (65536 — large enough
//                             to keep every bootstrap-loaded replica hot)
//   MV_BENCH_VIEW_SHARDS      sub-shards per view key for the MV scenario
//                             (default 1 = classic layout; >1 spreads each
//                             view key over that many ring partitions and
//                             ViewGets scatter-gather, see DESIGN.md §12)

#ifndef MVSTORE_BENCH_BENCH_COMMON_H_
#define MVSTORE_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/json_writer.h"
#include "common/str_util.h"
#include "store/client.h"
#include "store/cluster.h"
#include "store/config.h"
#include "store/schema.h"
#include "view/maintenance_engine.h"
#include "workload/key_generator.h"
#include "workload/runner.h"

namespace mvstore::bench {

enum class Scenario { kBaseTable, kSecondaryIndex, kMaterializedView };

inline const char* ScenarioName(Scenario s) {
  switch (s) {
    case Scenario::kBaseTable:
      return "BT";
    case Scenario::kSecondaryIndex:
      return "SI";
    case Scenario::kMaterializedView:
      return "MV";
  }
  return "?";
}

inline std::int64_t EnvInt(const char* name, std::int64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoll(value) : fallback;
}

struct BenchScale {
  std::int64_t rows = EnvInt("MV_BENCH_ROWS", 20000);
  std::int64_t measure_seconds = EnvInt("MV_BENCH_MEASURE_SECONDS", 10);
  std::int64_t latency_reads = EnvInt("MV_BENCH_READS", 2000);
};

/// The PerfModel calibrated against the paper's testbed (DESIGN.md §4):
/// dual-core servers on a 1 GbE LAN; constants tuned so BT read latency and
/// the BT:SI:MV ratios land near Figures 3 and 5.
inline store::ClusterConfig PaperConfig(std::uint64_t seed = 42) {
  store::ClusterConfig config;
  config.num_servers = 4;
  config.replication_factor = 3;
  config.cores_per_server = 2;
  config.default_read_quorum = 1;
  config.default_write_quorum = 1;
  config.seed = seed;
  config.network.base_latency = Micros(100);
  config.network.jitter_mean = Micros(55);
  config.perf.read_local = Micros(60);
  config.perf.write_local = Micros(50);
  config.perf.coordinator_op = Micros(15);
  config.perf.index_update_local = Micros(20);
  config.perf.index_scan_local = Micros(950);
  config.perf.view_scan_local = Micros(90);
  // The paper's measured prototype propagated without concurrency control
  // (Section IV-F's lock service / dedicated propagators are proposals;
  // bench/ablation_propagation_mode compares all three).
  config.propagation_mode = store::PropagationMode::kUnsynchronized;
  // Replica-local row cache (ISSUE 5). On by default for benches — real
  // deployments read hot rows from memory — with 0 caching nothing for
  // cache-off comparisons (CI diffs the two).
  const std::int64_t cache = EnvInt("MV_BENCH_ROW_CACHE", -1);
  if (cache == 0) {
    config.row_cache_entries = 0;
  } else if (cache > 0) {
    config.row_cache_entries = static_cast<std::size_t>(cache);
  } else {
    config.row_cache_entries = 65536;
  }
  // Sub-shards per view key (ISSUE 9); BenchSchema builds "by_skey" with
  // this count.
  config.view_shard_count =
      static_cast<int>(EnvInt("MV_BENCH_VIEW_SHARDS", 1));
  return config;
}

/// Schema: "usertable" keyed by primary key, with the secondary-key column
/// "skey" (values unique across rows, as in Section VI-A) and a payload
/// column "field0". The scenario decides whether an index or a view exists
/// on skey.
inline store::Schema BenchSchema(Scenario scenario, int view_shards = 1) {
  store::Schema schema;
  MVSTORE_CHECK(schema.CreateTable({.name = "usertable"}).ok());
  if (scenario == Scenario::kSecondaryIndex) {
    MVSTORE_CHECK(
        schema.CreateIndex({.table = "usertable", .column = "skey"}).ok());
  }
  if (scenario == Scenario::kMaterializedView) {
    auto view = store::ViewDefBuilder("by_skey")
                    .Base("usertable")
                    .Key("skey")
                    .Materialize("field0")
                    .Shards(view_shards)
                    .Build();
    MVSTORE_CHECK(view.ok()) << view.status();
    MVSTORE_CHECK(schema.CreateView(std::move(view).value()).ok());
  }
  return schema;
}

/// A cluster plus view engine for one scenario, loaded with `rows` records:
/// primary key k<i>, skey s<i> (unique), payload field0.
struct BenchCluster {
  BenchCluster(Scenario scenario, const BenchScale& scale,
               store::ClusterConfig config = PaperConfig())
      : scenario(scenario),
        cluster(config, BenchSchema(scenario, config.view_shard_count)),
        views(std::make_unique<view::MaintenanceEngine>(&cluster)) {
    cluster.Start();
    for (std::int64_t i = 0; i < scale.rows; ++i) {
      cluster.BootstrapLoadRow(
          "usertable", workload::FormatKey("k", static_cast<std::uint64_t>(i)),
          {{"skey", workload::FormatKey("s", static_cast<std::uint64_t>(i))},
           {"field0", std::string("payload-") + std::to_string(i)}},
          /*ts=*/1000 + i);
    }
  }

  Scenario scenario;
  store::Cluster cluster;
  std::unique_ptr<view::MaintenanceEngine> views;
};

/// One secondary- or primary-key read, per scenario. `done(ok)` fires on
/// completion. `rank` selects the record.
inline void IssueRead(Scenario scenario, store::Client& client,
                      std::uint64_t rank, std::function<void(bool)> done) {
  switch (scenario) {
    case Scenario::kBaseTable: {
      store::ReadOptions options;
      options.columns = {"field0"};
      client.Get("usertable", workload::FormatKey("k", rank), options,
                 [done](store::ReadResult result) { done(result.ok()); });
      break;
    }
    case Scenario::kSecondaryIndex:
      client.Query(store::QuerySpec::Index("usertable", "skey",
                                           workload::FormatKey("s", rank)),
                   store::ReadOptions{}, [done](store::ReadResult result) {
                     done(result.ok() && !result.rows.empty());
                   });
      break;
    case Scenario::kMaterializedView: {
      store::ReadOptions options;
      options.columns = {"field0"};
      client.Query(
          store::QuerySpec::View("by_skey", workload::FormatKey("s", rank)),
          options, [done](store::ReadResult result) {
            done(result.ok() && !result.records.empty());
          });
      break;
    }
  }
}

/// One base-table update of the secondary-key column (the write the paper's
/// Section VI-B measures). New skey values are drawn from a disjoint range
/// so they stay unique.
inline void IssueSkeyUpdate(store::Client& client, std::uint64_t rank,
                            std::uint64_t fresh_value,
                            std::function<void(bool)> done) {
  client.Put("usertable", workload::FormatKey("k", rank),
             {{"skey", workload::FormatKey("x", fresh_value, 12)}},
             store::WriteOptions{},
             [done](store::WriteResult result) { done(result.ok()); });
}

// --- output helpers: every bench prints a paper-shaped table ---

inline void PrintTitle(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintNote(const std::string& note) {
  std::printf("%s\n", note.c_str());
}

/// The crash-fault-model counters, one per line (chaos/nemesis benches).
inline void PrintFaultCounters(const store::Metrics& m) {
  std::printf("  %-34s %10llu\n  %-34s %10llu\n  %-34s %10llu\n"
              "  %-34s %10llu\n  %-34s %10llu\n  %-34s %10llu\n"
              "  %-34s %10llu\n",
              "server crashes",
              static_cast<unsigned long long>(m.server_crashes),
              "server restarts",
              static_cast<unsigned long long>(m.server_restarts),
              "commit-log cells replayed",
              static_cast<unsigned long long>(m.wal_cells_replayed),
              "in-flight ops aborted",
              static_cast<unsigned long long>(m.inflight_ops_aborted),
              "lock leases expired",
              static_cast<unsigned long long>(m.locks_expired),
              "propagations orphaned",
              static_cast<unsigned long long>(m.propagations_orphaned),
              "orphaned families re-scrubbed",
              static_cast<unsigned long long>(
                  m.orphaned_propagations_recovered));
}

// --- machine-readable output: every bench also writes BENCH_<name>.json ---

/// Collects a bench's headline numbers and writes them as one JSON document,
/// `BENCH_<name>.json`, into $MV_BENCH_JSON_DIR (or the working directory).
/// Entries keep insertion order; doubles use the deterministic formatter, so
/// same-seed runs produce byte-identical files. The human-readable table the
/// bench prints is unaffected — this rides alongside it for CI artifacts and
/// plotting scripts.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void Add(const std::string& key, double value) {
    entries_.emplace_back(key, JsonFormatDouble(value));
  }
  void Add(const std::string& key, std::int64_t value) {
    entries_.emplace_back(key, std::to_string(value));
  }
  void Add(const std::string& key, std::uint64_t value) {
    entries_.emplace_back(key, std::to_string(value));
  }
  void Add(const std::string& key, int value) {
    Add(key, static_cast<std::int64_t>(value));
  }
  void Add(const std::string& key, const std::string& value) {
    entries_.emplace_back(key, JsonQuote(value));
  }
  void Add(const std::string& key, const char* value) {
    Add(key, std::string(value));
  }

  /// Records a latency histogram (simulated microseconds) as an object of
  /// count / mean / p50 / p95 / p99 / max.
  void AddHistogramUs(const std::string& key, const Histogram& h) {
    JsonWriter w;
    w.BeginObject();
    w.Key("count").Value(h.count());
    w.Key("mean_us").Value(h.count() > 0 ? h.Mean() : 0.0);
    w.Key("p50_us").Value(h.count() > 0 ? h.Percentile(50) : 0.0);
    w.Key("p95_us").Value(h.count() > 0 ? h.Percentile(95) : 0.0);
    w.Key("p99_us").Value(h.count() > 0 ? h.Percentile(99) : 0.0);
    w.Key("max_us").Value(h.count() > 0 ? h.max() : 0);
    w.EndObject();
    entries_.emplace_back(key, w.str());
  }

  /// Splices a pre-rendered JSON value (e.g. Metrics::ToJson()) verbatim.
  void AddRaw(const std::string& key, const std::string& json) {
    entries_.emplace_back(key, json);
  }

  /// Writes BENCH_<name>.json and prints its path. Returns false (and warns
  /// on stderr) when the file cannot be opened.
  bool Write() const {
    JsonWriter w;
    w.BeginObject();
    w.Key("bench").Value(name_);
    for (const auto& [key, json] : entries_) w.Key(key).Raw(json);
    w.EndObject();

    std::string dir = ".";
    if (const char* env = std::getenv("MV_BENCH_JSON_DIR");
        env != nullptr && env[0] != '\0') {
      dir = env;
    }
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    out << w.str() << "\n";
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace mvstore::bench

#endif  // MVSTORE_BENCH_BENCH_COMMON_H_
