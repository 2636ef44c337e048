// One benchmark episode: build a cluster for a workload, load it, warm it
// up, run the closed-loop clients for the measured window, then quiesce and
// audit the final state through the public Client API.
//
// Everything simulated in an episode is a pure function of (workload,
// seed): two episodes with the same inputs produce the same latencies,
// counters and event count, whether or not tracing is on. Only the
// wall-clock fields differ between them.

#ifndef MVBENCH_EPISODE_H_
#define MVBENCH_EPISODE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/metrics_registry.h"
#include "common/types.h"
#include "ledger.h"

namespace mvbench {

using mvstore::SimTime;

/// A traffic mix over one table "usertable" (primary key k<i>, unique
/// secondary key `skey`, payload `field0`) and one view "by_skey" keyed by
/// skey that materializes field0. Updates move a row's skey to a fresh value
/// and rewrite its payload; view reads look up a row's last-acked skey; base
/// reads fetch a row by primary key.
struct WorkloadSpec {
  const char* name = "";
  std::uint64_t rows = 0;
  int clients = 0;
  double update_frac = 0;  ///< share of updates
  bool moves_skey = true;  ///< updates move the skey (else payload only)
  double view_frac = 0;    ///< share of view reads; the rest are base reads
  double zipf_theta = 0;   ///< view-read key skew; 0 = uniform
  int view_shards = 1;
  std::size_t row_cache_entries = 0;
  int session_clients = 0;   ///< clients whose view reads are read-your-writes
  double bounded_frac = 0;   ///< other clients' view reads at bounded staleness
  SimTime staleness_bound = 0;
  bool small_memtables = false;
  SimTime compaction_interval = 0;
  SimTime anti_entropy_interval = 0;
  bool nemesis = false;  ///< crash/restart + join/leave + partitions
  SimTime request_timeout = 0;
  SimTime warmup = 0;
  SimTime window = 0;
};

/// The workload table; nullptr when `name` is unknown.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

struct EpisodeOptions {
  bool traced = false;       ///< tracing on (per-layer span accounting)
  bool time_client = false;  ///< wall-time every Client call (per-layer)
};

/// What one episode measured. Simulated fields cover the measured window.
struct EpisodeResult {
  // --- client-visible, simulated ---
  std::vector<std::int64_t> view_read_us;  ///< successful attempts only
  std::vector<std::int64_t> write_us;
  std::vector<std::int64_t> base_read_us;
  mvstore::Histogram propagation_delay;    ///< base Put ack -> view landed
  SimTime window = 0;
  std::uint64_t ops = 0;              ///< logical ops completed successfully
  std::uint64_t attempts = 0;         ///< attempts completed (incl. retries)
  std::uint64_t failed_attempts = 0;  ///< non-OK completions and timeouts
  std::uint64_t failed_ops = 0;       ///< ops that exhausted their retries
  std::uint64_t view_reads = 0;       ///< successful view reads
  std::uint64_t empty_view_reads = 0; ///< ... that returned no record

  // --- correctness ---
  std::uint64_t errors = 0;  ///< audit mismatches + in-run violations
  std::string first_error;

  // --- determinism fingerprint ---
  std::uint64_t sim_events = 0;  ///< events executed in the window
  std::uint64_t net_messages = 0;
  std::uint64_t latency_sum_us = 0;

  // --- layers (window deltas) ---
  mvstore::MetricsSnapshot counters;
  mvstore::Histogram queue_wait, service, batch_flush, compaction, network,
      freshness_wait;
  std::uint64_t spans_recorded = 0, spans_evicted = 0;
  TraceLedger ledger;

  // --- wall clock ---
  double setup_s = 0;      ///< construction + bootstrap + warmup
  double bootstrap_s = 0;  ///< the bootstrap load alone
  double window_s = 0;     ///< the measured window, excluding span harvests
  double client_call_s = 0;  ///< inside Client calls (time_client only)
  std::uint64_t client_calls = 0;

  std::string Fingerprint() const;
};

/// `workload_seed` draws the clients' keys and op mix; `cluster_seed`
/// seeds the cluster itself (ring placement, network jitter, propagation
/// dispatch delays) and the fault schedule.
EpisodeResult RunEpisode(const WorkloadSpec& spec, std::uint64_t workload_seed,
                         std::uint64_t cluster_seed,
                         const EpisodeOptions& options);

}  // namespace mvbench

#endif  // MVBENCH_EPISODE_H_
