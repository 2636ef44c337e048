// Cluster-wide configuration.
//
// The defaults model the paper's testbed: 4 servers, dual-core, 1 GbE,
// replication factor N = 3, and Cassandra's default consistency level of ONE
// for both reads and writes (the paper varies only what the experiments
// require). The PerfModel service times are the calibration knobs described
// in DESIGN.md section 4: they set absolute magnitudes; the figures' shapes
// come from how many servers and round trips each access path consumes.

#ifndef MVSTORE_STORE_CONFIG_H_
#define MVSTORE_STORE_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "common/types.h"
#include "sim/network.h"
#include "storage/engine.h"

namespace mvstore::store {

/// Client (wall-clock) timestamps start here so they always exceed the
/// bootstrap timestamps used when preloading data. Clock-driven background
/// work (tombstone GC) converts sim time into this domain the same way the
/// client library does: kClientTimestampEpoch + Now().
inline constexpr Timestamp kClientTimestampEpoch = Seconds(1000);

/// How update propagations to the same base row are kept from interfering.
/// Section IV-F proposes the lock service and the dedicated propagators;
/// the paper's measured prototype used neither (its Figure 8 throughput
/// collapse under skew comes precisely from concurrent conflicting
/// propagations retrying against each other).
enum class PropagationMode {
  /// Update coordinators propagate their own updates, serialized per base
  /// row by a lock service (exclusive for view-key updates, shared for
  /// view-materialized updates).
  kLockService,
  /// Responsibility is transferred to a dedicated propagator per base row,
  /// chosen by consistent hashing of the base key.
  kDedicatedPropagators,
  /// Paper-prototype behaviour: coordinators propagate concurrently with no
  /// synchronization. Fast when conflicts are rare; under concurrent
  /// view-key updates to one row it can strand rival live rows (the anomaly
  /// Section IV-F describes — view::RepairView recovers).
  kUnsynchronized,
};

struct PerfModel {
  // --- per-operation service demand on a server core (microseconds) ---
  SimTime read_local = Micros(45);       ///< point read of a local replica
  SimTime write_local = Micros(40);      ///< apply cells to a local replica
  SimTime index_update_local = Micros(18);  ///< adjust one local index posting
  SimTime index_scan_local = Micros(600);   ///< probe the local index fragment
  SimTime view_scan_local = Micros(60);  ///< prefix-scan one view partition
  /// Additional view-scan service per row in the scanned partition. The
  /// default 0 keeps the flat `view_scan_local` model (the paper's workload
  /// has one row per view key, so per-row cost is unobservable there). Set
  /// it (bench/fig9_view_skew does) to model hot view keys whose partitions
  /// grow large — the cost that sub-sharding (ViewDef::shard_count) divides.
  SimTime view_scan_per_row = 0;
  SimTime coordinator_op = Micros(12);   ///< coordinator bookkeeping/merge
  /// Point read answered from the replica-local row cache: no memtable/run
  /// merge, just the cache probe and a copy. Used instead of `read_local`
  /// when the row cache holds the key at dispatch time.
  SimTime read_cached_local = Micros(8);
  /// One clock-driven compaction round over a server's engines (merge +
  /// tombstone GC), charged per run merged.
  SimTime compaction_service = Micros(250);
  /// Full local match-scan over a base table (the bounded-read router's
  /// last-resort fallback when no secondary index covers the view key):
  /// every row is visited and filtered, so it costs far more than an index
  /// probe — the cost asymmetry the router weighs.
  SimTime base_scan_local = Micros(2400);
  /// Fixed receive overhead charged once per delivered peer message
  /// (deserialization, dispatch).
  SimTime message_process = Micros(8);

  // --- asynchronous view-maintenance executor (DESIGN.md substitution 2) ---
  // Delay between a base Put finishing its replica collection and the
  // propagation actually being dispatched. Lognormal: median ~5 ms with a
  // heavy tail, calibrated against Figure 7 — mean blocking of a
  // session-guaranteed Get is a few ms at short Put-Get gaps, yet the
  // completion-time tail reaches ~640 ms ("almost all update propagations
  // completed in less time than that").
  double propagation_dispatch_mu = 8.52;     ///< ln(microseconds); e^8.52~5ms
  double propagation_dispatch_sigma = 1.55;
  SimTime propagation_dispatch_min = Millis(1);
  /// Cap on the sampled dispatch delay. Figure 7 levels off at ~640 ms,
  /// i.e. "almost all update propagations completed in less time than that".
  SimTime propagation_dispatch_max = Millis(700);

  /// Base pause before re-attempting a failed PropagateUpdate (view-key
  /// guess not yet in the view). Grows linearly with the attempt count, up
  /// to propagation_retry_delay_max, so a task blocked behind a slow
  /// dependency backs off instead of burning its retry budget.
  SimTime propagation_retry_delay = Millis(5);
  SimTime propagation_retry_delay_max = Millis(100);
};

struct ClusterConfig {
  int num_servers = 4;
  int replication_factor = 3;  ///< N: copies of each record
  int cores_per_server = 2;
  int default_read_quorum = 1;   ///< R
  int default_write_quorum = 1;  ///< W
  int vnodes_per_server = 32;    ///< virtual nodes on the hash ring
  std::uint64_t seed = 42;

  sim::NetworkConfig network;
  PerfModel perf;
  storage::EngineOptions engine;

  /// Coordinator gives up on replicas that have not answered by then.
  SimTime rpc_timeout = Millis(250);

  /// Per-replica silence handling inside a coordinator operation: a target
  /// that has not answered within `replica_retry_timeout` is re-sent the
  /// request (idempotent; slot dedupe absorbs duplicate replies), up to
  /// `replica_retry_max` times, each probe backed off by another
  /// `replica_retry_backoff`. 0 retries (or a 0 timeout) disables. A read
  /// sent to one replica contacts the others once it has been silent for
  /// min(`replica_retry_timeout`, `rpc_timeout` / 2), whatever the retry
  /// settings.
  int replica_retry_max = 1;
  SimTime replica_retry_timeout = Millis(100);
  SimTime replica_retry_backoff = Millis(50);

  /// Period of the background replica-synchronization task; 0 disables it.
  /// Off by default: quorum paths plus read repair carry the experiments;
  /// tests enable it to demonstrate convergence under message loss.
  /// Each round is Merkle-style: per-peer bucket digests are exchanged
  /// first and only mismatched buckets ship rows.
  SimTime anti_entropy_interval = 0;
  /// Digest buckets per (table, peer) comparison.
  int anti_entropy_buckets = 64;

  /// Hinted handoff: when a write's replica fails to acknowledge before the
  /// rpc timeout, the coordinator stores a hint and replays it periodically
  /// until the replica acks. 0 disables.
  SimTime hint_replay_interval = Seconds(2);
  /// Cap on stored hints per target server (oldest dropped beyond this;
  /// anti-entropy remains the backstop).
  std::size_t max_hints_per_target = 4096;

  /// Capacity (rows) of each server's replica-local row cache shared across
  /// its engines. A zero-capacity cache stores nothing and counts no probes.
  std::size_t row_cache_entries = 0;

  /// Period of each server's clock-driven compaction round (flush + merge +
  /// tombstone GC on every engine, scheduled through the service queue at
  /// `perf.compaction_service` per run); 0 disables (the default — engines
  /// still size-tier inline when the run count exceeds engine.max_runs, but
  /// never purge tombstones). Grace (engine.tombstone_gc_grace) runs from
  /// each tombstone's local deletion time — when this server first applied
  /// it, on the simulation clock — never from its write timestamp, so a
  /// backdated delete (the view engine's __init revocation) still gets the
  /// full grace on every replica. A past-grace tombstone is additionally
  /// kept while its write timestamp is >= the server's oldest pending-hint
  /// timestamp, so unacknowledged deletes survive until every replica has
  /// seen them.
  SimTime compaction_interval = 0;

  /// When true, the base-table Put and the pre-update read of the view key
  /// travel as ONE message per replica (the optimization Section IV-C says
  /// is possible; the paper's prototype did not implement it — Fig 5's MV
  /// write latency penalty comes from leaving this false).
  bool combined_get_then_put = false;

  PropagationMode propagation_mode = PropagationMode::kLockService;

  /// Lease TTL on view-propagation locks: a hold not released within this
  /// window (its coordinator crashed between acquire and release) is
  /// reclaimed by the lock service, so the base row's future propagations
  /// are not wedged forever behind a dead lock holder. 0 disables expiry
  /// (pre-crash-model behaviour).
  SimTime lock_lease_ttl = Seconds(5);

  /// Period of each server's background view scrub over the base-key ranges
  /// it primarily owns; 0 disables (the default — quorum propagation plus
  /// read repair suffice without crashes). Under the crash fault model this
  /// is the backstop that re-derives view rows for propagations orphaned by
  /// a coordinator crash: every base key has exactly one primary owner, so
  /// every orphan is recovered within one scrub period of its owner being up.
  SimTime view_scrub_interval = 0;

  /// Default ViewDef::shard_count applied by harnesses that build their
  /// views from the cluster config (benches honour MV_BENCH_VIEW_SHARDS
  /// through this). 1 = classic one-partition-per-view-key layout,
  /// byte-identical to the pre-sharding encoding; > 1 spreads each view key
  /// over that many ring partitions and serves ViewGets by scatter-gather
  /// (see DESIGN.md §12).
  int view_shard_count = 1;

  // --- freshness contract (ISSUE 7): bounded-staleness reads ---

  /// Bound applied to a kBoundedStaleness read whose ReadOptions left
  /// `max_staleness` at 0.
  SimTime max_staleness_default = Millis(500);
  /// How long a bounded read may stay parked waiting for in-flight
  /// propagations before the router gives up on the view and falls back to
  /// the SI/base-table path.
  SimTime freshness_wait_max = Millis(100);
  /// EWMA smoothing factor for the per-view propagation-lag estimate that
  /// feeds the router's cost model.
  double freshness_lag_alpha = 0.2;

  // --- elastic membership (ISSUE 6) ---

  /// Server slots the cluster is provisioned for (servers beyond
  /// `num_servers` start outside the ring and can join at runtime via
  /// Cluster::JoinServer). 0 means no headroom: capacity == num_servers,
  /// which keeps endpoint numbering identical to the fixed-membership
  /// layout.
  int max_servers = 0;

  /// Rows per message in a membership range stream (join bootstrap and
  /// decommission handoff).
  int join_stream_batch = 128;

  /// Base backoff before re-pulling a range slice that timed out (grows
  /// linearly with the attempt count, capped at 8x). The puller also
  /// rotates to the next candidate source on each retry.
  SimTime join_stream_retry_backoff = Millis(50);

  /// How long a decommissioning server keeps waiting for its own hinted
  /// handoffs to drain before it force-reroutes them to the keys' current
  /// replicas and leaves anyway.
  SimTime decommission_drain_timeout = Seconds(30);

  // --- observability (ISSUE 2) ---

  /// Capacity of the cluster's causal-trace event ring buffer (spans);
  /// 0 disables tracing entirely.
  std::size_t trace_capacity = 65536;
  /// Mint a root trace for every client operation. When false, only
  /// operations given an explicit TraceContext (ReadOptions/WriteOptions)
  /// are traced.
  bool trace_client_ops = true;
  /// Period of the cluster's metrics time-series sampler (per-interval
  /// registry deltas into Metrics::time_series); 0 disables (the default).
  SimTime metrics_sample_interval = 0;
};

}  // namespace mvstore::store

#endif  // MVSTORE_STORE_CONFIG_H_
