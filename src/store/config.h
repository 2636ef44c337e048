// Cluster-wide configuration.
//
// The defaults model the paper's testbed: 4 servers, dual-core, 1 GbE,
// replication factor N = 3, and Cassandra's default consistency level of ONE
// for both reads and writes (the paper varies only what the experiments
// require). The PerfModel service times are the calibration knobs described
// in DESIGN.md section 4: they set absolute magnitudes; the figures' shapes
// come from how many servers and round trips each access path consumes.
// Values that no workload varies are constants in the code that uses them
// (DESIGN.md §14 lists what stays settable and why).

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
  std::uint64_t seed = 42;

  sim::NetworkConfig network;
  PerfModel perf;
  storage::EngineOptions engine;

  /// Coordinator gives up on replicas that have not answered by then. A
  /// replica still silent 100 ms into an operation is re-sent the request
  /// once, and a read sent to one replica contacts the others once it has
  /// been silent for min(100 ms, rpc_timeout / 2) (store/quorum_op.cc).
  SimTime rpc_timeout = Millis(250);

  /// Period of the background replica-synchronization task; 0 disables it.
  /// Off by default: quorum paths plus read repair carry the experiments;
  /// tests enable it to demonstrate convergence under message loss.
  /// Each round is Merkle-style: per-peer digests of 64 key-hash buckets
  /// are exchanged first; the peer answers with its mismatched buckets and
  /// the per-key row digests inside them, and only the rows that differ, or
  /// that one side lacks, ship (both ways, at most 128 entries per
  /// message).
  SimTime anti_entropy_interval = 0;

  /// Hinted handoff: when a write's replica fails to acknowledge before the
  /// rpc timeout, the coordinator stores a hint and replays it periodically
  /// until the replica acks. At most 4096 hints are kept per target, the
  /// oldest dropped first (anti-entropy is the backstop). 0 disables.
  SimTime hint_replay_interval = Seconds(2);

  /// Capacity (rows) of each server's replica-local row cache shared across
  /// its engines. A zero-capacity cache stores nothing and counts no probes.
  std::size_t row_cache_entries = 0;

  /// Period of each server's clock-driven compaction round (flush + merge +
  /// tombstone GC on every engine, scheduled through the service queue at
  /// 250 us per run); 0 disables (the default — engines still size-tier
  /// inline when the run count exceeds engine.max_runs, but never purge
  /// tombstones). The 600 s grace (storage::kTombstoneGcGrace) runs from
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

  // --- elastic membership (ISSUE 6) ---

  /// Server slots the cluster is provisioned for (servers beyond
  /// `num_servers` start outside the ring and can join at runtime via
  /// Cluster::JoinServer). 0 means no headroom: capacity == num_servers,
  /// which keeps endpoint numbering identical to the fixed-membership
  /// layout.
  int max_servers = 0;

  // --- observability (ISSUE 2) ---

  /// Capacity of the cluster's causal-trace event ring buffer (spans);
  /// 0 disables tracing entirely.
  std::size_t trace_capacity = 65536;
  /// Mint a root trace for every client operation. When false, only
  /// operations given an explicit TraceContext (ReadOptions/WriteOptions)
  /// are traced.
  bool trace_client_ops = true;
};

}  // namespace mvstore::store

#endif  // MVSTORE_STORE_CONFIG_H_
