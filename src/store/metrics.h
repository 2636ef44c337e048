// Cluster-wide observability counters and latency recorders.
//
// One Metrics instance per Cluster; servers and the view-maintenance engine
// increment counters as they work. Benches and tests read them to verify
// behaviour ("propagation retried", "read repair fired") without poking at
// internals.
//
// Every instrument lives in the embedded MetricsRegistry under the name of
// the member that exposes it; the members are registry-owned references, so
// the historical `metrics.foo++` call sites and test reads keep compiling
// while Snapshot()/ToJson() see every instrument. Two same-seed runs export
// byte-identical JSON.

#ifndef MVSTORE_STORE_METRICS_H_
#define MVSTORE_STORE_METRICS_H_

#include "common/metrics_registry.h"

namespace mvstore::store {

struct Metrics {
  Metrics();
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  /// Owns every instrument below (plus any registered by extensions).
  MetricsRegistry registry;
  /// Per-interval deltas, sampled by the Cluster when
  /// `metrics_sample_interval` > 0.
  MetricsTimeSeries time_series;

  // Client-visible operations.
  Counter& client_gets;
  Counter& client_puts;
  Counter& client_view_gets;
  Counter& client_index_gets;

  // Replication internals.
  Counter& replica_reads;
  Counter& replica_writes;
  Counter& read_repairs;
  Counter& quorum_failures;
  Counter& coordinator_retries;  ///< silent-replica re-sends inside an op
  Counter& reads_one_replica;    ///< point reads/scans sent to one replica
  Counter& reads_fanned_out;     ///< point reads/scans sent to several
  Counter& spares_contacted;     ///< spares that replaced a silent replica
  Counter& anti_entropy_rows_pushed;
  Counter& anti_entropy_digest_exchanges;
  Counter& anti_entropy_buckets_synced;
  Counter& hints_stored;
  Counter& hints_replayed;
  Counter& hints_dropped;

  // Native secondary indexes.
  Counter& index_updates;
  Counter& index_fragment_probes;

  // View maintenance (Section IV).
  Counter& propagations_started;
  Counter& propagations_completed;
  Counter& propagation_failures;   ///< GetLiveKey miss -> new guess
  Counter& stale_rows_created;
  Counter& live_row_switches;
  Counter& chain_hops;             ///< Next-pointer follows
  Counter& lock_waits;
  Counter& propagations_abandoned; ///< retry budget exhausted
  Counter& prop_batched;           ///< tasks coalesced into an earlier round
  Counter& view_get_deferrals;     ///< session guarantee blocks
  Counter& view_get_spins;         ///< waits on initializing rows
  Counter& stale_rows_filtered;    ///< non-live rows skipped by reads
  Counter& view_scatter_scans;     ///< sharded ViewGets fanned out (ISSUE 9)
  Counter& view_scatter_partial;   ///< kEventual scatter reads served with
                                   ///< one or more sub-shards missing
  Counter& prop_multi_view_groups; ///< base updates fanning one maintenance
                                   ///< round to >1 dependent view (ISSUE 10)
  Counter& view_aggregate_folds;   ///< aggregate reads folded at coordinator
  Counter& view_aggregate_fold_skipped;  ///< records dropped by a fold
                                         ///< (missing/unparsable cells)

  // Read-path performance layer (ISSUE 5): row cache, pruning, and the
  // clock-driven tombstone GC.
  Counter& row_cache_hits;        ///< replica reads answered from the cache
  Counter& row_cache_misses;      ///< cache probed but row not present
  Counter& compactions_run;       ///< clock-driven compaction rounds executed
  Counter& tombstones_purged;     ///< tombstone cells dropped past grace
  Counter& tombstone_purge_deferred;  ///< kept past grace: a hint still owes
                                      ///< the delete to some replica

  // Crash-stop fault model (ISSUE 1): crashes, recovery, and the state the
  // cluster salvages afterwards.
  Counter& server_crashes;
  Counter& server_restarts;
  Counter& wal_cells_replayed;      ///< commit-log cells re-applied
  Counter& locks_expired;           ///< lease TTL reclaimed a hold
  Counter& inflight_ops_aborted;    ///< coordinator ops killed by crash
  Counter& propagations_orphaned;   ///< tasks lost with a coordinator
  Counter& orphaned_propagations_recovered;  ///< healed by re-scrub

  // Elastic membership (ISSUE 6): joins, decommissions, and the range
  // streams / fixups that move ownership without losing acked writes.
  Counter& member_joins_started;
  Counter& member_joins_completed;
  Counter& member_leaves_started;
  Counter& member_leaves_completed;
  Counter& member_ranges_streamed;   ///< (range, table) stream tasks finished
  Counter& member_rows_streamed;     ///< rows shipped by membership streams
  Counter& member_stream_retries;    ///< slice pulls that timed out and retried
  Counter& member_hints_rerouted;    ///< hints re-sent to a range's new owners
  Counter& member_ops_retargeted;    ///< in-flight quorum slots moved off a leaver
  Counter& member_drains_forced;     ///< drain timeouts that force-rerouted hints

  // Freshness contract (ISSUE 7): intent tracking, bound enforcement, and
  // the adaptive MV/SI router.
  Counter& freshness_intents_registered;  ///< propagation intents opened
  Counter& freshness_intents_wounded;     ///< intents left blocking by a death
  Counter& freshness_bound_misses;        ///< bounded reads that found blockers
  Counter& freshness_bound_waits;         ///< bounded reads parked on progress
  Counter& freshness_targeted_repairs;    ///< partition repairs fired by reads
  Counter& freshness_fallback_si;         ///< bounded reads routed to the SI
  Counter& freshness_fallback_base;       ///< bounded reads routed to base scan
  Counter& freshness_gossip_updates;      ///< advisory cache merges shipped
  Counter& freshness_wounds_cleared;      ///< wounded intents audited away

  // End-to-end latency recorders (simulated microseconds).
  Histogram& get_latency;
  Histogram& put_latency;
  Histogram& view_get_latency;
  Histogram& index_get_latency;
  Histogram& propagation_delay;  ///< base Put ack -> propagation complete

  // Per-stage breakdowns: where an operation's time goes. Queue wait and
  // service come from every server's CPU queue, network from every sampled
  // message latency; propagation_delay above is the propagation-lag stage.
  Histogram& stage_queue_wait;
  Histogram& stage_service;
  Histogram& stage_network;
  /// Never recorded: replica writes ship one message per mutation, so no
  /// write waits inside a batch. Kept because benchmark reports read it.
  Histogram& stage_batch_flush;
  Histogram& stage_compaction;   ///< service time of each compaction round
  Histogram& view_staleness;     ///< claimed staleness of each view read
  Histogram& freshness_wait;     ///< time bounded reads spent parked

  MetricsSnapshot Snapshot() const { return registry.Snapshot(); }
  std::string ToJson() const { return registry.ToJson(); }
  void Reset() { registry.Reset(); }
};

}  // namespace mvstore::store

#endif  // MVSTORE_STORE_METRICS_H_
