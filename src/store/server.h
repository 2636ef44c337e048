// A storage server: replica storage, local secondary-index fragments, and
// the coordinator role.
//
// Every server can coordinate any request (multi-master, Section II): the
// coordinator locates the N replicas via the ring, fans the request out, and
// acknowledges once the quorum (R or W) has answered. Late replica responses
// keep flowing into the finished operation, driving read repair and — on the
// write path — the collection of pre-update view-key versions that
// Algorithm 1 hands to the view-maintenance hook.

#ifndef MVSTORE_STORE_SERVER_H_
#define MVSTORE_STORE_SERVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/interner.h"
#include "common/statusor.h"
#include "common/unique_fn.h"
#include "common/trace.h"
#include "common/types.h"
#include "index/local_index.h"
#include "sim/network.h"
#include "sim/service_queue.h"
#include "sim/simulation.h"
#include "storage/engine.h"
#include "store/config.h"
#include "store/freshness.h"
#include "store/hooks.h"
#include "store/metrics.h"
#include "store/ring.h"
#include "store/schema.h"

namespace mvstore::store {

/// Write payload: column -> new value (nullopt = delete the cell).
using Mutation = std::map<ColumnName, std::optional<Value>>;

/// Heap-based k-way merge of sorted per-shard scan results into one sorted
/// stream. Sub-shard key spaces are disjoint by construction (distinct shard
/// header bytes), so duplicate keys only arise from overlapping prefixes —
/// they LWW-merge cell-by-cell (Row::MergeFrom). Exposed at namespace scope
/// so tests can fuzz it against a single-map oracle (ISSUE 10).
std::vector<storage::KeyedRow> MergeSortedShardScans(
    std::vector<std::vector<storage::KeyedRow>> shards);

/// What a scatter-gather view scan produced (ISSUE 10): the merged rows plus
/// how much of the partition they actually cover. `failed_shards` > 0 only
/// on the allow-partial path — the merged image is missing those sub-shards'
/// rows, so callers must degrade their freshness claim accordingly.
struct ScatterScanResult {
  std::vector<storage::KeyedRow> rows;
  int failed_shards = 0;
  int total_shards = 0;
};

/// A server's ring-membership lifecycle, orthogonal to the crash state (a
/// joining or draining server can crash and resume the transition after
/// Restart).
///
///   kLeft ──ActivateForJoin──▶ kJoining ──stream done──▶ kServing
///   kServing ──BeginDecommission──▶ kDraining ──streamed+drained──▶ kLeft
enum class MembershipState { kServing, kJoining, kDraining, kLeft };

class Server {
 public:
  Server(ServerId id, sim::Simulation* sim, sim::Network* network,
         const Schema* schema, const Ring* ring, const ClusterConfig* config,
         Metrics* metrics, Tracer* tracer = nullptr);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  ServerId id() const { return id_; }
  sim::Simulation* simulation() const { return sim_; }
  sim::Network* network() const { return network_; }
  const Schema& schema() const { return *schema_; }
  const Ring& ring() const { return *ring_; }
  const ClusterConfig& config() const { return *config_; }
  Metrics* metrics() const { return metrics_; }
  /// The cluster's trace recorder (null in bare standalone construction).
  Tracer* tracer() const { return tracer_; }

  /// Installed by the Cluster after construction; may be null (no views).
  void set_view_hook(ViewMaintenanceHook* hook) { view_hook_ = hook; }

  // ---------------------------------------------------------------------
  // Crash-stop fault model.
  // ---------------------------------------------------------------------

  /// Crash-stops this server: the view hook is told first (it orphans the
  /// server's propagation tasks and wounds their freshness intents), every
  /// in-flight coordinator operation is aborted with an error callback,
  /// stored hints are dropped, the endpoint disappears from the network
  /// (in-flight messages to/from this incarnation are lost), and all
  /// volatile storage (memtables) is discarded. Durable commit logs and
  /// flushed runs survive.
  void Crash();

  /// Restarts a crashed server: replays the per-table commit logs into fresh
  /// memtables, rejoins the ring (endpoint back up, new incarnation already
  /// in effect), re-arms background tasks, kicks one anti-entropy round to
  /// catch up with peers, and lets the view hook re-scrub owned ranges.
  void Restart();

  bool crashed() const { return crashed_; }

  /// Monotonic process generation: bumped on every crash. Closures created
  /// by one incarnation refuse to run under a later one.
  std::uint64_t incarnation() const { return incarnation_; }

  // ---------------------------------------------------------------------
  // Elastic membership (ISSUE 6). The Cluster drives the transitions: it
  // owns the ring, so it performs the token (re)assignment and hands the
  // affected ranges down.
  // ---------------------------------------------------------------------

  MembershipState membership() const { return membership_; }
  /// Whether this server participates in replication (everything but
  /// kLeft). Draining servers still apply replica writes and answer reads;
  /// they only reject NEW client coordination.
  bool is_member() const { return membership_ != MembershipState::kLeft; }
  /// Whether this server accepts NEW client coordination: serving or still
  /// bootstrapping (a joiner is already in the ring and can fan out to
  /// replicas). Draining and left servers reject with Unavailable.
  bool AcceptsCoordination() const {
    return membership_ == MembershipState::kServing ||
           membership_ == MembershipState::kJoining;
  }

  /// Marks a capacity slot constructed above `num_servers` as never joined:
  /// outside the ring, endpoint down, no background ticks until a join.
  void MarkNeverJoined();

  /// Brings a kLeft slot up as a joiner: fresh incarnation, endpoint up,
  /// background ticks armed, `member.join` trace opened. The Cluster calls
  /// this BEFORE adding the server to the ring.
  void ActivateForJoin();

  /// Starts the streaming bootstrap: pulls every range in `plan` (one task
  /// per range and table, `join_stream_batch` rows per message, resumable
  /// cursor, per-range retry with linear backoff rotating through the
  /// sources). Flips to kServing when the last range lands.
  void BeginJoinStream(std::vector<Ring::RangeTransfer> plan);

  /// Starts the decommission. The Cluster has already removed this server
  /// from the ring; `plan` names the ranges it owned and their new owners.
  /// The server streams each range out (a full sweep, then a tail sweep
  /// that catches writes applied during the first), drains its hinted
  /// handoffs, then leaves: endpoint down, new coordination rejected from
  /// the moment this is called.
  void BeginDecommission(std::vector<Ring::RangeTransfer> plan);

  /// Re-coordinates every hint queued FOR `departed` to the hinted keys'
  /// current replicas (the departed server will never ack them).
  void RerouteHintsFor(ServerId departed);

  /// Moves the unanswered slots of in-flight quorum ops off `departed` and
  /// onto a current replica of the op's key, so acked writes are never
  /// stranded waiting on a server that left the ring.
  void RetargetInflightOps(ServerId departed);

  /// Total hints queued across all targets (the decommission drain gate).
  std::size_t hints_outstanding() const;

  /// One batch of a membership range stream: rows of `table` whose
  /// partition key falls in `range`, with keys strictly greater than
  /// `from`, holding at least one cell with ts >= `min_ts`; at most `limit`
  /// rows per call (in key order). `resume` is the cursor for the next
  /// call; `done` signals the range is exhausted. Runs on the source server
  /// (join pulls) or locally (decommission pushes).
  struct RangeSlice {
    std::vector<storage::KeyedRow> rows;
    Key resume;
    bool done = true;
  };
  RangeSlice CollectRangeRows(const std::string& table,
                              Ring::TokenRange range, const Key& from,
                              int limit, Timestamp min_ts) const;

  /// All servers of the cluster, indexed by ServerId (set by the Cluster;
  /// used to address peers).
  void set_peers(const std::vector<Server*>* peers) { peers_ = peers; }

  // ---------------------------------------------------------------------
  // Client-facing entry points (invoked on the coordinator, typically via
  // store::Client which models the client<->coordinator network hop).
  // ---------------------------------------------------------------------

  /// Get on a base table (paper Get): merged cells of the first R replica
  /// responses. `columns` empty = whole row.
  void HandleClientGet(const std::string& table, const Key& key,
                       std::vector<ColumnName> columns, int read_quorum,
                       std::function<void(StatusOr<storage::Row>)> callback);

  /// Put on a base table (paper Put), with Algorithm 1's view-key
  /// collection and asynchronous view maintenance when views are affected.
  void HandleClientPut(const std::string& table, const Key& key,
                       const Mutation& mutation, Timestamp ts,
                       int write_quorum, SessionId session,
                       std::function<void(Status)> callback);

  /// Get on a view by view key (Algorithm 4; set of live records), under
  /// the consistency contract in `consistency` / `max_staleness` (ISSUE 7).
  void HandleClientViewGet(
      const std::string& view, const Key& view_key,
      std::vector<ColumnName> columns, int read_quorum, SessionId session,
      ReadConsistency consistency, SimTime max_staleness,
      std::function<void(StatusOr<ViewReadOutcome>)> callback);

  /// Lookup by secondary key through the native secondary index: broadcast
  /// to every server, probe local fragments, merge.
  void HandleClientIndexGet(
      const std::string& table, const ColumnName& column, const Value& value,
      std::function<void(StatusOr<std::vector<storage::KeyedRow>>)> callback);

  // ---------------------------------------------------------------------
  // Coordinator primitives (used internally and by the view-maintenance
  // engine, which issues quorum reads/writes on view tables).
  // ---------------------------------------------------------------------

  /// Fires once with the merge of the first `read_quorum` responses (or
  /// Unavailable on timeout). If `collect_all` is provided it fires once
  /// more, after every replica answered or the timeout expired, with each
  /// reachable replica's raw response; read repair of the contacted
  /// replicas happens at that point. An R=1 read without `collect_all` asks
  /// only this server's own replica when it holds one (the others are
  /// spares), else every replica.
  void CoordinateRead(
      const std::string& table, const Key& key,
      std::vector<ColumnName> columns, int read_quorum,
      std::function<void(StatusOr<storage::Row>)> callback,
      std::function<void(std::vector<storage::Row>)> collect_all = nullptr);

  /// Applies `cells` (already timestamped) at the key's replicas; fires at
  /// `write_quorum` acks or Unavailable at timeout.
  void CoordinateWrite(const std::string& table, const Key& key,
                       const storage::Row& cells, int write_quorum,
                       std::function<void(Status)> callback);

  /// Combined Get-then-Put (Section IV-C): one message per replica that
  /// returns the pre-update `read_columns` and then applies `cells`.
  /// `callback` fires at the write quorum; `collect_pre_images` fires when
  /// all replicas answered or the timeout expired.
  void CoordinateReadThenWrite(
      const std::string& table, const Key& key,
      std::vector<ColumnName> read_columns, const storage::Row& cells,
      int write_quorum, std::function<void(Status)> callback,
      std::function<void(std::vector<storage::Row>)> collect_pre_images);

  /// Merged prefix scan over the key's partition (composite-key tables):
  /// merge of the first `read_quorum` replica scans. An R=1 scan asks only
  /// `chosen`, or by default this server's own replica when it holds one
  /// (the others are spares), else every replica.
  void CoordinateScan(
      const std::string& table, const Key& partition_prefix, int read_quorum,
      std::function<void(StatusOr<std::vector<storage::KeyedRow>>)> callback,
      std::optional<ServerId> chosen = std::nullopt);

  /// Scatter-gather scan over a sharded view partition (ISSUE 9): one
  /// CoordinateScan QuorumOp per sub-shard prefix (at R=1 sent to a single
  /// replica, spread over the shards' replicas), answered with a streaming
  /// k-way merge of the per-shard sorted results (duplicate keys LWW-merge;
  /// by construction sub-shard key spaces are disjoint). A single prefix
  /// degenerates to CoordinateScan verbatim, so unsharded views pay nothing.
  ///
  /// With `allow_partial` false, fails with the first sub-scan error: a
  /// partition's answer must cover every shard or rows silently vanish from
  /// the merged image. With `allow_partial` true (eventual-consistency
  /// reads, ISSUE 10), one quorum-dead shard no longer fails the whole
  /// query: the reachable shards' merge is served with `failed_shards` set,
  /// and only all-shards-failed surfaces the error.
  void CoordinateViewScatterScan(
      const std::string& table, std::vector<Key> shard_prefixes,
      int read_quorum, bool allow_partial,
      std::function<void(StatusOr<ScatterScanResult>)> callback);

  /// The rows of `table` whose `column` equals `value`: broadcast to every
  /// ring member, merge, re-filter on the merged image. Each server probes
  /// its local index fragment when the schema defines an index on `column`
  /// (`perf.index_scan_local`), and otherwise match-scans its whole local
  /// fragment of the table (`perf.base_scan_local`, deliberately expensive).
  /// Serves HandleClientIndexGet and the bounded-read router's fallback.
  void CoordinateMatchScan(
      const std::string& table, const ColumnName& column, const Value& value,
      std::function<void(StatusOr<std::vector<storage::KeyedRow>>)> callback);

  // ---------------------------------------------------------------------
  // Local replica handlers (run on THIS server under its service queue;
  // invoked via peer messages).
  // ---------------------------------------------------------------------

  /// Local read of requested columns (all columns when empty). Returns an
  /// empty row when the key is absent.
  storage::Row LocalRead(const std::string& table, const Key& key,
                         const std::vector<ColumnName>& columns);

  /// Local LWW apply + synchronous maintenance of local index fragments.
  void LocalApply(const std::string& table, const Key& key,
                  const storage::Row& cells);

  /// LocalRead of `read_columns` followed atomically by LocalApply.
  storage::Row LocalReadThenApply(const std::string& table, const Key& key,
                                  const std::vector<ColumnName>& read_columns,
                                  const storage::Row& cells);

  /// Local merged prefix scan.
  std::vector<storage::KeyedRow> LocalScanPrefix(const std::string& table,
                                                 const Key& prefix);

  /// Probe this server's index fragment; returns matching local rows.
  std::vector<storage::KeyedRow> LocalIndexProbe(const std::string& table,
                                                 const ColumnName& column,
                                                 const Value& value);

  /// Full local scan of `table` for rows whose `column` equals `value`
  /// (no index consulted).
  std::vector<storage::KeyedRow> LocalMatchScan(const std::string& table,
                                                const ColumnName& column,
                                                const Value& value);

  /// Sends `handler` to run on peer `to` under its service queue; the
  /// returned value travels back and `on_reply` runs here. Either leg may be
  /// dropped by the network. `remote_service` is the handler's demand, on
  /// top of the fixed per-message receive overhead: a SimTime constant, or a
  /// `SimTime(Server&)` callable resolved ON THE PEER when the message is
  /// delivered, so the demand can depend on replica-local state the sender
  /// cannot know (is the row cached there?). `payloads` is the logical
  /// request count the message carries (> 1 for a scan's read-repair push).
  /// Both closures are move-only, so a request may own its payload
  /// vector outright (no shared_ptr indirection); callers that must re-send
  /// — the quorum retry path — keep a copyable std::function and pay one
  /// copy per send.
  template <typename Response, typename Demand>
  void CallPeer(ServerId to, Demand remote_service,
                UniqueFn<Response(Server&)> handler,
                UniqueFn<void(Response)> on_reply,
                std::uint64_t payloads = 1);

  /// Service demand of a local point read of (table, key): the cached rate
  /// when this server's row cache holds the key, the full rate otherwise.
  SimTime ReadServiceFor(const std::string& table, const Key& key) const;

  /// This server's advisory freshness cache (ISSUE 7), merged from gossip
  /// the maintenance engine piggybacks on propagation-completion traffic.
  /// Volatile: cleared on crash.
  FreshnessCache& freshness_cache() { return freshness_cache_; }

  /// Populates the row cache for a bootstrap-loaded key (loading applies
  /// rows, and applies invalidate — warming restores the "hot replica"
  /// steady state the benches measure from).
  void WarmRowCache(const std::string& table, const Key& key);

  /// The oldest write timestamp among this server's stored hints, or
  /// Timestamp max when none are pending. Used as the tombstone purge floor:
  /// a tombstone at/after this instant may still be owed to some replica.
  Timestamp OldestHintTimestamp() const;

  /// One clock-driven compaction round: flush + merge + tombstone GC on
  /// every engine, charged through the service queue. Exposed for tests;
  /// also runs periodically when `compaction_interval` > 0.
  void RunCompactionRound();

  /// Runs `fn` on this server after (queueing +) `service` time — unless the
  /// server has crashed (or crashed and restarted) in between: work queued
  /// by one process incarnation dies with it.
  void Enqueue(SimTime service, UniqueFn<void()> fn) {
    queue_.Submit(service, [this, incarnation = incarnation_,
                            fn = std::move(fn)]() mutable {
      if (incarnation != incarnation_ || crashed_) return;
      fn();
    });
  }

  /// Replicas of `key` in `table` (partition prefix for composite keys).
  /// Served from a per-server placement cache keyed by the interned
  /// partition key and the ring version, so repeated routing of the same
  /// partition (every write, every anti-entropy row) costs one hash and one
  /// probe instead of a ring walk and a fresh allocation. The reference is
  /// stable until the ring membership changes.
  const std::vector<ServerId>& ReplicasOf(const std::string& table,
                                          const Key& key) const;

  /// Majority quorum for the replication factor (view maintenance ops).
  int MajorityQuorum() const { return config_->replication_factor / 2 + 1; }

  /// Direct access to the local storage engine (bootstrap loading, scrub,
  /// tests). Creates the engine on first use.
  storage::Engine& EngineFor(const std::string& table);

  /// Starts background tasks (anti-entropy, hint replay) if configured.
  void Start();

  /// One anti-entropy round: Merkle-style synchronization with every peer.
  /// For each (table, peer) the servers first exchange per-bucket digests
  /// over the keys they both replicate, then ship rows only for mismatched
  /// buckets (bidirectionally). Exposed for tests; also runs periodically
  /// when `anti_entropy_interval` > 0.
  void RunAntiEntropyRound();

  // --- hinted handoff ---

  /// A write a replica failed to acknowledge in time, kept for replay.
  struct Hint {
    std::string table;
    Key key;
    storage::Row cells;
    /// Context of the write that spawned the hint; replay records a marker
    /// span under it, so a trace shows how a missed write eventually landed.
    TraceContext trace;
  };

  /// Hints currently queued for `target` (introspection for tests).
  std::size_t pending_hints(ServerId target) const;

  /// One replay pass: re-sends queued hints; a hint is dropped only when its
  /// target acknowledges. Runs periodically when `hint_replay_interval` > 0.
  void ReplayHints();

  // --- anti-entropy internals (public: invoked on peers via messages) ---

  /// Digest of this server's rows of `table` that are co-replicated with
  /// `peer`, bucketed by key hash. Per bucket: sum (mod 2^64) of salted entry
  /// hashes folded with the row count — commutative (order-insensitive) but,
  /// unlike an XOR fold, not a GF(2) linear map that dependent entry sets can
  /// cancel to a false match.
  std::vector<std::uint64_t> ComputeSyncDigests(const std::string& table,
                                                ServerId peer,
                                                int buckets) const;

  /// This server's rows of `table` (co-replicated with `peer`) falling into
  /// `buckets`.
  std::vector<storage::KeyedRow> CollectBucketRows(
      const std::string& table, ServerId peer,
      const std::vector<int>& buckets, int total_buckets) const;

  /// Ships one replica mutation to `to` as its own message and acks
  /// through `on_ack`. `service` is the replica-side apply demand.
  void SendReplicaWrite(ServerId to, const std::string& table, const Key& key,
                        const storage::Row& cells, SimTime service,
                        UniqueFn<void(bool)> on_ack);

 private:
  friend class Cluster;
  /// The generic coordinator state machine drives fan-out/hints/abort via
  /// the private registration and hint primitives below.
  template <typename Response>
  friend class QuorumOp;

  /// Wraps a reply callback so that assembling the reply charges coordinator
  /// service time (reply processing contributes to saturation under load).
  template <typename ResultT>
  std::function<void(ResultT)> WrapReply(
      std::function<void(ResultT)> callback);

  /// One round of a periodic background task; false (the server crashed
  /// or no longer takes part) ends the tick chain.
  bool AntiEntropyTick();
  bool HintReplayTick();
  bool CompactionTick();
  void SyncTableWithPeer(const std::string& table, ServerId peer);

  /// (Re-)arms the periodic background ticks for the current incarnation.
  void ScheduleBackgroundTicks();
  /// Runs `tick` after `delay`, then every `interval` while it returns true
  /// and this incarnation lives.
  void ArmTick(SimTime delay, SimTime interval, bool (Server::*tick)());

  /// Registers an abort closure for an in-flight coordinator operation;
  /// Crash() invokes every registered closure. `retarget` (optional) is
  /// invoked with the id of a server that left the ring mid-operation so
  /// the op can move unanswered slots onto a live replica. Returns the
  /// registration id the op passes to DeregisterInflightOp when it
  /// finalizes normally.
  std::uint64_t RegisterInflightOp(std::function<void()> abort,
                                   std::function<void(ServerId)> retarget =
                                       nullptr);
  void DeregisterInflightOp(std::uint64_t op_id);

  /// Records a hint for a write `target` did not acknowledge.
  void StoreHint(ServerId target, const std::string& table, const Key& key,
                 const storage::Row& cells);

  /// Per-replica service demand of a write (base apply + synchronous local
  /// index maintenance for written indexed columns).
  SimTime WriteServiceFor(const std::string& table,
                          const storage::Row& cells) const;

  /// Resolves the partition key used for ring placement.
  Key PartitionKeyFor(const std::string& table, const Key& key) const;
  /// Zero-copy form: a slice of `key` (valid while `key` lives).
  std::string_view PartitionViewFor(const std::string& table,
                                    const Key& key) const;

  // --- elastic membership internals ---

  /// One (range, table) unit of a membership stream. Join tasks pull from
  /// `peers` (rotating on retry); decommission tasks push to the single
  /// server in `peers`. `cursor` makes the stream resumable: a timed-out
  /// slice re-requests from the last acknowledged key, not from scratch.
  struct StreamTask {
    std::string table;
    Ring::TokenRange range;
    std::vector<ServerId> peers;
    Key cursor;
    int attempt = 0;
    std::uint64_t rows_streamed = 0;
  };

  /// Expands a transfer plan into stream tasks (join: one per range+table;
  /// decommission: one per range+table+new owner).
  void BuildStreamTasks(const std::vector<Ring::RangeTransfer>& plan);
  /// Drives the front stream task: issues the next slice pull/push with a
  /// timeout, advances the cursor on ack, retries with backoff on silence.
  void PumpStream();
  void StreamSliceSettled(std::uint64_t seq, bool ok,
                          std::size_t rows_acked, Key resume, bool done);
  void FinishStreamTask();
  void FinishJoin();
  /// Advances the decommission phase machine once the current sweep's
  /// stream tasks have drained.
  void ContinueDecommission();
  /// Polls the hint queues; leaves when empty, force-reroutes at the drain
  /// deadline.
  void DrainHintsThenLeave();
  /// Sends every still-queued hint directly to its key's current replicas
  /// (drain deadline expired; the data must not leave with this server).
  void ForceRerouteOwnHints();
  /// Re-coordinates one write to the key's CURRENT ring replicas: local
  /// apply when this server is one, replica-write (hinting on silence)
  /// otherwise. The common leg of every hint-reroute path.
  void RerouteWriteToCurrentReplicas(const std::string& table, const Key& key,
                                     const storage::Row& cells);
  void FinishLeave(bool forced);
  void EmitMemberSpan(const char* name, const std::string& note);

  ServerId id_;
  sim::Simulation* sim_;
  sim::Network* network_;
  const Schema* schema_;
  const Ring* ring_;
  const ClusterConfig* config_;
  Metrics* metrics_;
  Tracer* tracer_ = nullptr;
  ViewMaintenanceHook* view_hook_ = nullptr;
  const std::vector<Server*>* peers_ = nullptr;

  sim::ServiceQueue queue_;
  /// Replica-local row cache shared by every engine of this server.
  storage::RowCache row_cache_;
  std::map<std::string, std::unique_ptr<storage::Engine>> engines_;
  std::vector<std::unique_ptr<index::LocalIndex>> indexes_;
  std::map<ServerId, std::deque<Hint>> hints_;
  /// Advisory per-view freshness facts gossiped by the maintenance engine;
  /// volatile (cleared on crash).
  FreshnessCache freshness_cache_;

  bool crashed_ = false;
  std::uint64_t incarnation_ = 0;
  std::uint64_t next_op_id_ = 0;
  /// An in-flight coordinator op's abort closure, and its retarget closure
  /// (optional; invoked when a server departs the ring so unanswered slots
  /// move to a live replica).
  struct InflightOp {
    std::function<void()> abort;
    std::function<void(ServerId)> retarget;
  };
  /// In-flight coordinator ops by registration id (ordered map: Crash()
  /// aborts and departures retarget in deterministic id order).
  std::map<std::uint64_t, InflightOp> inflight_;

  // --- placement cache ---
  /// Cached ring placements, one slot per interned partition key, revalidated
  /// against the ring version (a deque so entries never relocate — returned
  /// references survive cache growth).
  struct PlacementEntry {
    std::uint64_t ring_version = 0;
    bool valid = false;
    std::vector<ServerId> replicas;
  };
  mutable KeyInterner placement_keys_;
  mutable std::deque<PlacementEntry> placement_cache_;

  // --- elastic membership state ---
  MembershipState membership_ = MembershipState::kServing;
  std::deque<StreamTask> stream_tasks_;
  /// Matches slice replies and their timeout probes to the CURRENT pull;
  /// a stale reply (superseded by a retry) or a stale timeout is ignored.
  std::uint64_t stream_seq_ = 0;
  bool stream_pull_pending_ = false;
  /// The decommission plan outlives a crash (modeled as a durable
  /// decommission-intent record): a draining server that crashes resumes
  /// the handoff after Restart instead of stranding its ranges.
  std::vector<Ring::RangeTransfer> decommission_plan_;
  std::vector<Ring::RangeTransfer> join_plan_;
  /// 0 = idle, 1 = full sweep, 2 = tail sweep, 3 = hint drain.
  int decommission_phase_ = 0;
  /// Tail-sweep filter: only rows written since shortly before the full
  /// sweep began (straggler writes in flight when the ring changed).
  Timestamp stream_min_ts_ = 0;
  Timestamp tail_cutoff_ = 0;
  SimTime drain_deadline_ = 0;
  /// Root span of the in-progress join or drain ("member.join" /
  /// "member.drain"); child spans mark each streamed range.
  TraceContext member_trace_;
};

// ---------------------------------------------------------------------------
// Implementation details only below here.
// ---------------------------------------------------------------------------

template <typename Response, typename Demand>
void Server::CallPeer(ServerId to, Demand remote_service,
                      UniqueFn<Response(Server&)> handler,
                      UniqueFn<void(Response)> on_reply,
                      std::uint64_t payloads) {
  Server* self = this;
  Server* peer = (*peers_)[to];
  network_->Send(
      id_, to,
      [peer, self, remote_service = std::move(remote_service),
       handler = std::move(handler),
       on_reply = std::move(on_reply)]() mutable {
        // Receiving a message costs a fixed deserialization/dispatch
        // overhead on top of the handler's own demand — charged per
        // MESSAGE, however many payloads it carries. A callable demand is
        // resolved here, on the receiving replica, where it can consult
        // peer-local state.
        SimTime demand;
        if constexpr (std::is_invocable_r_v<SimTime, Demand&, Server&>) {
          demand = remote_service(*peer);
        } else {
          demand = remote_service;
        }
        // Enqueue (not a bare queue submit) so work delivered to an
        // incarnation that crashes before servicing it dies with that
        // incarnation.
        peer->Enqueue(
            peer->config_->perf.message_process + demand,
            [peer, self, handler = std::move(handler),
             on_reply = std::move(on_reply)]() mutable {
              Response response = handler(*peer);
              peer->network_->Send(
                  peer->id_, self->id_,
                  [on_reply = std::move(on_reply),
                   response = std::move(response)]() mutable {
                    on_reply(std::move(response));
                  });
            });
      },
      payloads);
}

}  // namespace mvstore::store

#endif  // MVSTORE_STORE_SERVER_H_
