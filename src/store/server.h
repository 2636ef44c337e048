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
///   kLeft ──ActivateForJoin──▶ kJoining ──ranges synced──▶ kServing
///   kServing ──BeginDecommission──▶ kDraining ──synced+drained──▶ kLeft
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

  /// Crash-stops this server: the stop every process end shares (ShutDown)
  /// plus the loss of all volatile storage (memtables) and the freshness
  /// cache. Durable commit logs and flushed runs survive.
  void Crash();

  /// Restarts a crashed server: replays the per-table commit logs into fresh
  /// memtables, rejoins the ring (endpoint back up, new incarnation already
  /// in effect), re-arms background tasks and comes up (ComeUp), then
  /// resumes an interrupted membership transition.
  void Restart();

  bool crashed() const { return crashed_; }

  /// Monotonic process generation: the network endpoint's incarnation,
  /// bumped on every crash, leave and join. Closures created by one
  /// incarnation refuse to run under a later one.
  std::uint64_t incarnation() const { return network_->incarnation(id_); }

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

  /// Starts the bootstrap: one range sync per (range, table) in `plan`, all
  /// at once, each against one of the range's current replicas and rotating
  /// through them when it falls silent. Flips to kServing when the last sync
  /// settles.
  void BeginJoinStream(std::vector<Ring::RangeTransfer> plan);

  /// Starts the decommission. The Cluster has already removed this server
  /// from the ring; `plan` names the ranges it owned and their new owners.
  /// The server syncs each range with each new owner, twice (the second
  /// pass catches replica writes that landed during the first), drains its
  /// hinted handoffs, then leaves: endpoint down, new coordination rejected
  /// from the moment this is called.
  void BeginDecommission(std::vector<Ring::RangeTransfer> plan);

  /// Re-coordinates every hint queued FOR `departed` to the hinted keys'
  /// current replicas (the departed server will never ack them): a W=1
  /// CoordinateWrite each, which hints any current replica that stays
  /// silent. `on_answer` runs once per re-sent write, when it is acked or
  /// has failed.
  void RerouteHintsFor(ServerId departed,
                       const std::function<void(Status)>& on_answer =
                           [](Status) {});

  /// Moves the unanswered slots of in-flight quorum ops off `departed` and
  /// onto a current replica of the op's key, so acked writes are never
  /// stranded waiting on a server that left the ring.
  void RetargetInflightOps(ServerId departed);

  /// Total hints queued across all targets (the decommission drain gate).
  std::size_t hints_outstanding() const;

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
  /// fragment of the table (2.4 ms, deliberately expensive).
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

  /// Fixed receive overhead charged once per delivered peer message
  /// (deserialization, dispatch).
  static constexpr SimTime kMessageProcess = Micros(8);

  /// Sends `handler` to run on peer `to` under its service queue; the
  /// returned value travels back and `on_reply` runs here. Either leg may be
  /// dropped by the network. `remote_service` is the handler's demand, on
  /// top of `kMessageProcess`: a SimTime constant, or a `SimTime(Server&)`
  /// callable resolved ON THE PEER when the message is delivered, so the
  /// demand can depend on replica-local state the sender cannot know (is
  /// the row cached there?). `payloads` is the logical
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

  /// Point read answered from the replica-local row cache: no memtable/run
  /// merge, just the cache probe and a copy.
  static constexpr SimTime kReadCachedLocal = Micros(8);

  /// Service demand of a local point read of (table, key):
  /// `kReadCachedLocal` when this server's row cache holds the key,
  /// `perf.read_local` otherwise.
  SimTime ReadServiceFor(const std::string& table, const Key& key) const;

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
    queue_.Submit(service, [this, born = incarnation(),
                            fn = std::move(fn)]() mutable {
      if (born != incarnation() || crashed_) return;
      fn();
    });
  }

  /// Replicas of `key` in `table` (partition prefix for composite keys).
  /// Served from the ring's per-vnode placement table (Ring::PlacementFor),
  /// so routing a partition (every write, every anti-entropy row) costs one
  /// hash and a binary search instead of a ring walk and a fresh
  /// allocation, and keeps no per-key state. The reference is stable until
  /// the ring membership changes.
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
  /// over the keys they both replicate; the peer answers with its mismatched
  /// buckets and the per-key row digests inside them, and only rows whose
  /// digests differ (or that one side lacks) ship, both ways, in messages of
  /// at most 128 rows. Exposed for tests; also runs periodically when
  /// `anti_entropy_interval` > 0.
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

  // --- range sync internals (public: invoked on peers via messages) ---

  /// The keys of a table one range sync covers; both sides evaluate it the
  /// same way. Anti-entropy (no `range`) covers the keys this server and
  /// the peer both replicate; a membership task covers the keys whose
  /// partition token falls in `range`, whoever replicates them.
  struct SyncScope {
    std::optional<Ring::TokenRange> range;
  };

  /// Digest of this server's rows of `table` in `scope` with `peer`, in 64
  /// buckets by key hash. Per bucket: sum (mod 2^64) of salted entry
  /// hashes folded with the row count — commutative (order-insensitive) but,
  /// unlike an XOR fold, not a GF(2) linear map that dependent entry sets can
  /// cancel to a false match.
  std::vector<std::uint64_t> ComputeSyncDigests(
      const std::string& table, ServerId peer,
      const SyncScope& scope = {}) const;

 private:
  friend class Cluster;
  /// The generic coordinator state machine drives fan-out/hints/abort via
  /// the private registration and hint primitives below.
  template <typename Response>
  friend class QuorumOp;

  /// What an admitted client op coordinates, answering through its reply.
  template <typename ResultT>
  using Coordination = UniqueFn<void(std::function<void(ResultT)>)>;

  /// The one admission path of the client entry points: counts the op in
  /// `ops`; rejects it while this server takes no new coordination, or with
  /// the error of `admit` (the entry point's own checks, then its setup);
  /// else runs the coordination `admit` returns one `coordinator_op` later,
  /// with a reply that costs one more.
  template <typename ResultT, typename Admission>
  void Admit(Counter& ops, std::function<void(ResultT)> callback,
             Admission admit);

  // --- range sync steps ---

  /// The peer's answer to a digest exchange: its mismatched buckets, and
  /// (key, storage::RowDigest) for each of its rows in scope in them, in key
  /// order.
  struct BucketKeyDigests {
    std::vector<int> buckets;
    std::vector<std::pair<Key, std::uint64_t>> keys;
  };
  /// One push message: rows the peer applies, and keys only the peer
  /// holds. At most 128 entries, so the peer's answer carries at most that
  /// many rows too.
  struct SyncChunk {
    std::vector<storage::KeyedRow> rows;
    std::vector<Key> pulls;
  };
  /// Called once a sync is settled, with the rows it shipped both ways.
  using SyncSettled = std::function<void(std::uint64_t rows)>;
  /// The chunks of one sync still unanswered, and the rows shipped so far.
  struct SyncTally {
    std::size_t open = 0;
    std::uint64_t rows = 0;
    SyncSettled on_settled;
    /// One chunk answered and applied; the last one settles the sync.
    void Close() {
      if (--open == 0 && on_settled) on_settled(rows);
    }
  };

  /// Syncs the rows of `table` in `scope` with `peer`. `on_settled`, if
  /// set, runs once the digest answer shows no mismatched bucket or every
  /// chunk of the diff has been answered and applied here; a sync that
  /// loses a message never settles.
  void SyncTableWithPeer(const std::string& table, ServerId peer,
                         const SyncScope& scope = {},
                         SyncSettled on_settled = nullptr);
  /// Diffs `theirs` against this server's rows in the same buckets and
  /// sends the differing rows and the peer-only keys as SyncChunks.
  void PushDifferingRows(const std::string& table, ServerId peer,
                         const SyncScope& scope,
                         const BucketKeyDigests& theirs,
                         SyncSettled on_settled);
  void SendSyncChunk(const std::string& table, ServerId peer,
                     const SyncScope& scope, SyncChunk chunk,
                     std::shared_ptr<SyncTally> tally);
  /// Runs on the peer: applies `chunk.rows` and returns its current row of
  /// every key it holds differently from what it received, and of every
  /// pulled key.
  std::vector<storage::KeyedRow> ApplySyncChunk(const std::string& table,
                                                const SyncChunk& chunk);
  /// Whether `key` of `table` is in `scope` of a sync with `peer`.
  bool InSyncScope(const std::string& table, const Key& key, ServerId peer,
                   const SyncScope& scope) const;
  /// Visits, in key order, this server's rows of `table` in `scope` with
  /// `peer` whose key hashes into one of `buckets`.
  void ForEachRowInBuckets(
      const std::string& table, ServerId peer, const SyncScope& scope,
      const std::vector<int>& buckets,
      const std::function<void(const Key&, const storage::Row&)>& fn) const;

  /// (Re-)arms the periodic background ticks for the current incarnation.
  void ScheduleBackgroundTicks();
  /// Runs `tick` after `delay`, then every `interval` while it returns true
  /// and this incarnation lives.
  void ArmTick(SimTime delay, SimTime interval, bool (*tick)(Server&));

  /// The stop every process end shares, crash or leave, in this order: the
  /// view hook's OnServerDown, aborts of the in-flight coordinator ops,
  /// dropping the hints, the service-queue backlog and the stream tasks,
  /// the incarnation bump (so replies the aborts enqueued die with the old
  /// incarnation), endpoint down. Returns the number of hints dropped.
  std::size_t ShutDown();
  /// The start every serving life shares, restart or finished join: one
  /// anti-entropy round when serving, then the view hook's OnServerUp.
  void ComeUp();

  /// Registers an abort closure for an in-flight coordinator operation;
  /// ShutDown() invokes every registered closure. `retarget` (optional) is
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

  /// The slice of `key` used for ring placement (valid while `key` lives).
  std::string_view PartitionViewFor(const std::string& table,
                                    const Key& key) const;

  // --- elastic membership internals ---

  /// One (range, table) unit of a membership transfer, settled by one range
  /// sync. Every task of a plan is in flight at once, each on its own
  /// attempts: its own silence probe, backoff and (join) source rotation.
  /// Join tasks sync with `peers` (rotating on retry); decommission tasks
  /// with the single new owner in `peers`. A retried task re-diffs, so it
  /// ships only what the peer still lacks.
  struct StreamTask {
    std::string table;
    Ring::TokenRange range;
    std::vector<ServerId> peers;
    int attempt = 0;
    /// Matches a sync's settlement and silence probe to this task's current
    /// attempt; a stale one (superseded by a retry) is ignored.
    std::uint64_t seq = 0;
    /// The in-flight sync's "member.stream_range" span; the sync's RPCs
    /// nest beneath it.
    TraceContext span = {};
  };
  using StreamTasks = std::map<std::uint64_t, StreamTask>;

  /// Expands a transfer plan into stream tasks (join: one per range+table;
  /// decommission: one per range+table+new owner) and starts them all.
  void StreamPlan(const std::vector<Ring::RangeTransfer>& plan);
  /// Starts one attempt of task `id`: its sync, under a
  /// "member.stream_range" span, and a silence probe at `rpc_timeout`.
  void StartStreamSync(std::uint64_t id);
  void StreamSyncSettled(std::uint64_t id, std::uint64_t seq,
                         std::uint64_t rows);
  /// The silence probe: a sync that has not settled is retried after a
  /// linear backoff, against the next source; past a decommission's drain
  /// deadline the task is abandoned instead.
  void StreamSyncSilent(std::uint64_t id, std::uint64_t seq);
  /// Ends a task (settled or abandoned); the last one ends the plan.
  void EndStreamTask(StreamTasks::iterator task);
  /// The plan is done: finishes the join or advances the decommission.
  void EndStreamPlan();
  /// Counts the decommission as forced, once however many of its tasks or
  /// hints the expired drain deadline gives up on.
  void CountForcedDrain();
  void FinishJoin();
  /// Advances the decommission phase machine once the current pass's
  /// stream tasks have settled.
  void ContinueDecommission();
  /// Polls the hint queues; leaves when empty. At the drain deadline it
  /// force-reroutes them and leaves once every reroute has answered.
  void DrainHintsThenLeave();
  void FinishLeave(bool forced);

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

  bool crashed_ = false;
  std::uint64_t next_op_id_ = 0;
  /// An in-flight coordinator op's abort closure, and its retarget closure
  /// (optional; invoked when a server departs the ring so unanswered slots
  /// move to a live replica).
  struct InflightOp {
    std::function<void()> abort;
    std::function<void(ServerId)> retarget;
  };
  /// In-flight coordinator ops by registration id (ordered map: ShutDown()
  /// aborts and departures retarget in deterministic id order).
  std::map<std::uint64_t, InflightOp> inflight_;

  // --- elastic membership state ---
  MembershipState membership_ = MembershipState::kServing;
  /// The current plan's unsettled tasks by id. Ids are never reused, so a
  /// late settlement of an abandoned task cannot match a later pass's task.
  StreamTasks stream_tasks_;
  std::uint64_t last_stream_task_ = 0;
  /// The plans outlive a crash (modeled as durable intent records): a
  /// joining or draining server that crashes re-syncs them after Restart.
  std::vector<Ring::RangeTransfer> decommission_plan_;
  std::vector<Ring::RangeTransfer> join_plan_;
  /// 0 = idle, 1 = first pass, 2 = second pass, 3 = hint drain.
  int decommission_phase_ = 0;
  SimTime drain_deadline_ = 0;
  /// Whether the drain deadline already forced this decommission.
  bool drain_forced_ = false;
  /// Root span of the in-progress join or drain ("member.join" /
  /// "member.drain"); each sync attempt of a stream task is a child span.
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
            kMessageProcess + demand,
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
