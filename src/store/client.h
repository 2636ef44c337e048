// Application client handle.
//
// A Client models an application process on the (simulated) client host: it
// talks to one coordinator server over the network, exactly as in the
// paper's experiments ("an application client connects to any server in the
// system; that server acts as the coordinator"). Operations are
// asynchronous; *Sync convenience wrappers drive the simulation until the
// operation completes (tests and examples only — workloads use the async
// API so many clients can run concurrently).
//
// The canonical read surface is Get plus the unified Query entry point
// (QuerySpec names a view, index, or join query), each taking a ReadOptions
// and delivering one ReadResult; writes take a WriteOptions and deliver a
// WriteResult. (The pre-ISSUE-9 ViewGet/IndexGet forwarders are gone; spell
// reads as Query(QuerySpec::View/Index(...), ...).)
// Both options structs carry an optional parent TraceContext;
// when none is given (and the cluster's `trace_client_ops` is on) the client
// mints a fresh root trace per operation, whose id comes back in the result
// so callers can dump the causal timeline (Tracer::DumpJson).
//
// ## The freshness contract
//
// Every read names a consistency level (ReadOptions::consistency) and gets
// back a freshness claim (ReadResult::freshness) plus the path that served
// it (ReadResult::served_by):
//
//  * kEventual — the default. The read observes whatever the contacted
//    quorum holds; a ViewGet may miss updates still propagating. `freshness`
//    is the store's best lower bound on how fresh the answer is (for a view,
//    the tracker's FreshAsOf for the partition): every base write with a
//    timestamp <= freshness is reflected, later writes may or may not be.
//
//  * kBoundedStaleness — ViewGet only (Get/IndexGet read the base table
//    directly and are bounded by construction). The returned rows are
//    guaranteed to reflect every base write older than `max_staleness`
//    (0 = 500 ms). The coordinator proves the bound from the cluster-wide
//    FreshnessTracker; when it cannot, it briefly parks the read (up to
//    100 ms), fires a targeted repair of wounded view families, or — when
//    the tracker's propagation-lag estimate says the view cannot catch up
//    in time — routes the read to the secondary index or a base-table scan
//    (`served_by` = kSiPath / kBaseScan), which trade freshness-by-
//    construction for a costlier scan.
//
//  * kReadYourWrites — the Section V session guarantee. Within a session
//    (BeginSession), a view Get blocks until every one of the session's own
//    earlier updates that can reach the read partition is reflected: the
//    same prove -> repair -> park ladder as kBoundedStaleness, filtered to
//    the session's intents, with no deadline and no SI/base fallback (the
//    client's request timeout still answers a read parked at a crashed
//    coordinator). The view is then read at a majority quorum, like a
//    bounded read. BeginSession() remains the sugar for this level: a
//    session-carrying ViewGet at kEventual is upgraded to kReadYourWrites
//    automatically; a caller that wants no guarantee reads at kEventual
//    without a session.
//
// `freshness` is a Timestamp in the client-timestamp domain
// (kClientTimestampEpoch + simulated time); staleness of a result at time T
// is (kClientTimestampEpoch + T) - freshness.

#ifndef MVSTORE_STORE_CLIENT_H_
#define MVSTORE_STORE_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/logging.h"
#include "common/statusor.h"
#include "common/trace.h"
#include "common/types.h"
#include "storage/row.h"
#include "store/hooks.h"
#include "store/server.h"

namespace mvstore::store {

class Cluster;

// kClientTimestampEpoch (the floor of client-generated timestamps) lives in
// store/config.h so clock-driven server tasks can share it.

/// Options shared by every read-shaped operation (Get, Query).
struct ReadOptions {
  /// Read quorum R; < 0 uses the config default. (Index queries broadcast
  /// to every server and ignore it.)
  int quorum = -1;
  /// Columns to return; empty = all. Applied uniformly by the coordinator
  /// on the merged image for every query kind (see QuerySpec for the
  /// per-kind semantics) — replicas never project individually, so the
  /// answer cannot depend on which replicas happened to respond.
  std::vector<ColumnName> columns;
  /// Per-request client deadline; 0 falls back to request_timeout().
  SimTime timeout = 0;
  /// Explicit parent span: the operation's span becomes its child, letting
  /// callers stitch several operations into one causal trace. Null = mint a
  /// root trace (when the cluster's `trace_client_ops` is enabled).
  TraceContext trace;
  /// Consistency level (see the freshness-contract comment above).
  ReadConsistency consistency = ReadConsistency::kEventual;
  /// kBoundedStaleness only: the staleness bound, in simulated time units.
  /// 0 uses 500 ms.
  SimTime max_staleness = 0;
};

/// Options shared by every write-shaped operation (Put, Delete).
struct WriteOptions {
  /// Write quorum W; < 0 uses the config default.
  int quorum = -1;
  /// Write timestamp; kNullTimestamp draws the client's next timestamp.
  Timestamp ts = kNullTimestamp;
  /// Per-request client deadline; 0 falls back to request_timeout().
  SimTime timeout = 0;
  /// Explicit parent span (see ReadOptions::trace).
  TraceContext trace;
};

/// One result pair of a join query: the matched left- and right-side view
/// records (each side's base key + projected cells).
struct JoinedPair {
  ViewRecord left;
  ViewRecord right;
};

/// Which of ReadResult's payload fields the operation populated.
enum class ReadPayload {
  kNone,     ///< failed read (or a Get that found nothing)
  kRow,      ///< Get: `row`
  kRecords,  ///< view query: `records`
  kRows,     ///< index query: `rows`
  kJoined,   ///< join query: `joined`
};

/// The one result shape every read-shaped operation delivers. Exactly one
/// payload field is populated, matching the operation: `row` for Get,
/// `records` for a view query, `rows` for an index query, `joined` for a
/// join query; `payload_kind()` says which.
struct ReadResult {
  Status status = Status::OK();
  storage::Row row;
  std::vector<ViewRecord> records;
  std::vector<storage::KeyedRow> rows;
  std::vector<JoinedPair> joined;
  /// Freshness claim (see the contract comment above): every base write
  /// with ts <= freshness is reflected in the payload. kNullTimestamp when
  /// the operation failed.
  Timestamp freshness = kNullTimestamp;
  /// The path that served the read: the materialized view, the secondary
  /// index, or a base-table read/scan.
  ServedBy served_by = ServedBy::kBaseScan;
  /// Trace id of the operation (0 when untraced).
  TraceId trace = 0;
  bool ok() const { return status.ok(); }

  /// The populated payload field. Debug builds verify that the fields not
  /// named by `payload` really are empty (the exactly-one invariant).
  ReadPayload payload_kind() const {
#ifndef NDEBUG
    MVSTORE_CHECK((payload == ReadPayload::kRow || row.empty()) &&
                  (payload == ReadPayload::kRecords || records.empty()) &&
                  (payload == ReadPayload::kRows || rows.empty()) &&
                  (payload == ReadPayload::kJoined || joined.empty()))
        << "ReadResult populated a payload field its kind does not name";
#endif
    return payload;
  }

  /// Set by the client adapters; read through payload_kind().
  ReadPayload payload = ReadPayload::kNone;
};

struct WriteResult {
  Status status = Status::OK();
  /// The timestamp the write was issued at (resolved from WriteOptions::ts).
  Timestamp ts = kNullTimestamp;
  /// Trace id of the operation (0 when untraced).
  TraceId trace = 0;
  bool ok() const { return status.ok(); }
};

/// The one read-routing description (ISSUE 9): every non-Get read — view,
/// index, or join — goes through Client::Query with one of these. The tag
/// says which describing fields are meaningful; build specs with the static
/// factories, not by hand.
///
/// ## Projection semantics (uniform across kinds)
///
/// ReadOptions::columns is applied by the COORDINATOR on the merged image,
/// never per replica, so the projection cannot vary with which replicas
/// answered:
///  * kView — projects the view's materialized columns (empty = all of
///    them; bookkeeping columns are never returned).
///  * kIndex — projects the merged whole-row broadcast result (empty = the
///    full rows).
///  * kJoin — each side projects to its own `left_columns`/`right_columns`
///    from the spec; ReadOptions::columns is ignored (the two sides
///    materialize different column sets).
struct QuerySpec {
  enum class Kind {
    kView,   ///< records of one view key (scatter-gathered when sharded)
    kIndex,  ///< secondary-index probe: rows where `column == value`
    kJoin,   ///< zip of two per-side views sharing a join key
  };

  Kind kind = Kind::kView;

  /// kView: the view to read and the view-key value to look up.
  std::string view;
  Key view_key;

  /// kIndex: the indexed base table, column, and match value.
  std::string table;
  ColumnName column;
  Value value;

  /// kJoin: the two per-side views (as declared by DeclareJoinView) read
  /// at `view_key`, and each side's projection.
  std::string right_view;  // the left view rides in `view`
  std::vector<ColumnName> left_columns;
  std::vector<ColumnName> right_columns;

  static QuerySpec View(std::string view, Key view_key) {
    QuerySpec spec;
    spec.kind = Kind::kView;
    spec.view = std::move(view);
    spec.view_key = std::move(view_key);
    return spec;
  }

  static QuerySpec Index(std::string table, ColumnName column, Value value) {
    QuerySpec spec;
    spec.kind = Kind::kIndex;
    spec.table = std::move(table);
    spec.column = std::move(column);
    spec.value = std::move(value);
    return spec;
  }

  static QuerySpec Join(std::string left_view, std::string right_view,
                        Key join_key, std::vector<ColumnName> left_columns,
                        std::vector<ColumnName> right_columns) {
    QuerySpec spec;
    spec.kind = Kind::kJoin;
    spec.view = std::move(left_view);
    spec.right_view = std::move(right_view);
    spec.view_key = std::move(join_key);
    spec.left_columns = std::move(left_columns);
    spec.right_columns = std::move(right_columns);
    return spec;
  }
};

using ReadCallback = std::function<void(ReadResult)>;
using WriteCallback = std::function<void(WriteResult)>;

class Client {
 public:
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  ServerId coordinator() const { return coordinator_; }

  /// Monotonically increasing per-client timestamp: epoch + simulated
  /// microsecond clock, bumped to stay strictly increasing. Distinct clients
  /// can collide — the store's LWW tie-break handles that, as in the modeled
  /// systems.
  Timestamp NextTimestamp();

  /// Starts a session (Section V). Subsequent Puts and view Gets carry the
  /// session until EndSession; view Gets then read your writes: they block
  /// until the session's own updates to the read partition have propagated.
  void BeginSession();
  void EndSession() { session_ = 0; }
  SessionId session() const { return session_; }

  /// Client-side request deadline: if no reply arrives in time (e.g. the
  /// coordinator is down), the callback fires with kTimedOut. 0 disables
  /// (the default — a request into a dead coordinator then hangs forever,
  /// as in the modeled system's raw transport). ReadOptions/WriteOptions
  /// `timeout` overrides this per request.
  void set_request_timeout(SimTime timeout) { request_timeout_ = timeout; }
  SimTime request_timeout() const { return request_timeout_; }

  // --- canonical asynchronous operations ---

  void Get(const std::string& table, const Key& key,
           const ReadOptions& options, ReadCallback callback);

  void Put(const std::string& table, const Key& key, const Mutation& mutation,
           const WriteOptions& options, WriteCallback callback);

  /// Deletes cells (Put of NULLs, stored as tombstones).
  void Delete(const std::string& table, const Key& key,
              std::vector<ColumnName> columns, const WriteOptions& options,
              WriteCallback callback);

  /// The single non-Get read entry point: routes a view, index, or join
  /// query (see QuerySpec). The scatter-gather path for sharded views hangs
  /// off the kView route, so every read surface gains it at once.
  void Query(const QuerySpec& spec, const ReadOptions& options,
             ReadCallback callback);

  // --- canonical synchronous wrappers (drive the simulation) ---

  ReadResult GetSync(const std::string& table, const Key& key,
                     const ReadOptions& options);
  WriteResult PutSync(const std::string& table, const Key& key,
                      const Mutation& mutation, const WriteOptions& options);
  WriteResult DeleteSync(const std::string& table, const Key& key,
                         std::vector<ColumnName> columns,
                         const WriteOptions& options);
  ReadResult QuerySync(const QuerySpec& spec, const ReadOptions& options);

 private:
  friend class Cluster;
  Client(Cluster* cluster, ServerId coordinator);

  int ReadQuorum(int requested) const;
  int WriteQuorum(int requested) const;
  Timestamp ResolveTimestamp(Timestamp ts);

  // Per-kind Query routes (the old ViewGet/IndexGet guts plus the join zip).
  void QueryView(const QuerySpec& spec, const ReadOptions& options,
                 ReadCallback callback);
  void QueryIndex(const QuerySpec& spec, const ReadOptions& options,
                  ReadCallback callback);
  void QueryJoin(const QuerySpec& spec, const ReadOptions& options,
                 ReadCallback callback);

  /// The operation's span: a child of `parent` when given, else a fresh root
  /// trace (when config().trace_client_ops allows), else null.
  TraceContext StartOpTrace(const std::string& name,
                            const TraceContext& parent);

  /// Ships `fn` to the coordinator over the network; `fn` runs there.
  void SendToCoordinator(std::function<void(Server&)> fn);

  /// Wraps a result callback so it is delivered back at the client host
  /// (adds the return network hop), records latency into `latency`, closes
  /// the operation span `op`, and stamps the trace id into the result. The
  /// callback (and whatever it captured) is released as it is delivered,
  /// not when the request deadline timer fires.
  template <typename ResultT>
  std::function<void(ResultT)> ReturnToClient(
      std::function<void(ResultT)> callback, Histogram* latency,
      TraceContext op, SimTime timeout_override);

  Cluster* cluster_;
  ServerId coordinator_;
  SessionId session_ = 0;
  Timestamp last_ts_ = 0;
  SimTime request_timeout_ = 0;
};

}  // namespace mvstore::store

#endif  // MVSTORE_STORE_CLIENT_H_
